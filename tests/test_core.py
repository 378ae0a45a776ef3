"""Spiking-convolution core tests: accumulation, firing, inhibition,
competition, plasticity, pooling, and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn import container, core
from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, depress_map, double_learning_rates,
                           fire_and_inhibit, global_max_potential, homeostasis_gate,
                           infer_spikes, init_kernel, load_kernel, save_kernel,
                           stdp_competition, stdp_update)
from spikecnn.encode import encode_dataset
from spikecnn.train import ConvPipeline
from synth_digits import make_dataset


def fresh_state(maps_out=3, out_h=8, out_w=8):
    return LayerState(maps_out, out_h, out_w)


def brute_force_valid_conv(spikes, weights):
    """Triple-loop valid-mode correlation (test oracle)."""
    m_out, m_in, k, _ = weights.shape
    c, h, w = spikes.shape
    out = np.zeros((m_out, h - k + 1, w - k + 1))
    for m in range(m_out):
        for u in range(h - k + 1):
            for v in range(w - k + 1):
                out[m, u, v] = np.sum(spikes[:, u:u + k, v:v + k] * weights[m])
    return out


class TestConvKernel:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 3, 3), 1.5))
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 3, 3), -0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # nan < 0 and nan > 1 are both False, so a range check alone admits NaN
        w = np.full((2, 1, 3, 3), 0.5)
        w[1, 0, 2, 2] = bad
        with pytest.raises(ValueError):
            ConvKernel(w)

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 3, 3), 0.5), a_plus=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_rejects_non_finite_rates(self, bad):
        # nan <= 0 is False, so a sign check alone admits a NaN rate; and
        # w += a·w(1-w) leaves [0, 1] once a > 1 (a = 1.5 steps w = 0.9 to 1.035)
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 3, 3), 0.5), a_plus=bad)
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 3, 3), 0.5), a_minus=bad)

    @pytest.mark.parametrize("shape", [(3, 2, 5, 4), (0, 2, 5, 5), (3, 0, 5, 5), (3, 2, 0, 0)])
    def test_rejects_empty_or_non_square_weights(self, shape):
        with pytest.raises(ValueError, match="k, k"):
            ConvKernel(np.full(shape, 0.5))

    def test_init_kernel_within_open_interval(self):
        k = init_kernel(30, 2, 5, np.random.default_rng(0))
        assert k.weights.shape == (30, 2, 5, 5)
        assert 0 < k.weights.min() and k.weights.max() < 1
        assert abs(k.weights.mean() - 0.8) < 0.01


class TestInhibitionConfig:
    @pytest.mark.parametrize("bad", [-0.5, -1e-9, -np.inf, np.nan, np.inf])
    def test_rejects_a_negative_or_non_finite_threshold(self, bad):
        # below 0 a neuron would fire at potential 0, in a bin with no input
        with pytest.raises(ValueError, match="threshold"):
            InhibitionConfig(threshold=bad)

    def test_accepts_a_zero_threshold(self):
        assert InhibitionConfig(threshold=0.0).threshold == 0.0


class TestConvAccumulate:
    def test_zero_bin_leaves_potentials(self):
        w = np.full((3, 2, 5, 5), 0.5)
        pot = np.zeros((3, 8, 8))
        out = conv_accumulate(np.zeros((2, 12, 12), dtype=bool), w, pot)
        np.testing.assert_array_equal(out, 0.0)

    def test_vertical_line_alignment(self):
        spikes = np.zeros((1, 5, 5), dtype=bool)
        spikes[0, :, 2] = True
        weights = np.zeros((1, 1, 5, 5))
        weights[0, 0, :, 2] = 1.0
        pot = np.zeros((1, 1, 1))
        conv_accumulate(spikes, weights, pot)
        assert pot[0, 0, 0] == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        spikes = rng.random((2, 10, 10)) < 0.2
        weights = rng.uniform(0, 1, size=(4, 2, 5, 5))
        pot = np.zeros((4, 6, 6))
        conv_accumulate(spikes, weights, pot)
        np.testing.assert_allclose(pot, brute_force_valid_conv(spikes, weights), atol=1e-12)

    def test_additive_over_bins(self):
        rng = np.random.default_rng(2)
        weights = rng.uniform(0, 1, size=(3, 2, 5, 5))
        bins = rng.random((6, 2, 12, 12)) < 0.1
        pot = np.zeros((3, 8, 8))
        for t in range(6):
            conv_accumulate(bins[t], weights, pot)
        total = np.zeros((3, 8, 8))
        conv_accumulate(bins.sum(axis=0).astype(float), weights, total)
        np.testing.assert_allclose(pot, total, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv_accumulate(np.zeros((3, 12, 12)), np.zeros((2, 2, 5, 5)),
                            np.zeros((2, 8, 8)))


class TestFireAndInhibit:
    def test_single_neuron_above_threshold(self):
        state = fresh_state()
        pot = np.zeros((3, 8, 8))
        pot[1, 4, 4] = 16.0
        fired = fire_and_inhibit(pot, state, InhibitionConfig(threshold=15.0))
        assert fired.sum() == 1 and fired[1, 4, 4]

    def test_highest_potential_map_wins_location(self):
        state = fresh_state()
        pot = np.zeros((3, 8, 8))
        pot[0, 4, 4] = 15.7
        pot[2, 4, 4] = 16.2
        fired = fire_and_inhibit(pot, state, InhibitionConfig(threshold=15.0))
        assert fired.sum() == 1 and fired[2, 4, 4]
        # the beaten map stays silenced there for the rest of the image
        pot[0, 4, 4] = 99.0
        fired2 = fire_and_inhibit(pot, state, InhibitionConfig(threshold=15.0))
        assert not fired2[0, 4, 4]

    def test_tie_goes_to_lower_map(self):
        state = fresh_state()
        pot = np.zeros((3, 8, 8))
        pot[1, 2, 2] = 16.0
        pot[2, 2, 2] = 16.0
        fired = fire_and_inhibit(pot, state, InhibitionConfig(threshold=15.0))
        assert fired[1, 2, 2] and not fired[2, 2, 2]

    def test_no_refire_within_image(self):
        state = fresh_state()
        pot = np.zeros((3, 8, 8))
        pot[0, 1, 1] = 20.0
        cfg = InhibitionConfig(threshold=15.0)
        assert fire_and_inhibit(pot, state, cfg).sum() == 1
        assert fire_and_inhibit(pot, state, cfg).sum() == 0

    def test_without_lateral_inhibition_all_maps_fire(self):
        state = fresh_state()
        pot = np.zeros((3, 8, 8))
        pot[:, 4, 4] = 16.0
        cfg = InhibitionConfig(threshold=15.0, lateral_inhibition=False)
        fired = fire_and_inhibit(pot, state, cfg)
        assert fired.sum() == 3

    def test_per_location_sparsity_random_images(self):
        rng = np.random.default_rng(3)
        cfg = InhibitionConfig(threshold=15.0)
        kernel = init_kernel(8, 2, 5, rng)
        for _ in range(20):
            dense = rng.random((6, 2, 16, 16)) < 0.25
            (_, pos, _, _), _ = infer_spikes(dense, kernel, cfg)
            assert np.bincount(pos).max(initial=0) <= 1


def lexsort_fire_and_inhibit(potentials, state, cfg):
    """``fire_and_inhibit`` by a lexsort of the eligible neurons, in map
    order, on (location, -potential): each location's first entry wins."""
    eligible = (potentials > cfg.threshold) & ~state.fired
    if cfg.lateral_inhibition:
        eligible &= ~state.location_locked[None, :, :]
    idx = np.flatnonzero(eligible)
    if cfg.lateral_inhibition and idx.size:
        loc = idx % state.location_locked.size
        state.location_locked.flat[loc] = True
        order = np.lexsort((-potentials.flat[idx], loc))
        first = np.ones(idx.size, dtype=bool)
        first[1:] = loc[order][1:] != loc[order][:-1]
        idx = idx[order[first]]
    fired_now = np.zeros_like(eligible)
    fired_now.flat[idx] = True
    state.fired.flat[idx] = True
    return fired_now


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fire_and_inhibit_matches_a_lexsort_per_location(data):
    # potentials and thresholds on a half grid: exact ties across maps, and
    # potentials on the threshold, in most examples
    maps, h, w = (data.draw(st.integers(1, n)) for n in (6, 4, 4))
    cfg = InhibitionConfig(threshold=data.draw(st.sampled_from([0.5, 1.0])),
                           lateral_inhibition=data.draw(st.booleans()))
    got, want = fresh_state(maps, h, w), fresh_state(maps, h, w)
    for _ in range(data.draw(st.integers(1, 3))):  # later calls see fired and locked neurons
        pot = data.draw(hnp.arrays(np.float64, (maps, h, w),
                                   elements=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])))
        np.testing.assert_array_equal(fire_and_inhibit(pot, got, cfg),
                                      lexsort_fire_and_inhibit(pot, want, cfg))
        np.testing.assert_array_equal(got.fired, want.fired)
        np.testing.assert_array_equal(got.location_locked, want.location_locked)


class TestStdpCompetition:
    def test_single_candidate_wins(self):
        state = fresh_state(maps_out=2, out_h=20, out_w=20)
        fired = np.zeros((2, 20, 20), dtype=bool)
        fired[0, 3, 3] = True
        pot = np.zeros((2, 20, 20))
        pot[0, 3, 3] = 17.0
        assert stdp_competition(fired, pot, state, 5) == [(0, 3, 3)]

    def test_nearby_candidates_suppressed(self):
        # 8 pixels apart: both fit inside one 11x11 window, weaker one loses
        state = fresh_state(maps_out=2, out_h=20, out_w=20)
        fired = np.zeros((2, 20, 20), dtype=bool)
        pot = np.zeros((2, 20, 20))
        fired[0, 5, 5] = True
        pot[0, 5, 5] = 20.0
        fired[1, 5, 13] = True
        pot[1, 5, 13] = 18.0
        assert stdp_competition(fired, pot, state, 5) == [(0, 5, 5)]

    def test_distant_candidates_both_survive(self):
        state = fresh_state(maps_out=2, out_h=20, out_w=20)
        fired = np.zeros((2, 20, 20), dtype=bool)
        pot = np.zeros((2, 20, 20))
        fired[0, 5, 5] = True
        pot[0, 5, 5] = 20.0
        fired[1, 5, 17] = True
        pot[1, 5, 17] = 18.0
        assert stdp_competition(fired, pot, state, 5) == [(0, 5, 5), (1, 5, 17)]

    def test_map_updates_once_per_image(self):
        state = fresh_state(maps_out=1, out_h=30, out_w=30)
        fired = np.zeros((1, 30, 30), dtype=bool)
        pot = np.zeros((1, 30, 30))
        fired[0, 2, 2] = True
        pot[0, 2, 2] = 20.0
        assert stdp_competition(fired, pot, state, 5) == [(0, 2, 2)]
        fired2 = np.zeros((1, 30, 30), dtype=bool)
        pot2 = np.zeros((1, 30, 30))
        fired2[0, 25, 25] = True
        pot2[0, 25, 25] = 30.0
        assert stdp_competition(fired2, pot2, state, 5) == []

    def test_region_lock_persists_across_bins(self):
        state = fresh_state(maps_out=2, out_h=30, out_w=30)
        fired = np.zeros((2, 30, 30), dtype=bool)
        pot = np.zeros((2, 30, 30))
        fired[0, 10, 10] = True
        pot[0, 10, 10] = 20.0
        stdp_competition(fired, pot, state, 5)
        fired2 = np.zeros((2, 30, 30), dtype=bool)
        pot2 = np.zeros((2, 30, 30))
        fired2[1, 12, 12] = True  # inside the locked region from the last bin
        pot2[1, 12, 12] = 40.0
        assert stdp_competition(fired2, pot2, state, 5) == []

    def test_against_brute_force_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        radius = 5
        for _ in range(30):
            maps, h, w = 6, 25, 25
            state = fresh_state(maps_out=maps, out_h=h, out_w=w)
            fired = rng.random((maps, h, w)) < 0.02
            pot = np.where(fired, rng.uniform(15, 30, size=(maps, h, w)), 0.0)
            winners = stdp_competition(fired, pot, state, radius)
            # oracle: all winner pairs must not fit inside one 11x11 window
            for i in range(len(winners)):
                for j in range(i + 1, len(winners)):
                    _, u1, v1 = winners[i]
                    _, u2, v2 = winners[j]
                    assert max(abs(u1 - u2), abs(v1 - v2)) > 2 * radius
            # oracle: one update per map
            maps_won = [m for m, _, _ in winners]
            assert len(maps_won) == len(set(maps_won))


class TestStdpUpdate:
    def test_potentiation_value(self):
        k = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.004, a_minus=0.003)
        stdp_update(k, 0, np.ones((1, 1, 1), dtype=bool))
        assert k.weights[0, 0, 0, 0] == pytest.approx(0.501, abs=1e-12)

    def test_depression_value(self):
        k = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.004, a_minus=0.003)
        stdp_update(k, 0, np.zeros((1, 1, 1), dtype=bool))
        assert k.weights[0, 0, 0, 0] == pytest.approx(0.5 - 0.003 * 0.25, abs=1e-12)

    def test_fixed_points(self):
        w = np.array([0.0, 1.0]).reshape(1, 2, 1, 1)  # two input maps, k = 1
        k = ConvKernel(w.copy(), a_plus=0.1, a_minus=0.1)
        stdp_update(k, 0, np.ones((2, 1, 1), dtype=bool))
        np.testing.assert_array_equal(k.weights, w)
        stdp_update(k, 0, np.zeros((2, 1, 1), dtype=bool))
        np.testing.assert_array_equal(k.weights, w)

    def test_only_winner_map_touched(self):
        rng = np.random.default_rng(5)
        k = ConvKernel(rng.uniform(0.2, 0.8, size=(3, 2, 5, 5)))
        before = k.weights.copy()
        stdp_update(k, 1, rng.random((2, 5, 5)) < 0.5)
        np.testing.assert_array_equal(k.weights[0], before[0])
        np.testing.assert_array_equal(k.weights[2], before[2])
        assert not np.array_equal(k.weights[1], before[1])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_interval_preserved_under_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        k = ConvKernel(rng.uniform(0, 1, size=(2, 2, 3, 3)),
                       a_plus=rng.uniform(1e-4, 0.15), a_minus=rng.uniform(1e-4, 0.15))
        for _ in range(200):
            if rng.random() < 0.8:
                stdp_update(k, rng.integers(2), rng.random((2, 3, 3)) < 0.5)
            else:
                depress_map(k, rng.integers(2))
        assert k.weights.min() >= 0.0 and k.weights.max() <= 1.0


class TestHomeostasis:
    def test_two_updates_then_penalize(self):
        state = fresh_state()
        assert homeostasis_gate(state, 0) is True
        assert homeostasis_gate(state, 0) is True
        assert homeostasis_gate(state, 0) is False
        assert homeostasis_gate(state, 1) is True  # per-map counters

    def test_window_reset(self):
        state = fresh_state()
        for _ in range(3):
            homeostasis_gate(state, 0)
        assert homeostasis_gate(state, 0) is False
        for _ in range(5):        # advance through images 0..4
            state.begin_image()
            state.images_seen += 1
        state.begin_image()       # image 5 starts a new tumbling window
        assert homeostasis_gate(state, 0) is True


class TestLearningRateDoubling:
    def test_doubles_at_mark(self):
        k = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.004, a_minus=0.003)
        double_learning_rates(k, 1000)
        assert k.a_plus == pytest.approx(0.008)
        assert k.a_minus == pytest.approx(0.006)

    def test_no_change_off_mark(self):
        k = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.004, a_minus=0.003)
        double_learning_rates(k, 999)
        assert k.a_plus == pytest.approx(0.004)

    def test_cap(self):
        k = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.128, a_minus=0.096)
        double_learning_rates(k, 5000)
        assert k.a_plus == pytest.approx(0.128)
        assert k.a_minus == pytest.approx(0.096)

    def test_cap_holds_for_a_minus_above_a_plus(self, tmp_path):
        k = ConvKernel(np.full((1, 1, 3, 3), 0.5), a_plus=0.004, a_minus=0.6)
        double_learning_rates(k, 1000)
        assert (k.a_plus, k.a_minus) == (0.004, 0.6)
        save_kernel(tmp_path / "k.skrn", k)
        back = load_kernel(tmp_path / "k.skrn")
        assert (back.a_plus, back.a_minus) == (0.004, 0.6)
        np.testing.assert_array_equal(back.weights, k.weights)


def pool(h, w, spikes=(), pool_lateral_inhibition=False):
    """``core._pool_spikes`` over an h x w layer's (map, row, col, bin,
    potential) spikes: (bin, map, row, col) events.  The potentials are
    exact, so only equal ones tie."""
    m, u, v, t, x = (np.array(col) for col in zip(*spikes)) if spikes else [np.zeros(0, int)] * 5
    order = np.lexsort((u * w + v, m))  # the layer's (map, position) order
    listed = (m[order], (u * w + v)[order], t[order], x[order].astype(float))
    return core._pool_spikes(listed, (h, w), pool_lateral_inhibition, (0.0, lambda a, b: 0))


class TestMaxPool:
    def test_empty_block_no_spike(self):
        assert pool(4, 4).shape == (0, 4)

    def test_highest_potential_passes(self):
        events = pool(2, 2, [(0, 0, 0, 0, 15.7), (0, 1, 1, 2, 16.2)])
        np.testing.assert_array_equal(events, [[2, 0, 0, 0]])

    def test_equal_potentials_go_to_the_first_in_row_major_order(self):
        events = pool(2, 2, [(0, 1, 0, 3, 16.0), (0, 0, 1, 1, 16.0)])
        np.testing.assert_array_equal(events, [[1, 0, 0, 0]])

    def test_odd_dimensions_trimmed(self):
        edges = [(0, 22, 0, 0, 20.0), (1, 0, 22, 1, 20.0), (2, 22, 22, 2, 20.0)]
        assert pool(23, 23, edges).shape == (0, 4)
        events = pool(23, 23, edges + [(29, 21, 21, 3, 16.0)])
        np.testing.assert_array_equal(events, [[3, 29, 10, 10]])

    def test_keeps_original_bin(self):
        np.testing.assert_array_equal(pool(2, 2, [(0, 0, 1, 3, 20.0)]), [[3, 0, 0, 0]])

    def test_pool_lateral_inhibition_one_per_location(self):
        spikes = [(0, 0, 0, 1, 16.0),
                  (1, 1, 1, 0, 15.5),   # earlier bin wins (0,0)
                  (2, 0, 1, 2, 17.0)]
        # the losers go silent
        np.testing.assert_array_equal(pool(2, 2, spikes, pool_lateral_inhibition=True),
                                      [[0, 1, 0, 0]])


def all_bins_global_max(dense, kernel):
    """``global_max_potential`` visiting every bin, the silent ones included."""
    t_bins, _, h, w = dense.shape
    total = np.zeros(kernel.maps_out)
    for t in range(t_bins):
        pot = np.zeros((kernel.maps_out, h - kernel.k + 1, w - kernel.k + 1))
        conv_accumulate(dense[t], kernel.weights, pot)
        total += pot.max(axis=(1, 2))
    return total


class TestGlobalMaxPotential:
    def test_zero_input(self):
        k = ConvKernel(np.full((4, 2, 3, 3), 0.5))
        out = global_max_potential(np.zeros((5, 2, 8, 8), dtype=bool), k,
                                   core.readout_columns(k))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_vector_length_matches_maps(self):
        rng = np.random.default_rng(6)
        k = ConvKernel(rng.uniform(0, 1, size=(7, 2, 3, 3)))
        out = global_max_potential(rng.random((5, 2, 8, 8)) < 0.2, k, core.readout_columns(k))
        assert out.shape == (7,)

    def test_single_bin_equals_spatial_max(self):
        rng = np.random.default_rng(7)
        k = ConvKernel(rng.uniform(0, 1, size=(3, 2, 3, 3)))
        spikes = (rng.random((1, 2, 8, 8)) < 0.3)
        out = global_max_potential(spikes, k, core.readout_columns(k))
        pot = np.zeros((3, 6, 6))
        conv_accumulate(spikes[0], k.weights, pot)
        np.testing.assert_allclose(out, pot.max(axis=(1, 2)))

    def test_resets_between_bins(self):
        k = ConvKernel(np.ones((1, 1, 1, 1)))
        spikes = np.zeros((3, 1, 2, 2), dtype=bool)
        spikes[0, 0, 0, 0] = True
        spikes[1, 0, 0, 0] = True
        out = global_max_potential(spikes, k, core.readout_columns(k))
        # fresh accumulation per bin: 1 + 1, not 1 + 2
        assert out[0] == pytest.approx(2.0)

    def assert_matches_all_bins(self, dense, kernel):
        got = global_max_potential(dense, kernel, core.readout_columns(kernel))
        want = all_bins_global_max(dense, kernel)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_silent_bins_skipped_exactly(self):
        rng = np.random.default_rng(14)
        k = init_kernel(6, 3, 3, rng)
        spikes = rng.random((8, 3, 9, 9)) < 0.1
        spikes[[0, 1, 4, 6, 7]] = False  # leading, inner and trailing silent bins
        self.assert_matches_all_bins(spikes, k)
        self.assert_matches_all_bins(np.zeros_like(spikes), k)

    def test_real_pooled_layer2_tensor_matches_all_bins(self):
        rng = np.random.default_rng(15)
        images, _ = make_dataset(4, rng)
        pipe = ConvPipeline(init_kernel(30, 2, 5, rng), InhibitionConfig(threshold=15.0))
        readout = init_kernel(500, 30, 5, rng)
        for tensor in encode_dataset(images, threshold=30.0):
            pooled, _ = pipe.pooled(tensor)
            dense = pooled.dense()
            busy = dense.reshape(dense.shape[0], -1).any(axis=1)
            assert busy.any() and not busy.all()
            self.assert_matches_all_bins(dense, readout)


def looped_global_max(dense, kernel):
    """``global_max_potential`` as it was summed before it took each bin's
    dgemm directly: per busy bin, ``conv_accumulate`` into zeroed (maps, H',
    W') potentials, then the max over axes (1, 2)."""
    t_bins, _, h, w = dense.shape
    total = np.zeros(kernel.maps_out)
    potentials = np.zeros((kernel.maps_out, h - kernel.k + 1, w - kernel.k + 1))
    for t in np.flatnonzero(dense.reshape(t_bins, -1).any(axis=1)):
        potentials[:] = 0.0
        conv_accumulate(dense[t], kernel.weights, potentials)
        total += potentials.max(axis=(1, 2))
    return total


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_global_max_potential_keeps_the_old_loops_bits(data):
    k = data.draw(st.integers(1, 5), label="k")
    h, w = (data.draw(st.integers(k, 12)) for _ in range(2))
    maps_in = data.draw(st.integers(1, 8), label="maps_in")
    maps = data.draw(st.integers(1, 60), label="maps")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    density = data.draw(st.sampled_from([0.02, 0.1, 0.5]), label="density")
    dense = rng.random((data.draw(st.integers(1, 6)), maps_in, h, w)) < density
    kernel = ConvKernel(rng.random((maps, maps_in, k, k)))
    want = looped_global_max(dense, kernel)
    got = global_max_potential(dense, kernel, core.readout_columns(kernel))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_global_max_potential_checks_its_input():
    kernel = ConvKernel(np.full((3, 2, 5, 5), 0.5))
    columns = core.readout_columns(kernel)
    with pytest.raises(ValueError, match="maps_in"):
        global_max_potential(np.zeros((4, 3, 9, 9), dtype=bool), kernel, columns)
    with pytest.raises(ValueError, match="exceeds"):
        global_max_potential(np.zeros((4, 2, 4, 9), dtype=bool), kernel, columns)


@pytest.mark.parametrize("threshold, visits", [(4.0, [True] * 5)])
def test_per_bin_loops_visit_only_busy_bins(monkeypatch, threshold, visits):
    """A silent bin adds nothing, so the per-bin loop does not accumulate it."""
    from spikecnn import train

    calls = []
    real = train.conv_accumulate

    def counting(spikes_bin, *args):
        calls.append(spikes_bin.any())
        return real(spikes_bin, *args)

    monkeypatch.setattr(train, "conv_accumulate", counting)
    rng = np.random.default_rng(16)
    dense = rng.random((9, 2, 12, 12)) < 0.2
    dense[[0, 3, 7, 8]] = False
    kernel = init_kernel(4, 2, 5, rng)
    cfg = InhibitionConfig(threshold=threshold, competition_radius=1)
    train._train_image_per_bin(dense, kernel, cfg, fresh_state(4, 8, 8))
    assert calls == visits


class TestKernelCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        k = ConvKernel(rng.uniform(0, 1, size=(30, 2, 5, 5)), a_plus=0.016, a_minus=0.012)
        p1 = tmp_path / "k1.skrn"
        save_kernel(p1, k)
        back = load_kernel(p1)
        np.testing.assert_array_equal(back.weights, k.weights)
        assert back.a_plus == k.a_plus and back.a_minus == k.a_minus
        p2 = tmp_path / "k2.skrn"
        save_kernel(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.skrn"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_kernel(p)

    @pytest.mark.parametrize("shape", [(3, 2, 5, 4), (0, 2, 5, 5)])
    def test_empty_or_non_square_weights(self, tmp_path, shape):
        p = tmp_path / "k.skrn"
        container.write(p, core.KERNEL_MAGIC, ("<5I2d", core.KERNEL_VERSION, *shape, 0.004, 0.003),
                        np.full(shape, 0.5))
        with pytest.raises(ValueError, match="k, k"):
            load_kernel(p)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(9)
        k = ConvKernel(rng.uniform(0, 1, size=(2, 2, 3, 3)))
        p = tmp_path / "k.skrn"
        save_kernel(p, k)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_kernel(p)

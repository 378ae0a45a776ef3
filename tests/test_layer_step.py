"""The training layer step against the straightforward implementation.

The oracles are the layer step written plainly: ``tensordot`` over the
``sliding_window_view`` rows that hold a spike for the convolution, a dense
``argmax`` over maps for lateral inhibition, a per-map Python loop for the
competition candidates and a ``train_image`` that fires on every bin.  The
package's layer step must agree with them byte for byte: potentials, spikes,
winners, layer state, trained weights and monitor samples.  Both paths run in
the same process, so no golden hash pins the BLAS build.

Skipping the silent rows changes which dgemm the BLAS runs, so with raw
weights the bits may differ from the all-rows ``tensordot`` (the BLAS may
block the longer sum and round its parts in another order).  With dyadic
weights every partial sum is exact, and the convolution must then equal the
all-rows ``tensordot`` bit for bit as well.

``train.train_image`` first tries the candidate pass ``core.train_certified``
and falls back to its per-bin loop; ``counting_paths`` records which way each
image went, and which decision the pass refused, so the tests can require
both ways and each fallback rule.
"""

import contextlib
import copy
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn import core, train
from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, depress_map, fire_and_inhibit,
                           homeostasis_gate, init_kernel, stdp_competition,
                           stdp_update)
from spikecnn.encode import SpikeTensor


def windows(spikes_bin, k):
    """(maps_in, H-k+1, W-k+1, k, k) float64 sliding windows of one bin."""
    return np.lib.stride_tricks.sliding_window_view(
        spikes_bin.astype(np.float64), (k, k), axis=(1, 2))


def oracle_conv_accumulate(spikes_bin, weights, potentials):
    """``tensordot`` over the im2col rows (c, dy, dx) that hold a spike."""
    maps, _, k, _ = weights.shape
    if not spikes_bin.any():
        return potentials
    cols = windows(spikes_bin, k).transpose(0, 3, 4, 1, 2).reshape(-1, potentials[0].size)
    rows = np.flatnonzero(cols.any(axis=1))
    potentials += np.tensordot(weights.reshape(maps, -1)[:, rows], cols[rows],
                               axes=1).reshape(potentials.shape)
    return potentials


def all_rows_tensordot(spikes_bin, weights, potentials):
    """The convolution as first written: ``tensordot`` over every window row."""
    k = weights.shape[2]
    potentials += np.tensordot(weights, windows(spikes_bin, k), axes=([1, 2, 3], [0, 3, 4]))
    return potentials


def dyadic(weights):
    """Weights rounded to multiples of 2**-10: every partial sum is exact."""
    return np.round(weights * 1024.0) / 1024.0


def oracle_fire_and_inhibit(potentials, state, cfg):
    eligible = (potentials > cfg.threshold) & ~state.fired
    if cfg.lateral_inhibition:
        eligible &= ~state.location_locked[None, :, :]
    if not eligible.any():
        return np.zeros_like(eligible)
    if cfg.lateral_inhibition:
        masked = np.where(eligible, potentials, -np.inf)
        winner_map = masked.argmax(axis=0)
        any_here = eligible.any(axis=0)
        fired_now = np.zeros_like(eligible)
        uu, vv = np.nonzero(any_here)
        fired_now[winner_map[uu, vv], uu, vv] = True
        state.location_locked |= any_here
    else:
        fired_now = eligible
    state.fired |= fired_now
    return fired_now


def oracle_stdp_competition(fired_now, potentials, state, radius):
    winners = []
    cands = []
    for m in range(fired_now.shape[0]):
        if state.map_updated[m] or not fired_now[m].any():
            continue
        idx = int(np.where(fired_now[m], potentials[m], -np.inf).argmax())
        u, v = divmod(idx, fired_now.shape[2])
        cands.append((-potentials[m, u, v], m, u, v))
    cands.sort()
    span = 2 * radius
    for _, m, u, v in cands:
        if any(abs(u - pu) <= span and abs(v - pv) <= span
               for pu, pv in state.winner_positions):
            continue
        winners.append((m, u, v))
        state.winner_positions.append((u, v))
        state.map_updated[m] = True
    return winners


def oracle_train_image(dense, kernel, cfg, state):
    state.begin_image()
    potentials = np.zeros(state.out_shape)
    input_cum = np.zeros(dense.shape[1:], dtype=bool)
    k = kernel.k
    n_spikes = 0
    for t in range(dense.shape[0]):
        input_cum |= dense[t]
        oracle_conv_accumulate(dense[t], kernel.weights, potentials)
        fired = oracle_fire_and_inhibit(potentials, state, cfg)
        if not fired.any():
            continue
        n_spikes += int(fired.sum())
        for m, u, v in oracle_stdp_competition(fired, potentials, state,
                                               cfg.competition_radius):
            if homeostasis_gate(state, m):
                stdp_update(kernel, m, input_cum[:, u:u + k, v:v + k])
            else:
                depress_map(kernel, m)
    state.images_seen += 1
    return n_spikes


def assert_bytes_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_states_equal(got, want):
    for name in ("fired", "location_locked", "map_updated", "homeo_counts"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.winner_positions == want.winner_positions
    assert got.images_seen == want.images_seen


# Weights on a quarter grid make potentials exact multiples of 0.25, so maps
# tie and potentials land exactly on the threshold.
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def geometry(draw):
    maps = draw(st.sampled_from([1, 1, 2, 3, 5]))
    maps_in = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 1, 2, 3, 4]))
    h = draw(st.sampled_from([k, k, k + 1, k + 3, k + 7]))  # k == H often
    w = draw(st.sampled_from([k, k + 2, k + 6]))
    elements = QUARTERS if draw(st.booleans()) else st.floats(0.0, 1.0)
    weights = draw(hnp.arrays(np.float64, (maps, maps_in, k, k), elements=elements))
    if maps > 1 and draw(st.booleans()):
        weights[-1] = weights[0]  # identical maps tie everywhere
    return maps, maps_in, k, h, w, weights


@settings(max_examples=200, deadline=None)
@given(geometry(), st.data())
def test_conv_accumulate_matches_tensordot(geo, data):
    maps, maps_in, k, h, w, weights = geo
    if data.draw(st.booleans()):  # float spike counts, as a sum over bins
        spikes = data.draw(hnp.arrays(np.float64, (maps_in, h, w),
                                      elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5])))
    else:
        spikes = data.draw(hnp.arrays(np.bool_, (maps_in, h, w)))
    start = data.draw(hnp.arrays(np.float64, (maps, h - k + 1, w - k + 1),
                                 elements=st.floats(0.0, 20.0)))
    got, want = start.copy(), start.copy()
    assert conv_accumulate(spikes, weights, got) is got
    oracle_conv_accumulate(spikes, weights, want)
    assert_bytes_equal(got, want)
    # On dyadic weights skipping the silent rows cannot move a bit
    got, want = start.copy(), start.copy()
    conv_accumulate(spikes, dyadic(weights), got)
    all_rows_tensordot(spikes, dyadic(weights), want)
    assert_bytes_equal(got, want)


def test_conv_accumulate_reference_and_layer2_shapes():
    rng = np.random.default_rng(3)
    for maps, maps_in, k, size, rate in [(30, 2, 5, 27, 0.05), (500, 30, 5, 11, 0.02),
                                         (1, 1, 1, 6, 0.5)]:
        weights = init_kernel(maps, maps_in, k, rng).weights
        for w, oracle in [(weights, oracle_conv_accumulate), (dyadic(weights), all_rows_tensordot)]:
            got = np.zeros((maps, size - k + 1, size - k + 1))
            want = got.copy()
            for _ in range(12):
                spikes = rng.random((maps_in, size, size)) < rate
                conv_accumulate(spikes, w, got)
                oracle(spikes, w, want)
                assert_bytes_equal(got, want)


def test_conv_accumulate_ignores_the_spike_layout():
    rng = np.random.default_rng(4)
    weights = init_kernel(4, 3, 3, rng).weights
    spikes = rng.random((3, 12, 12)) < 0.2
    want = oracle_conv_accumulate(spikes, weights, np.zeros((4, 10, 10)))
    wide = np.zeros((3, 12, 24), dtype=bool)
    wide[:, :, ::2] = spikes
    for layout in (np.asfortranarray(spikes), spikes.transpose(2, 1, 0).copy().transpose(2, 1, 0),
                   wide[:, :, ::2], spikes.astype(np.float64)):
        assert_bytes_equal(conv_accumulate(layout, weights, np.zeros((4, 10, 10))), want)


@pytest.mark.parametrize("h,w", [(4, 6), (6, 4)])
def test_conv_accumulate_rejects_a_kernel_larger_than_its_input(h, w):
    with pytest.raises(ValueError, match="exceeds"):
        conv_accumulate(np.ones((1, h, w), dtype=bool), np.ones((2, 1, 5, 5)),
                        np.zeros((2, h - 4, w - 4)))


@st.composite
def layer_cases(draw):
    maps, maps_in, k, h, w, weights = draw(geometry())
    n_images = draw(st.integers(1, 4))
    t_bins = draw(st.integers(1, 6))
    images = draw(st.lists(hnp.arrays(np.bool_, (t_bins, maps_in, h, w)),
                           min_size=n_images, max_size=n_images))
    threshold = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.75]))
    cfg = InhibitionConfig(threshold=threshold,
                           competition_radius=draw(st.sampled_from([0, 1, 5])),
                           lateral_inhibition=draw(st.booleans()))
    return images, ConvKernel(weights, a_plus=0.1, a_minus=0.08), cfg


def run_layer(step, images, kernel, cfg):
    t_bins, c, h, w = images[0].shape
    state = LayerState(kernel.maps_out, h - kernel.k + 1, w - kernel.k + 1,
                       homeo_window=2, homeo_limit=1)
    spikes = [step(dense, kernel, cfg, state) for dense in images]
    return spikes, state


@contextlib.contextmanager
def counting_paths():
    """Counts of the ways ``train.train_image`` takes its images: certified
    by ``core.train_certified``, sent by it to the per-bin fallback (counted
    under the name of the decision it refused too), or sent straight to the
    per-bin loop by the input rule."""
    paths = Counter()
    certified, per_bin = train.train_certified, train._train_image_per_bin
    replay = core._replay_decisions
    tried = []

    def naming_refusals(*args):
        try:
            return replay(*args)
        except core._Refused as refused:
            paths[str(refused)] += 1
            raise

    def counting_certified(*args):
        tried.append(True)
        n_spikes = certified(*args)
        paths["certified" if n_spikes is not None else "fallback"] += 1
        return n_spikes

    def counting_per_bin(*args):
        if not tried:
            paths["per_bin"] += 1
        tried.clear()
        return per_bin(*args)

    with mock.patch.object(train, "train_certified", counting_certified), \
            mock.patch.object(train, "_train_image_per_bin", counting_per_bin), \
            mock.patch.object(core, "_replay_decisions", naming_refusals):
        yield paths


def test_train_image_matches_oracle():
    paths = Counter()

    @settings(max_examples=200, deadline=None)
    @given(layer_cases())
    def check(case):
        images, kernel, cfg = case
        got_kernel, want_kernel = kernel.copy(), kernel.copy()
        with counting_paths() as seen:
            got_spikes, got_state = run_layer(train.train_image, images, got_kernel, cfg)
        want_spikes, want_state = run_layer(oracle_train_image, images, want_kernel, cfg)
        assert got_spikes == want_spikes
        assert_bytes_equal(got_kernel.weights, want_kernel.weights)
        assert_states_equal(got_state, want_state)
        paths.update(seen)

    check()
    # the examples exercise the candidate pass, its fallback and the input rule
    assert paths["certified"] and paths["fallback"] and paths["per_bin"], paths


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fire_and_competition_match_oracles(data):
    maps = data.draw(st.sampled_from([1, 2, 5, 30]))
    h = data.draw(st.integers(1, 9))
    w = data.draw(st.integers(1, 9))
    shape = (maps, h, w)
    potentials = data.draw(hnp.arrays(np.float64, shape, elements=QUARTERS))
    cfg = InhibitionConfig(threshold=data.draw(st.sampled_from([0.0, 0.25, 0.5])),
                           lateral_inhibition=data.draw(st.booleans()))
    radius = data.draw(st.sampled_from([0, 1, 5]))
    got = LayerState(maps, h, w)
    got.fired = data.draw(hnp.arrays(np.bool_, shape))
    got.location_locked = data.draw(hnp.arrays(np.bool_, (h, w)))
    got.map_updated = data.draw(hnp.arrays(np.bool_, maps))
    got.winner_positions = data.draw(st.lists(st.tuples(st.integers(0, h - 1),
                                                        st.integers(0, w - 1)), max_size=3))
    want = LayerState(maps, h, w)
    for name in ("fired", "location_locked", "map_updated"):
        setattr(want, name, getattr(got, name).copy())
    want.winner_positions = list(got.winner_positions)

    fired = fire_and_inhibit(potentials, got, cfg)
    assert_bytes_equal(fired, oracle_fire_and_inhibit(potentials, want, cfg))
    assert_states_equal(got, want)
    # any fired plane, not only one fire_and_inhibit could emit
    plane = data.draw(hnp.arrays(np.bool_, shape))
    assert (stdp_competition(plane, potentials, got, radius)
            == oracle_stdp_competition(plane, potentials, want, radius))
    assert_states_equal(got, want)


@pytest.mark.parametrize("lateral", [True, False])
def test_layer2_shape_matches_oracle(lateral):
    # 500 maps over 30 pooled 11x11 input maps, as the second layer trains
    rng = np.random.default_rng(11)
    kernel = init_kernel(500, 30, 5, rng)
    cfg = InhibitionConfig(threshold=10.0, lateral_inhibition=lateral)
    images = [rng.random((12, 30, 11, 11)) < 0.01 for _ in range(6)]
    got_kernel, want_kernel = kernel.copy(), kernel.copy()
    got_spikes, got_state = run_layer(train.train_image, images, got_kernel, cfg)
    want_spikes, want_state = run_layer(oracle_train_image, images, want_kernel, cfg)
    assert got_spikes == want_spikes and sum(got_spikes) > 0
    assert_bytes_equal(got_kernel.weights, want_kernel.weights)
    assert_states_equal(got_state, want_state)


@pytest.mark.parametrize("radius,lateral", [(5, True), (0, True), (5, False)])
def test_train_conv_layer_matches_oracle(monkeypatch, radius, lateral):
    # The reference geometry: 30 maps of 5x5 over 27x27 ON/OFF input.
    rng = np.random.default_rng(4)
    dataset = []
    for _ in range(15):
        dense = rng.random((12, 2, 27, 27)) < rng.uniform(0.01, 0.05)
        dense[10:] = False  # silent bins
        dataset.append(SpikeTensor.from_dense(dense))
    kernel = init_kernel(30, 2, 5, rng)
    cfg = InhibitionConfig(threshold=15.0, competition_radius=radius,
                           lateral_inhibition=lateral)
    plan = train.TrainPlan(n_images=40, monitor_stride=10)

    def fit():
        trained = kernel.copy()
        monitor = train.train_conv_layer(plan, dataset, trained, cfg, rate_doubling_every=20)
        return trained, monitor

    got_kernel, got_monitor = fit()
    monkeypatch.setattr(train, "train_image", oracle_train_image)
    want_kernel, want_monitor = fit()
    assert_bytes_equal(got_kernel.weights, want_kernel.weights)
    assert (got_kernel.a_plus, got_kernel.a_minus) == (want_kernel.a_plus, want_kernel.a_minus)
    assert np.array(got_monitor.samples).tobytes() == np.array(want_monitor.samples).tobytes()
    assert len(got_monitor.samples) == 4


def check_one_image(dense, kernel, cfg):
    """``train.train_image`` on one image against the oracle; returns how the
    image was taken (see ``counting_paths``) and the layer state."""
    got_kernel, want_kernel = kernel.copy(), kernel.copy()
    with counting_paths() as seen:
        got_spikes, got_state = run_layer(train.train_image, [dense], got_kernel, cfg)
    want_spikes, want_state = run_layer(oracle_train_image, [dense], want_kernel, cfg)
    assert got_spikes == want_spikes
    assert_bytes_equal(got_kernel.weights, want_kernel.weights)
    assert_states_equal(got_state, want_state)
    return seen, got_state


def two_location_case():
    """One map of 1x1 weights 0.5 over one channel and one bin; two
    locations spike, so both potentials are exactly 0.5."""
    dense = np.zeros((1, 1, 1, 4), dtype=bool)
    dense[0, 0, 0, [0, 2]] = True
    return dense, ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.1, a_minus=0.08)


@pytest.mark.parametrize("lateral", [True, False])
def test_two_positions_of_one_map_tied_take_the_fallback(lateral):
    dense, kernel = two_location_case()
    cfg = InhibitionConfig(threshold=0.25, competition_radius=0, lateral_inhibition=lateral)
    seen, state = check_one_image(dense, kernel, cfg)
    assert seen == {"fallback": 1, "a map's best spike": 1}
    assert state.winner_positions == [(0, 0)]  # the first in row-major order


def test_tie_below_a_maps_best_spike_is_certified():
    # Locations 0 and 2 tie at 0.5, but location 4, on both channels, is
    # the map's best at 1.0: the tie decides nothing
    dense = np.zeros((1, 2, 1, 5), dtype=bool)
    dense[0, 0, 0, [0, 2, 4]] = dense[0, 1, 0, 4] = True
    kernel = ConvKernel(np.full((1, 2, 1, 1), 0.5), a_plus=0.1, a_minus=0.08)
    cfg = InhibitionConfig(threshold=0.25, competition_radius=0)
    seen, state = check_one_image(dense, kernel, cfg)
    assert seen == {"certified": 1}
    assert state.winner_positions == [(0, 4)]


@pytest.mark.parametrize("threshold", [0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)])
def test_potential_on_or_next_to_the_threshold_takes_the_fallback(threshold):
    # 0.5 is exact, but another summation order could round it to a neighbour
    dense, kernel = two_location_case()
    cfg = InhibitionConfig(threshold=threshold, competition_radius=0)
    assert check_one_image(dense, kernel, cfg)[0] == {"fallback": 1, "threshold": 1}


def test_potentials_clear_of_the_threshold_are_certified():
    # one location spikes in bin 0 and two in bin 1, after the map updated:
    # no two potentials are compared
    dense = np.zeros((2, 1, 1, 5), dtype=bool)
    dense[0, 0, 0, 0] = dense[1, 0, 0, 2] = dense[1, 0, 0, 4] = True
    kernel = ConvKernel(np.full((1, 1, 1, 1), 0.5), a_plus=0.1, a_minus=0.08)
    for threshold in (0.25, 0.75):
        cfg = InhibitionConfig(threshold=threshold, competition_radius=0)
        assert check_one_image(dense, kernel, cfg)[0] == {"certified": 1}


def margin_case():
    """Location 0 spikes on both channels in bin 0 and locations 2, 4 and 6
    on channel 0 in bin 1, under one map of 1x1 weights 0.5 with a_plus 1.
    Location 0 reaches 1.0 in bin 0; if it fires and its map wins, both
    weights go from 0.5 to 0.75.  The other locations reach 0.5 under the
    first weights, and 0.75 under the updated ones."""
    dense = np.zeros((2, 2, 1, 7), dtype=bool)
    dense[0, :, 0, 0] = True
    dense[1, 0, 0, [2, 4, 6]] = True
    return dense, ConvKernel(np.full((1, 2, 1, 1), 0.5), a_plus=1.0, a_minus=0.08)


@pytest.mark.parametrize("lateral", [True, False])
def test_updated_map_reaches_positions_only_the_margin_keeps(lateral):
    # At threshold 0.6 locations 2, 4 and 6 fire only after the update; only
    # the a_plus/4 margin keeps them among the candidate positions
    dense, kernel = margin_case()
    cfg = InhibitionConfig(threshold=0.6, competition_radius=0, lateral_inhibition=lateral)
    seen, state = check_one_image(dense, kernel, cfg)
    assert seen == {"certified": 1}
    np.testing.assert_array_equal(state.fired.ravel(), [1, 0, 1, 0, 1, 0, 1])


def test_update_landing_a_potential_on_the_threshold_takes_the_fallback():
    # at threshold 0.75 the update lands locations 2, 4 and 6 on it exactly,
    # which only the recomputed trajectories show
    dense, kernel = margin_case()
    cfg = InhibitionConfig(threshold=0.75, competition_radius=0)
    assert check_one_image(dense, kernel, cfg)[0] == {"fallback": 1,
                                                      "threshold after an update": 1}


def two_map_case():
    """Map 0 reads channel 0 and map 1 channel 1, each with weight 0.5."""
    weights = np.zeros((2, 2, 1, 1))
    weights[0, 0] = weights[1, 1] = 0.5
    return ConvKernel(weights, a_plus=0.1, a_minus=0.08)


def test_tied_candidates_of_two_maps_take_the_fallback():
    # Both maps reach 0.5 in bin 0 at neighbouring locations: which one is
    # ranked first, and so wins, rests on a tie.  Map 0's spikes in bin 1
    # only bring the input above one event per bin and map.
    dense = np.zeros((2, 2, 1, 4), dtype=bool)
    dense[0, 0, 0, 0] = dense[0, 1, 0, 1] = True
    dense[1, 0, 0, [0, 2, 3]] = True
    cfg = InhibitionConfig(threshold=0.25, competition_radius=1)
    assert check_one_image(dense, two_map_case(), cfg)[0] == {
        "fallback": 1, "the competition's ranking": 1}


def test_fallback_after_an_update_restores_kernel_and_homeostasis():
    # Map 0 wins in bin 0 and updates; in bin 1 map 1 ties at two locations,
    # so the image falls back.  The first image leaves the homeostasis window
    # open, so a count the pass forgot to restore would turn map 0's second
    # update into a depression.
    tie = np.zeros((2, 2, 1, 7), dtype=bool)
    tie[0, 0, 0, 0] = True
    tie[1, 0, 0, [1, 2]] = True
    tie[1, 1, 0, [4, 6]] = True
    images = [np.zeros_like(tie), tie]
    kernel = two_map_case()
    cfg = InhibitionConfig(threshold=0.25, competition_radius=0)
    got_kernel, want_kernel = kernel.copy(), kernel.copy()
    with counting_paths() as seen:
        got_spikes, got_state = run_layer(train.train_image, images, got_kernel, cfg)
    want_spikes, want_state = run_layer(oracle_train_image, images, want_kernel, cfg)
    assert seen == {"per_bin": 1, "fallback": 1, "a map's best spike": 1}
    assert got_spikes == want_spikes
    assert_bytes_equal(got_kernel.weights, want_kernel.weights)
    assert_states_equal(got_state, want_state)


def test_tied_maps_at_one_location_take_the_fallback():
    # identical maps cross together at the one location that spikes twice:
    # which one fires rests on a tie
    dense = np.zeros((2, 1, 1, 3), dtype=bool)
    dense[:, 0, 0, 0] = True
    dense[0, 0, 0, 2] = True  # stays at 0.5, below the threshold
    kernel = ConvKernel(np.full((2, 1, 1, 1), 0.5), a_plus=0.1, a_minus=0.08)
    cfg = InhibitionConfig(threshold=0.75, competition_radius=0)
    assert check_one_image(dense, kernel, cfg)[0] == {"fallback": 1, "inhibition": 1}


def test_input_rule_keeps_few_spikes_over_many_maps_per_bin():
    # A second layer reads about 13 pooled spikes over 30 maps and 12 bins:
    # per bin.  More events per bin than maps go to the candidate pass.
    rng = np.random.default_rng(12)
    kernel = init_kernel(4, 30, 5, rng)
    cfg = InhibitionConfig(threshold=3.0)
    for n_events, way in ((13, "per_bin"), (360, "per_bin"), (361, None)):
        dense = np.zeros((12, 30, 11, 11), dtype=bool)
        dense.flat[rng.choice(dense.size, n_events, replace=False)] = True
        seen, _ = check_one_image(dense, kernel, cfg)
        assert (seen == {way: 1}) if way else ("per_bin" not in seen), (n_events, seen)



def too_close(maps, potential, state, gap):
    """The decision the gap cannot make, or None: among the maps not yet
    updated, a map's best two potentials within ``gap``, else two
    neighbours in the ranking of the maps' best within it."""
    best = []
    for m in sorted(set(maps.tolist()) - set(np.flatnonzero(state.map_updated).tolist())):
        mine = sorted(potential[maps == m], reverse=True)
        if len(mine) > 1 and mine[0] - mine[1] <= gap:
            return "a map's best spike"
        best.append(mine[0])
    best.sort(reverse=True)
    if any(a - b <= gap for a, b in zip(best, best[1:])):
        return "the competition's ranking"
    return None


def test_competition_with_a_gap_picks_the_same_winners_or_none():
    """The competition with a gap, as the training pass runs it, against the
    same rule without one, as the per-bin loop runs it: the same winners, or
    the refusal of the decision too close for the gap, with ``state``
    untouched."""
    outcomes = Counter()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        maps = data.draw(st.sampled_from([1, 2, 5, 30]))
        h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        shape = (maps, h, w)
        idx = np.flatnonzero(data.draw(hnp.arrays(np.bool_, shape)))
        potentials = data.draw(hnp.arrays(np.float64, shape, elements=QUARTERS))
        radius = data.draw(st.sampled_from([0, 1, 5]))
        gap = data.draw(st.sampled_from([0.0, 0.25, 0.5]))
        state = LayerState(maps, h, w)
        state.map_updated = data.draw(hnp.arrays(np.bool_, maps))
        state.winner_positions = data.draw(st.lists(st.tuples(st.integers(0, h - 1),
                                                              st.integers(0, w - 1)), max_size=3))
        maps_of, pos = np.divmod(idx, h * w)
        potential = potentials.flat[idx]
        spikes = list(zip(maps_of.tolist(), pos.tolist(), potential.tolist()))
        before, plain = copy.deepcopy(state), copy.deepcopy(state)
        want = core._competition(spikes, plain, radius, w, -np.inf)
        try:
            got = core._competition(spikes, state, radius, w, gap)
        except core._Refused as refused:
            assert str(refused) == too_close(maps_of, potential, before, gap)
            assert_states_equal(state, before)
            outcomes[str(refused)] += 1
            return
        assert too_close(maps_of, potential, before, gap) is None
        assert got == want
        assert_states_equal(state, plain)
        outcomes["winners" if got else "no winner"] += 1

    check()
    refused = outcomes["a map's best spike"] + outcomes["the competition's ranking"]
    assert refused and outcomes["winners"] and outcomes["no winner"], outcomes

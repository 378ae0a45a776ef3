"""Classifier-head tests: FCN gradients and training, reward-modulated
updates, hit/miss bookkeeping, dropout, and feature export."""

import numpy as np
import pytest

from spikecnn.heads import (FcnHead, FeatureMatrix, RstdpHead,
                            draw_dropout_mask, export_features, fcn_cost,
                            fcn_accuracy, fcn_forward, fcn_gradients, fcn_minibatches,
                            fcn_predict, fcn_train_epoch, import_features,
                            init_fcn_head, init_rstdp_head, load_head, one_hot,
                            rstdp_accuracy, rstdp_decide, rstdp_potentials,
                            rstdp_predict, rstdp_train_pass, rstdp_update,
                            save_head,
                            shift_scale_init, update_hit_miss)


def numerical_gradients(head, x, y, n_total, eps=1e-6):
    """Central finite differences on the cost (test oracle)."""
    gw = np.zeros_like(head.weights)
    gb = np.zeros_like(head.biases)
    for idx in np.ndindex(*head.weights.shape):
        orig = head.weights[idx]
        head.weights[idx] = orig + eps
        hi = fcn_cost(head, x, y, n_total)
        head.weights[idx] = orig - eps
        lo = fcn_cost(head, x, y, n_total)
        head.weights[idx] = orig
        gw[idx] = (hi - lo) / (2 * eps)
    for i in range(head.biases.size):
        orig = head.biases[i]
        head.biases[i] = orig + eps
        hi = fcn_cost(head, x, y, n_total)
        head.biases[i] = orig - eps
        lo = fcn_cost(head, x, y, n_total)
        head.biases[i] = orig
        gb[i] = (hi - lo) / (2 * eps)
    return gw, gb


class TestFcnForward:
    def test_zero_parameters_give_half(self):
        head = FcnHead(np.zeros((4, 6)), np.zeros(4))
        out = fcn_forward(head, np.ones(6))
        np.testing.assert_allclose(out, 0.5)

    def test_one_hot_alignment(self):
        w = np.zeros((3, 3))
        w[2, 2] = 5.0
        head = FcnHead(w, np.zeros(3))
        x = np.array([0.0, 0.0, 1.0])
        assert fcn_predict(head, x[None, :])[0] == 2

    def test_argmax_tie_lowest_index(self):
        head = FcnHead(np.zeros((4, 2)), np.zeros(4))
        assert fcn_predict(head, np.ones((1, 2)))[0] == 0

    def test_dimension_mismatch(self):
        head = FcnHead(np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ValueError):
            fcn_forward(head, np.ones(4))


class TestFcnGradients:
    @pytest.mark.parametrize("cost", ["cross_entropy", "quadratic"])
    def test_matches_finite_differences(self, cost):
        rng = np.random.default_rng(0)
        for _ in range(5):
            head = init_fcn_head(5, 3, rng, cost=cost, lam=rng.uniform(0, 2))
            x = rng.normal(size=(7, 5))
            y = one_hot(rng.integers(0, 3, size=7), 3)
            gw, gb = fcn_gradients(head, x, y, n_total=20)
            nw, nb = numerical_gradients(head, x, y, n_total=20)
            scale = np.maximum(np.abs(nw), 1e-8)
            assert np.max(np.abs(gw - nw) / scale) < 1e-5
            assert np.max(np.abs(gb - nb) / np.maximum(np.abs(nb), 1e-8)) < 1e-5

    def test_zero_error_means_zero_gradient(self):
        rng = np.random.default_rng(1)
        head = init_fcn_head(4, 3, rng, cost="quadratic", lam=0.0)
        x = rng.normal(size=(5, 4))
        y = fcn_forward(head, x)  # targets equal to activations
        gw, gb = fcn_gradients(head, x, y, n_total=5)
        np.testing.assert_allclose(gw, 0.0, atol=1e-15)
        np.testing.assert_allclose(gb, 0.0, atol=1e-15)


class TestFcnTraining:
    def test_learns_separable_toy_data(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(scale=4.0, size=(3, 8))
        labels = np.repeat(np.arange(3), 40)
        x = centers[labels] + rng.normal(scale=0.3, size=(120, 8))
        data = FeatureMatrix(x, labels)
        head = init_fcn_head(8, 3, rng, eta0=0.5, lam=0.0)
        for epoch in range(15):
            fcn_train_epoch(head, data, batch=10, epoch=epoch, rng=rng)
        assert fcn_accuracy(head, data) > 0.95

    def test_eta_schedule(self):
        head = FcnHead(np.zeros((2, 2)), np.zeros(2), eta0=0.1, eta_decay=1.007)
        assert head.eta(0) == pytest.approx(0.1)
        assert head.eta(10) == pytest.approx(0.1 / 1.007**10)

    def test_empty_data_rejected(self):
        head = FcnHead(np.zeros((2, 3)), np.zeros(2))
        data = FeatureMatrix(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            fcn_train_epoch(head, data, 4, 0, np.random.default_rng(0))


class TestRstdpPotentials:
    def test_equal_weights_tie_to_lowest(self):
        head = RstdpHead(np.full((5, 4), 0.5))
        v = rstdp_potentials(head, np.ones(4))
        winner, cls = rstdp_decide(head, v)
        assert winner == 0 and cls == 0

    def test_single_input_construction(self):
        w = np.zeros((3, 4))
        w[1, 2] = 1.0
        head = RstdpHead(w)
        counts = np.zeros(4)
        counts[2] = 1.0
        v = rstdp_potentials(head, counts)
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0])

    def test_counts_weighted_across_bins(self):
        head = RstdpHead(np.array([[0.25, 0.5]]))
        v = rstdp_potentials(head, np.array([2.0, 3.0]))  # summed over bins
        assert v[0] == pytest.approx(2.0)

    def test_neurons_per_class_decision(self):
        w = np.zeros((6, 2))
        w[4, 0] = 1.0
        head = RstdpHead(w, neurons_per_class=2)
        _, cls = rstdp_decide(head, rstdp_potentials(head, np.array([1.0, 0.0])))
        assert cls == 2

    def test_random_init_near_chance(self):
        rng = np.random.default_rng(3)
        head = init_rstdp_head(50, 10, rng)  # mean 0.8, std 0.01
        x = rng.poisson(2.0, size=(500, 50)).astype(float)
        labels = rng.integers(0, 10, size=500)
        acc = rstdp_accuracy(head, FeatureMatrix(x, labels))
        assert 0.0 <= acc < 0.25


class TestRstdpUpdate:
    def test_reward_potentiation_value(self):
        head = RstdpHead(np.full((2, 3), 0.8), miss_ratio=0.1, a_r_plus=0.004)
        rstdp_update(head, winner=0, label=0, presyn_spiked=np.array([True, False, False]))
        assert head.weights[0, 0] - 0.8 == pytest.approx(6.4e-5, rel=1e-9)
        # silent input on the winner row is depressed
        assert head.weights[0, 1] < 0.8

    def test_zero_miss_ratio_freezes_reward(self):
        head = RstdpHead(np.full((2, 3), 0.6), miss_ratio=0.0)
        before = head.weights.copy()
        rstdp_update(head, 0, 0, np.array([True, True, False]))
        np.testing.assert_array_equal(head.weights, before)

    def test_punishment_branches(self):
        head = RstdpHead(np.full((2, 3), 0.5), miss_ratio=0.1,
                         a_p_plus=0.0005, a_p_minus=0.004)
        rstdp_update(head, winner=0, label=1, presyn_spiked=np.array([True, False, False]))
        assert head.weights[0, 0] == pytest.approx(0.5 - 0.9 * 0.0005 * 0.25)
        assert head.weights[0, 1] == pytest.approx(0.5 + 0.9 * 0.004 * 0.25)

    def test_saturated_weights_fixed(self):
        head = RstdpHead(np.array([[0.0, 1.0]]), miss_ratio=0.5)
        rstdp_update(head, 0, 0, np.array([True, True]))
        np.testing.assert_array_equal(head.weights, [[0.0, 1.0]])

    def test_only_winner_row_touched(self):
        head = RstdpHead(np.full((4, 3), 0.5), miss_ratio=0.5)
        before = head.weights.copy()
        rstdp_update(head, 2, 2, np.array([True, False, True]))
        np.testing.assert_array_equal(head.weights[[0, 1, 3]], before[[0, 1, 3]])

    def test_dropout_mask_blocks_update(self):
        head = RstdpHead(np.full((3, 2), 0.5), miss_ratio=0.5)
        before = head.weights.copy()
        mask = np.array([False, True, False])
        rstdp_update(head, 1, 1, np.array([True, True]), dropout_mask=mask)
        np.testing.assert_array_equal(head.weights, before)

    def test_interval_preserved(self):
        rng = np.random.default_rng(4)
        head = RstdpHead(rng.uniform(0, 1, size=(5, 20)), miss_ratio=0.7)
        for _ in range(2000):
            rstdp_update(head, int(rng.integers(5)), int(rng.integers(10)),
                         rng.random(20) < 0.3)
        assert head.weights.min() >= 0.0 and head.weights.max() <= 1.0


class TestHitMissBookkeeping:
    def test_batch_mode_updates_once_per_window(self):
        head = RstdpHead(np.full((2, 2), 0.5), ratio_mode="batch", window=100,
                         miss_ratio=0.5)
        for i in range(99):
            update_hit_miss(head, "miss" if i < 10 else "hit")
            assert head.miss_ratio == 0.5  # unchanged mid-batch
        update_hit_miss(head, "hit")
        assert head.miss_ratio == pytest.approx(0.1)

    def test_per_image_sliding_window(self):
        head = RstdpHead(np.full((2, 2), 0.5), ratio_mode="per_image", window=100,
                         miss_ratio=0.9)
        for _ in range(100):
            update_hit_miss(head, "hit")
        assert head.miss_ratio == 0.0
        update_hit_miss(head, "miss")
        assert head.miss_ratio == pytest.approx(0.01)

    def test_per_image_tracks_partial_window(self):
        head = RstdpHead(np.full((2, 2), 0.5), ratio_mode="per_image", window=100,
                         miss_ratio=0.9)
        update_hit_miss(head, "hit")
        assert head.miss_ratio == 0.0  # corrected from the first outcome on

    def test_counts_conserved(self):
        head = RstdpHead(np.full((2, 2), 0.5), ratio_mode="per_image", window=10)
        rng = np.random.default_rng(5)
        for _ in range(50):
            update_hit_miss(head, "hit" if rng.random() < 0.5 else "miss")
            assert 0.0 <= head.miss_ratio <= 1.0
            assert head.miss_ratio + head.hit_ratio == pytest.approx(1.0)

    def test_bad_outcome_rejected(self):
        head = RstdpHead(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            update_hit_miss(head, "draw")


class TestDropoutMask:
    def test_exact_count(self):
        mask = draw_dropout_mask(300, 0.4, np.random.default_rng(6))
        assert mask.sum() == 120

    def test_zero_probability_empty(self):
        assert draw_dropout_mask(50, 0.0, np.random.default_rng(7)).sum() == 0

    def test_seeded_replay(self):
        m1 = draw_dropout_mask(40, 0.25, np.random.default_rng(8))
        m2 = draw_dropout_mask(40, 0.25, np.random.default_rng(8))
        np.testing.assert_array_equal(m1, m2)
        rng = np.random.default_rng(8)
        a = draw_dropout_mask(40, 0.25, rng)
        b = draw_dropout_mask(40, 0.25, rng)
        assert not np.array_equal(a, b)  # consecutive draws differ

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            draw_dropout_mask(10, 1.0, np.random.default_rng(9))


class TestShiftScaleInit:
    def test_symmetric_example(self):
        out = shift_scale_init(np.array([[-2.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])

    def test_zero_min_divides_by_max(self):
        w = np.array([[0.0, 0.2, 0.8]])
        np.testing.assert_allclose(shift_scale_init(w), [[0.0, 0.25, 1.0]])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            shift_scale_init(np.full((3, 3), 0.7))

    def test_argmax_preserved_on_equal_mass_inputs(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(10, 30))
        w01 = shift_scale_init(w)
        for _ in range(50):
            x = rng.random(30)
            x = x / x.sum() * 7.0  # equal total mass across samples
            assert np.argmax(w @ x) == np.argmax(w01 @ x)


class TestFeatureExport:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        fm = FeatureMatrix(rng.normal(size=(2, 3)), np.array([7, 2]))
        p = tmp_path / "f.fmat"
        export_features(fm, p)
        back = import_features(p)
        np.testing.assert_array_equal(back.values, fm.values)
        np.testing.assert_array_equal(back.labels, fm.labels)
        p2 = tmp_path / "g.fmat"
        export_features(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [256, 300])
    def test_label_outside_u8_rejected_on_write(self, tmp_path, bad):
        # the u8 label column would store 300 as 44
        fm = FeatureMatrix(np.zeros((2, 1)), np.array([3, bad]))
        with pytest.raises(ValueError, match="255"):
            export_features(fm, tmp_path / "f.fmat")

    def test_truncated_header_is_value_error(self, tmp_path):
        p = tmp_path / "f.fmat"
        export_features(FeatureMatrix(np.zeros((2, 1)), np.array([0, 1])), p)
        p.write_bytes(p.read_bytes()[:8])  # cut inside the dims
        with pytest.raises(ValueError, match="truncated"):
            import_features(p)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[np.nan]]), np.array([0]))


class TestHeadCheckpoints:
    def test_fcn_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        head = init_fcn_head(6, 3, rng, cost="quadratic", eta0=0.2, lam=0.5)
        p = tmp_path / "h.skhd"
        save_head(p, head)
        back = load_head(p)
        assert isinstance(back, FcnHead)
        np.testing.assert_array_equal(back.weights, head.weights)
        np.testing.assert_array_equal(back.biases, head.biases)
        assert (back.cost, back.eta0, back.lam) == ("quadratic", 0.2, 0.5)

    def test_rstdp_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        head = init_rstdp_head(8, 6, rng, neurons_per_class=2, p_drop=0.25,
                               ratio_mode="per_image", window=50, miss_ratio=0.3)
        p = tmp_path / "r.skhd"
        save_head(p, head)
        back = load_head(p)
        assert isinstance(back, RstdpHead)
        np.testing.assert_array_equal(back.weights, head.weights)
        assert back.neurons_per_class == 2
        assert back.ratio_mode == "per_image"
        assert back.window == 50
        assert back.miss_ratio == 0.3
        assert back.p_drop == 0.25

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.skhd"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_head(p)

    @pytest.mark.parametrize("kind", ["fcn", "rstdp"])
    def test_unknown_aux_tag_rejected(self, tmp_path, kind):
        rng = np.random.default_rng(14)
        head = (init_fcn_head(4, 3, rng) if kind == "fcn"
                else init_rstdp_head(4, 3, rng, neurons_per_class=1))
        p = tmp_path / "h.skhd"
        save_head(p, head)
        buf = bytearray(p.read_bytes())
        buf[12:16] = (7).to_bytes(4, "little")  # cost / ratio-mode tag
        p.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match="tag"):
            load_head(p)


class TestHeadValidation:
    @pytest.mark.parametrize("field", ["weights", "biases", "eta0", "eta_decay", "lam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fcn_rejects_non_finite(self, field, bad):
        args = {"weights": np.zeros((2, 3)), "biases": np.zeros(2)}
        if field in args:
            args[field][-1] = bad
        else:
            args[field] = bad
        with pytest.raises(ValueError, match="finite"):
            FcnHead(**args)

    @pytest.mark.parametrize("field", ["a_r_plus", "a_r_minus", "a_p_plus", "a_p_minus",
                                       "miss_ratio"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rstdp_rejects_non_finite_scalars(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            RstdpHead(np.full((2, 3), 0.5), **{field: bad})

    def test_rstdp_rejects_nan_weight(self):
        # nan < 0 and nan > 1 are both False, so min/max checks admit NaN
        w = np.full((2, 3), 0.5)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RstdpHead(w)

    @pytest.mark.parametrize("field", ["window", "neurons_per_class"])
    def test_rstdp_rejects_counts_below_one(self, field):
        with pytest.raises(ValueError, match=field):
            RstdpHead(np.full((2, 3), 0.5), ratio_mode="per_image", **{field: 0})

    def test_truncated_checkpoint_header_is_value_error(self, tmp_path):
        p = tmp_path / "h.skhd"
        save_head(p, init_fcn_head(4, 3, np.random.default_rng(0)))
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated"):
            load_head(p)


class TestSharedLoops:
    def test_rstdp_predict_maps_winner_to_class(self):
        w = np.array([[0.1, 0.0], [0.0, 0.2], [0.9, 0.0], [0.0, 0.1]])
        head = RstdpHead(w, neurons_per_class=2)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(rstdp_predict(head, x), [1, 0, 0])
        data = FeatureMatrix(x, np.array([1, 0, 1]))
        assert rstdp_accuracy(head, data) == pytest.approx(2 / 3)

    def test_minibatches_over_a_subset_match_a_copied_chunk(self):
        # the forgetting harness trains on slices of a permutation; this is
        # the loop it ran over a copied chunk before sharing fcn_minibatches
        rng = np.random.default_rng(21)
        data = FeatureMatrix(rng.normal(size=(57, 9)), rng.integers(0, 4, size=57))
        order = rng.permutation(57)[10:47]
        shared = init_fcn_head(9, 4, np.random.default_rng(3), lam=0.3)
        oracle = shared.copy()
        fcn_minibatches(shared, data, order, 5, 2, len(order))
        x, y = data.values[order], one_hot(data.labels[order], 4)
        for start in range(0, len(order), 5):
            gw, gb = fcn_gradients(oracle, x[start:start + 5], y[start:start + 5], len(order))
            oracle.weights -= oracle.eta(2) * gw
            oracle.biases -= oracle.eta(2) * gb
        np.testing.assert_array_equal(shared.weights, oracle.weights)
        np.testing.assert_array_equal(shared.biases, oracle.biases)


class TestRstdpTrainPass:
    def test_zero_potential_counts_as_miss_without_update(self):
        head = RstdpHead(np.full((2, 3), 0.5), ratio_mode="per_image", window=4,
                         miss_ratio=0.0)
        data = FeatureMatrix(np.zeros((2, 3)), np.array([0, 1]))
        before = head.weights.copy()
        acc = rstdp_train_pass(head, data, np.random.default_rng(14), shuffle=False)
        assert acc == 0.0
        assert head.miss_ratio == 1.0
        np.testing.assert_array_equal(head.weights, before)

    def test_improves_on_separable_counts(self):
        rng = np.random.default_rng(15)
        # class c spikes on its own block of inputs
        n_per = 40
        labels = np.repeat(np.arange(4), n_per)
        x = np.zeros((4 * n_per, 20))
        for i, c in enumerate(labels):
            block = np.zeros(20)
            block[c * 5:(c + 1) * 5] = rng.poisson(3, size=5) + 1
            x[i] = block
        data = FeatureMatrix(x, labels)
        # punish with strong targeted depression on spiking inputs; the
        # default silent-heavy punishment is unstable over long runs
        head = init_rstdp_head(20, 4, rng, mean=0.5, std=0.05,
                               a_p_plus=0.004, a_p_minus=0.0005,
                               ratio_mode="per_image", window=50, miss_ratio=0.5)
        for _ in range(10):
            rstdp_train_pass(head, data, rng)
        assert rstdp_accuracy(head, data) > 0.9


class TestBitFeatures:
    """A bool feature matrix and its float64 copy train and score the heads
    to the same bits: the heads cast where the matrix meets the matmul."""

    @staticmethod
    def _pair(seed=30, n=120, cols=37, n_classes=6):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, size=n)
        # each class fires mostly on its own band of columns
        band = (np.arange(cols) * n_classes // cols)[None, :] == labels[:, None]
        bits = rng.random((n, cols)) < np.where(band, 0.7, 0.1)
        a, b = FeatureMatrix(bits, labels), FeatureMatrix(bits.astype(np.float64), labels)
        assert a.values.dtype == bool and b.values.dtype == np.float64
        return a, b

    def test_fcn_train_epoch_and_accuracy(self):
        bits, reals = self._pair()
        heads = [init_fcn_head(bits.n_cols, 6, np.random.default_rng(1), lam=0.1)
                 for _ in range(2)]
        for head, data in zip(heads, (bits, reals)):
            rng = np.random.default_rng(2)
            for epoch in range(3):
                fcn_train_epoch(head, data, 7, epoch, rng)
        np.testing.assert_array_equal(heads[0].weights, heads[1].weights)
        np.testing.assert_array_equal(heads[0].biases, heads[1].biases)
        assert fcn_accuracy(heads[0], bits) == fcn_accuracy(heads[1], reals)
        np.testing.assert_array_equal(fcn_forward(heads[0], bits.values),
                                      fcn_forward(heads[1], reals.values))

    def test_rstdp_train_pass_and_accuracy(self):
        bits, reals = self._pair()
        heads = [init_rstdp_head(bits.n_cols, 12, np.random.default_rng(3),
                                 neurons_per_class=2, p_drop=0.25, window=10)
                 for _ in range(2)]
        passes = []
        for head, data in zip(heads, (bits, reals)):
            rng, drop = np.random.default_rng(4), np.random.default_rng(5)
            passes.append([rstdp_train_pass(head, data, rng, dropout_rng=drop)
                           for _ in range(3)])
        assert passes[0] == passes[1]
        np.testing.assert_array_equal(heads[0].weights, heads[1].weights)
        assert heads[0].miss_ratio == heads[1].miss_ratio
        assert rstdp_accuracy(heads[0], bits) == rstdp_accuracy(heads[1], reals)

    def test_run_forgetting(self):
        from spikecnn.train import ForgetPlan, run_forgetting

        bits, reals = self._pair(n=180)
        plan = ForgetPlan(task_a_classes=(0, 1, 2), task_b_classes=(3, 4, 5),
                          rehearsal_fractions=(0.0, 0.3), epochs=2, batch=5,
                          incremental=True, incremental_start=20, incremental_stride=25)
        results = []
        for data in (bits, reals):
            in_a = data.labels < 3
            a = FeatureMatrix(data.values[in_a], data.labels[in_a])
            b = FeatureMatrix(data.values[~in_a], data.labels[~in_a])
            results.append(run_forgetting(plan, a, b, data, n_classes=6))
        for got, want in zip(*results):
            assert got.curves == want.curves
            assert got.incremental == want.incremental

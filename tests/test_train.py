"""Orchestration tests: layer training loop, monitors and stop rules, the
pattern-in-noise demo, feature extraction, and the forgetting harness."""

import numpy as np
import pytest

from spikecnn.config import substream
from spikecnn.core import ConvKernel, InhibitionConfig, init_kernel, save_kernel
from spikecnn.encode import SpikeTensor
from spikecnn import train as train_mod
from spikecnn.heads import FeatureMatrix, init_fcn_head
from spikecnn.train import (ConvPipeline, ForgetPlan, MonitorSeries,
                            NoiseDemoConfig, TrainPlan, convergence_factor,
                            extract_features, run_forgetting, run_noise_demo,
                            train_conv_layer, weight_delta, _should_stop)
from forget_oracle import oracle_run_forgetting


def random_tensors(n, rng, shape=(12, 2, 16, 16), density=0.04):
    return [SpikeTensor.from_dense(rng.random(shape) < density) for _ in range(n)]


class TestMonitors:
    def test_weight_delta_identical(self):
        w = np.full((2, 2, 3, 3), 0.4)
        assert weight_delta(w, w.copy()) == 0.0

    def test_weight_delta_constant_shift(self):
        prev = np.full((2, 2, 3, 3), 0.6)
        curr = np.full((2, 2, 3, 3), 0.5)
        assert weight_delta(prev, curr) == pytest.approx(0.1)

    def test_weight_delta_signed(self):
        prev = np.full((1, 1, 2, 2), 0.5)
        curr = np.full((1, 1, 2, 2), 0.7)
        assert weight_delta(prev, curr) == pytest.approx(-0.2)

    def test_weight_delta_shape_mismatch(self):
        with pytest.raises(ValueError):
            weight_delta(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_convergence_factor_saturated(self):
        assert convergence_factor(np.array([0.0, 1.0, 1.0, 0.0])) == 0.0

    def test_convergence_factor_maximum(self):
        assert convergence_factor(np.full((3, 3), 0.5)) == pytest.approx(0.25)

    def test_convergence_factor_accepts_kernel(self):
        k = ConvKernel(np.full((1, 1, 2, 2), 0.5))
        assert convergence_factor(k) == pytest.approx(0.25)


class TestStopRules:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            TrainPlan(n_images=10, stop_rule="when_bored")

    @pytest.mark.parametrize("band", [(0.02, 0.01), (-0.01, 0.02), (0.01, 0.3),
                                      (0.26, 0.27)])
    def test_band_that_can_never_fire_rejected(self, band):
        # convergence_factor lies in [0, 0.25]
        with pytest.raises(ValueError, match="band"):
            TrainPlan(n_images=10, stop_rule="convergence_band", band=band)

    def test_band_ends_allowed(self):
        for band in ((0.0, 0.25), (0.1, 0.1)):
            assert TrainPlan(n_images=10, band=band).band == band

    def test_convergence_band_halts_at_first_in_band_sample(self):
        rng = np.random.default_rng(0)
        # weights at 0.985 give w(1-w) ~ 0.0148, inside [0.01, 0.02]; the
        # dataset is empty of spikes so training never moves them
        kernel = ConvKernel(np.full((4, 2, 5, 5), 0.985))
        tensors = [SpikeTensor.from_dense(np.zeros((12, 2, 16, 16), dtype=bool))
                   for _ in range(10)]
        plan = TrainPlan(n_images=100, stop_rule="convergence_band", monitor_stride=5)
        monitor = train_conv_layer(plan, tensors, kernel, InhibitionConfig(threshold=15))
        assert monitor.stopped_early
        assert len(monitor.samples) == 1
        lo, hi = plan.band
        assert lo <= monitor.samples[0][2] <= hi

    def test_out_of_band_does_not_stop(self):
        kernel = ConvKernel(np.full((4, 2, 5, 5), 0.5))  # factor 0.25, outside
        tensors = [SpikeTensor.from_dense(np.zeros((12, 2, 16, 16), dtype=bool))
                   for _ in range(4)]
        plan = TrainPlan(n_images=20, stop_rule="convergence_band", monitor_stride=5)
        monitor = train_conv_layer(plan, tensors, kernel, InhibitionConfig(threshold=15))
        assert not monitor.stopped_early
        assert len(monitor.samples) == 4

    def test_weight_delta_jump_detector(self):
        plan = TrainPlan(n_images=10, stop_rule="weight_delta_jump")
        monitor = MonitorSeries(stride=150)
        for i, d in enumerate([0.01, 0.012, 0.009, 0.011, 0.010]):
            monitor.samples.append((i, d, 0.1))
            assert not _should_stop(plan, monitor)
        monitor.samples.append((5, 0.05, 0.1))  # > 3x trailing median
        assert _should_stop(plan, monitor)


class TestTrainConvLayer:
    def test_zero_images_leaves_kernel(self):
        rng = np.random.default_rng(1)
        kernel = init_kernel(4, 2, 5, rng)
        before = kernel.weights.copy()
        monitor = train_conv_layer(TrainPlan(n_images=0), random_tensors(3, rng),
                                   kernel, InhibitionConfig(threshold=15))
        np.testing.assert_array_equal(kernel.weights, before)
        assert monitor.samples == []

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(2)
        kernel = init_kernel(4, 2, 5, rng)
        with pytest.raises(ValueError):
            train_conv_layer(TrainPlan(n_images=5), [], kernel,
                             InhibitionConfig(threshold=15))

    def test_training_moves_and_saturates_weights(self):
        rng = np.random.default_rng(3)
        kernel = init_kernel(6, 2, 5, rng)
        before = kernel.weights.copy()
        tensors = random_tensors(40, rng, density=0.30)
        train_conv_layer(TrainPlan(n_images=200), tensors, kernel,
                         InhibitionConfig(threshold=10))
        assert not np.array_equal(kernel.weights, before)
        assert kernel.weights.min() >= 0.0 and kernel.weights.max() <= 1.0

    def test_deterministic_replay(self):
        rng = np.random.default_rng(4)
        tensors = random_tensors(30, rng, density=0.25)
        results = []
        for _ in range(2):
            kernel = init_kernel(6, 2, 5, substream(9, "init"))
            train_conv_layer(TrainPlan(n_images=60), tensors, kernel,
                             InhibitionConfig(threshold=10))
            results.append(kernel.weights.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_repeated_stimulus_saturates_winner_map(self):
        # a single recurring pattern drives the winning map's weights toward
        # the {0, 1} extremes and the convergence factor toward zero
        dense = np.zeros((12, 2, 16, 16), dtype=bool)
        dense[0:5, 0, 6:11, 8] = np.eye(5, dtype=bool)  # fixed diagonal stroke
        tensor = SpikeTensor.from_dense(dense)
        kernel = ConvKernel(np.full((4, 2, 5, 5), 0.5), a_plus=0.05, a_minus=0.04)
        before = convergence_factor(kernel)
        train_conv_layer(TrainPlan(n_images=300), [tensor], kernel,
                         InhibitionConfig(threshold=2.0), rate_doubling_every=10**9)
        after = convergence_factor(kernel)
        assert after < 0.5 * before
        per_map_sat = [(np.minimum(w, 1 - w) < 0.1).mean() for w in kernel.weights]
        assert max(per_map_sat) > 0.6  # the winning map is mostly saturated

    def test_monitor_sampling_stride(self):
        rng = np.random.default_rng(5)
        kernel = init_kernel(4, 2, 5, rng)
        monitor = train_conv_layer(TrainPlan(n_images=30, monitor_stride=10),
                                   random_tensors(10, rng), kernel,
                                   InhibitionConfig(threshold=15))
        assert [s[0] for s in monitor.samples] == [1, 2, 3]


class TestNoiseDemo:
    def test_no_noise_locks_onto_pattern(self):
        cfg = NoiseDemoConfig(noise_rate=0.0, duration=2000, seed=1)
        result = run_noise_demo(cfg)
        hit, fa = result.selectivity(1000, 2000)
        assert hit >= 0.95 and fa <= 0.05
        assert result.support_jaccard() >= 0.8

    def test_seeded_determinism(self):
        a = run_noise_demo(NoiseDemoConfig(seed=7, duration=1500))
        b = run_noise_demo(NoiseDemoConfig(seed=7, duration=1500))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.output_spikes, b.output_spikes)
        np.testing.assert_array_equal(a.raster, b.raster)

    def test_insertions_never_overlap(self):
        result = run_noise_demo(NoiseDemoConfig(seed=3, duration=4000))
        onsets = result.onsets
        assert (np.diff(onsets) >= result.pattern_len).all()

    def test_raster_marks_pattern_spikes(self):
        result = run_noise_demo(NoiseDemoConfig(seed=5, duration=1000))
        pattern_rows = result.raster[result.raster[:, 2] == 1]
        assert pattern_rows.size > 0
        assert set(np.unique(pattern_rows[:, 1])) <= set(result.support.tolist())

    def test_invalid_noise_rate(self):
        with pytest.raises(ValueError):
            NoiseDemoConfig(noise_rate=1.5)


class TestExtractFeatures:
    def test_empty_dataset(self):
        rng = np.random.default_rng(6)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=15))
        with pytest.raises(ValueError, match="no images"):
            extract_features(pipe, [])

    def test_identical_images_identical_rows(self):
        rng = np.random.default_rng(7)
        pipe = ConvPipeline(init_kernel(6, 2, 5, rng), InhibitionConfig(threshold=10))
        tensor = random_tensors(1, rng, density=0.2)[0]
        matrix, _ = extract_features(pipe, [tensor, tensor], np.array([3, 3]))
        np.testing.assert_array_equal(matrix.values[0], matrix.values[1])

    def test_feature_dimension_for_standard_geometry(self):
        rng = np.random.default_rng(8)
        pipe = ConvPipeline(init_kernel(30, 2, 5, rng), InhibitionConfig(threshold=15))
        tensors = random_tensors(2, rng, shape=(12, 2, 27, 27), density=0.1)
        matrix, _ = extract_features(pipe, tensors)
        assert matrix.n_cols == 30 * 11 * 11  # 27 -> conv 23 -> trim 22 -> pool 11

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(9)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10))
        tensors = random_tensors(7, rng, density=0.2)
        serial, s1 = extract_features(pipe, tensors, threads=1)
        parallel, s2 = extract_features(pipe, tensors, threads=3)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert s1 == s2
        zero, s0 = extract_features(pipe, tensors, threads=0)  # below 1 runs serially
        np.testing.assert_array_equal(serial.values, zero.values)
        assert s1 == s0

    @pytest.mark.parametrize("threads, cpus, n, workers", [
        (5000, 64, 10, 10), (5000, 3, 10, 3), (2, 64, 10, 2), (4, 64, 1, None),
        (1, 64, 10, None)])
    def test_pool_gets_at_most_one_worker_per_image_and_cpu(self, monkeypatch, threads,
                                                            cpus, n, workers):
        started = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):  # Executor.map's signature
                return map(fn, *iterables)

        monkeypatch.setattr(train_mod, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(train_mod, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(11)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10))
        tensors = random_tensors(n, rng, density=0.2)
        matrix, spikes = extract_features(pipe, tensors, threads=threads)
        assert started == ([] if workers is None else [workers])
        serial, serial_spikes = extract_features(pipe, tensors, threads=1)
        np.testing.assert_array_equal(matrix.values, serial.values)
        assert spikes == serial_spikes

    def test_usable_cpus_cap_the_pool(self, monkeypatch):
        started = []

        class NoPool:
            def __init__(self, max_workers):
                started.append(max_workers)
                raise RuntimeError("stop before any work")

        monkeypatch.setattr(train_mod, "ProcessPoolExecutor", NoPool)
        rng = np.random.default_rng(12)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10))
        tensors = random_tensors(10, rng, density=0.2)
        cpus = train_mod._usable_cpus()
        if cpus == 1:
            extract_features(pipe, tensors, threads=5000)  # serial, no pool
            assert started == []
        else:
            with pytest.raises(RuntimeError, match="stop before"):
                extract_features(pipe, tensors, threads=5000)
            assert started == [min(10, cpus)]

    def test_global_max_potential_mode(self):
        rng = np.random.default_rng(10)
        second = init_kernel(9, 4, 5, rng)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10),
                            readout=second)
        tensors = random_tensors(2, rng, shape=(12, 2, 27, 27), density=0.15)
        matrix, _ = extract_features(pipe, tensors)
        assert matrix.n_cols == 9


    @pytest.mark.parametrize("cached", [0, 3, 5])
    def test_pooled_results_skip_the_first_layer(self, monkeypatch, cached):
        rng = np.random.default_rng(13)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10),
                            readout=init_kernel(9, 4, 3, rng))
        tensors = random_tensors(5, rng, shape=(12, 2, 27, 27), density=0.15)
        want, want_spikes = extract_features(pipe, tensors)
        pooled = [pipe.pooled(t) for t in tensors[:cached]]
        seen = []
        real = ConvPipeline.pooled
        monkeypatch.setattr(ConvPipeline, "pooled",
                            lambda self, t: seen.append(t) or real(self, t))
        got, spikes = extract_features(pipe, tensors, pooled=pooled)
        assert got.values.tobytes() == want.values.tobytes() and spikes == want_spikes
        assert seen == tensors[cached:]

    def test_more_pooled_results_than_images(self):
        rng = np.random.default_rng(14)
        pipe = ConvPipeline(init_kernel(4, 2, 5, rng), InhibitionConfig(threshold=10),
                            readout=init_kernel(9, 4, 3, rng))
        tensors = random_tensors(2, rng, shape=(12, 2, 27, 27), density=0.15)
        with pytest.raises(ValueError, match="3 of 2 images"):
            extract_features(pipe, tensors, pooled=[pipe.pooled(tensors[0])] * 3)


class TestFrozenLayerIntegrity:
    def test_inference_never_mutates_kernel(self, tmp_path):
        rng = np.random.default_rng(12)
        kernel = init_kernel(6, 2, 5, rng)
        path = tmp_path / "before.skrn"
        save_kernel(path, kernel)
        pipe = ConvPipeline(kernel, InhibitionConfig(threshold=10))
        extract_features(pipe, random_tensors(10, rng, density=0.25))
        after = tmp_path / "after.skrn"
        save_kernel(after, kernel)
        assert path.read_bytes() == after.read_bytes()

    def test_earlier_layer_frozen_while_later_trains(self, tmp_path):
        rng = np.random.default_rng(13)
        first = init_kernel(6, 2, 5, rng)
        p1 = tmp_path / "first.skrn"
        save_kernel(p1, first)
        pipe = ConvPipeline(first, InhibitionConfig(threshold=10))
        tensors = random_tensors(15, rng, shape=(12, 2, 27, 27), density=0.2)
        pooled = [pipe.pooled(t)[0] for t in tensors]
        second = init_kernel(8, 6, 5, rng)
        train_conv_layer(TrainPlan(n_images=30), pooled, second,
                         InhibitionConfig(threshold=2.0))
        p2 = tmp_path / "first-after.skrn"
        save_kernel(p2, first)
        assert p1.read_bytes() == p2.read_bytes()


def separable_features(rng, n_per_class=30, n_classes=10, dim=40, noise=0.05):
    labels = np.repeat(np.arange(n_classes), n_per_class)
    base = np.zeros((n_classes, dim))
    for c in range(n_classes):
        base[c, c * (dim // n_classes):(c + 1) * (dim // n_classes)] = 3.0
    x = base[labels] + rng.normal(scale=noise, size=(labels.size, dim))
    x = np.abs(x)
    order = rng.permutation(labels.size)
    return FeatureMatrix(x[order], labels[order])


def task_split(data):
    mask = data.labels <= 4
    return (FeatureMatrix(data.values[mask], data.labels[mask]),
            FeatureMatrix(data.values[~mask], data.labels[~mask]))


class TestForgettingHarness:
    def test_rehearsal_exceeding_pool_rejected(self):
        rng = np.random.default_rng(14)
        data = separable_features(rng)
        a, b = task_split(data)
        with pytest.raises(ValueError, match="fraction 2.0"):
            run_forgetting(ForgetPlan(rehearsal_fractions=(2.0,), epochs=1), a, b, data)

    @pytest.mark.parametrize("fractions,bad", [((0.0, -0.1), "-0.1"), ((0.1, 1.5), "1.5")])
    def test_every_fraction_checked_before_phase_one(self, monkeypatch, fractions, bad):
        a, b = task_split(separable_features(np.random.default_rng(14)))

        def no_training(*args, **kwargs):
            raise AssertionError("phase 1 started before the fractions were checked")

        monkeypatch.setattr(train_mod, "init_fcn_head", no_training)
        with pytest.raises(ValueError, match=f"fraction {bad}"):
            run_forgetting(ForgetPlan(rehearsal_fractions=fractions, epochs=1), a, b, a)

    @pytest.mark.parametrize("fractions", [(0.0,), (0.0, 0.1)])
    def test_empty_task_a_pool_rejected(self, fractions):
        _, b = task_split(separable_features(np.random.default_rng(14)))
        empty = FeatureMatrix(np.zeros((0, b.n_cols)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty training data"):
            run_forgetting(ForgetPlan(rehearsal_fractions=fractions, epochs=1), empty, b, b)

    def test_curves_structure_and_probe_before_phase_two(self):
        rng = np.random.default_rng(15)
        data = separable_features(rng)
        a, b = task_split(data)
        [res] = run_forgetting(ForgetPlan(rehearsal_fractions=(0.1,), epochs=3, seed=1),
                               a, b, data)
        assert [row[0] for row in res.curves] == [-1, 0, 1, 2]
        pre = res.curves[0]
        assert pre[1] > 0.9       # task A learned in phase 1
        assert pre[2] < 0.3       # task B unseen
        final = res.curves[-1]
        assert final[2] > 0.9     # task B learned in phase 2

    def test_rehearsal_helps_retention(self):
        rng = np.random.default_rng(16)
        data = separable_features(rng, noise=0.3)
        a, b = task_split(data)
        no_reh, with_reh = (res.final() for res in run_forgetting(
            ForgetPlan(rehearsal_fractions=(0.0, 0.3), epochs=10, seed=2), a, b, data))
        assert with_reh[0] >= no_reh[0]

    def test_incremental_probes(self):
        rng = np.random.default_rng(17)
        data = separable_features(rng)
        a, b = task_split(data)
        plan = ForgetPlan(rehearsal_fractions=(0.0,), epochs=1, seed=3, incremental=True,
                          incremental_start=50, incremental_stride=25)
        [res] = run_forgetting(plan, a, b, data)
        assert res.incremental
        assert res.incremental[0][0] == 50
        assert res.incremental[1][0] == 75
        assert res.incremental[-1][0] == b.n_rows


class TestForgettingSweepOracle:
    """The sweep trains phase 1 once and scores each probe in one pass; every
    row must equal a per-fraction run that retrains phase 1 from scratch."""

    # no rehearsal, a middle fraction, and one that takes the whole task-A pool
    FRACTIONS = (0.0, 0.3, 1.0)

    @pytest.mark.parametrize("incremental", [False, True])
    @pytest.mark.parametrize("given_head", [False, True])
    def test_sweep_matches_per_fraction_runs(self, incremental, given_head):
        data = separable_features(np.random.default_rng(18), noise=0.4)
        a, b = task_split(data)
        assert round(self.FRACTIONS[-1] * b.n_rows) == a.n_rows
        plan = ForgetPlan(rehearsal_fractions=self.FRACTIONS, epochs=3, seed=4,
                          incremental=incremental, incremental_start=40,
                          incremental_stride=35)
        start = init_fcn_head(a.n_cols, 10, np.random.default_rng(9))

        def given():
            return start.copy() if given_head else None

        sweep = run_forgetting(plan, a, b, data, head=given())
        assert len(sweep) == len(self.FRACTIONS)
        for frac, res in zip(self.FRACTIONS, sweep):
            oracle = oracle_run_forgetting(plan, frac, a, b, data, head=given())
            assert res.curves == oracle.curves
            assert res.incremental == oracle.incremental
            assert bool(res.incremental) == incremental

"""Experiment orchestration: layer-wise unsupervised training, convergence
monitors, the pattern-in-noise demonstration, the forgetting/rehearsal
harness, and feature extraction over frozen layers."""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (ConvKernel, InhibitionConfig, LayerState, busy_bins, conv_accumulate,
                   double_learning_rates, fire_and_inhibit, global_max_potential, infer_pooled,
                   infer_spikes, pool_blocks, readout_columns, stdp_competition,
                   train_certified, update_winners)
from .encode import SpikeTensor
from .heads import (FcnHead, FeatureMatrix, fcn_minibatches, fcn_predict,
                    fcn_train_epoch, init_fcn_head)


@dataclass
class TrainPlan:
    n_images: int
    stop_rule: str = "fixed_images"  # fixed_images | convergence_band | weight_delta_jump
    monitor_stride: int = 150
    band: tuple[float, float] = (0.01, 0.02)
    jump_factor: float = 3.0
    jump_history: int = 10

    def __post_init__(self):
        if self.stop_rule not in ("fixed_images", "convergence_band", "weight_delta_jump"):
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")
        lo, hi = self.band
        if not 0.0 <= lo <= hi <= 0.25:  # the range of convergence_factor
            raise ValueError(f"convergence band {self.band} must satisfy 0 <= low <= high <= 0.25")


@dataclass
class MonitorSeries:
    stride: int
    samples: list[tuple[int, float, float]] = field(default_factory=list)
    stopped_early: bool = False


def weight_delta(prev: np.ndarray, curr: np.ndarray) -> float:
    """Signed mean of (previous - current) over all weights."""
    prev = np.asarray(prev)
    curr = np.asarray(curr)
    if prev.shape != curr.shape:
        raise ValueError("snapshot shapes differ")
    return float((prev - curr).mean())


def convergence_factor(kernel) -> float:
    """Mean of w(1-w); 0.25 at w=0.5 everywhere, 0 once fully saturated."""
    w = kernel.weights if isinstance(kernel, ConvKernel) else np.asarray(kernel)
    return float((w * (1.0 - w)).mean())


def train_image(dense: np.ndarray, kernel: ConvKernel, cfg: InhibitionConfig,
                state: LayerState) -> int:
    """One training image: accumulate, fire, compete, update.  Returns the
    number of spikes the layer emitted.

    ``core.train_certified`` takes the image when its input holds more
    events per bin than input maps.  The pass's dgemms read the c k^2 im2col
    rows about twice per image, where the per-bin loop's read up to k^2 rows
    per event in every busy bin: with that many events a busy bin tends to
    read them all.  With fewer, as on a second layer that reads a few pooled
    spikes over many maps, the per-bin loop does less work.  An image the
    pass refuses (one exception, caught only in ``core.train_certified``,
    which undoes the pass) goes through the per-bin loop too, to the same
    result.
    """
    t_bins, c = dense.shape[:2]
    if np.count_nonzero(dense) > c * t_bins:
        n_spikes = train_certified(dense, kernel, cfg, state)
        if n_spikes is not None:
            return n_spikes
    return _train_image_per_bin(dense, kernel, cfg, state)


def _train_image_per_bin(dense: np.ndarray, kernel: ConvKernel, cfg: InhibitionConfig,
                         state: LayerState) -> int:
    """``train_image`` one bin at a time: each bin accumulates
    (``conv_accumulate``, under the kernel as the bins before left it) and
    fires (``fire_and_inhibit``), and its spikes compete and update the
    kernel before the next bin.

    A silent bin adds nothing to the potentials, and with a threshold >= 0
    potential 0 fires nothing, so only bins that hold a spike are visited."""
    state.begin_image()
    potentials = np.zeros(state.out_shape)
    n_spikes = seen = 0
    for t in busy_bins(dense):
        conv_accumulate(dense[t], kernel.weights, potentials)
        # Potentials never decrease and a fire step leaves every neuron above
        # threshold fired or locked: no new crossing, nothing can fire.
        above = potentials > cfg.threshold
        now = np.count_nonzero(above)
        if now == seen:
            continue
        seen = now
        fired = fire_and_inhibit(potentials, state, cfg, above)
        if not fired.any():
            continue
        n_spikes += int(fired.sum())
        update_winners(kernel, state, dense, t,
                       stdp_competition(fired, potentials, state, cfg.competition_radius))
    state.images_seen += 1
    return n_spikes


def train_conv_layer(plan: TrainPlan, dataset: list[SpikeTensor],
                     kernel: ConvKernel, cfg: InhibitionConfig,
                     rate_doubling_every: int = 1000) -> MonitorSeries:
    """Sequential unsupervised training of one convolution layer.

    Iterates the dataset (cycling if the plan asks for more images than the
    dataset holds), doubling learning rates at each 1000-image mark, sampling
    the weight-delta and convergence monitors every ``monitor_stride``
    images, and stopping early when the plan's rule fires.  The kernel is
    updated in place; earlier layers are expected to be frozen by the caller.
    """
    if plan.n_images > 0 and not dataset:
        raise ValueError("cannot train on an empty dataset")
    monitor = MonitorSeries(stride=plan.monitor_stride)
    if plan.n_images <= 0:
        return monitor
    _, _, h, w = dataset[0].shape
    state = LayerState(kernel.maps_out, h - kernel.k + 1, w - kernel.k + 1)
    prev = kernel.weights.copy()
    for i in range(plan.n_images):
        dense = dataset[i % len(dataset)].dense()
        train_image(dense, kernel, cfg, state)
        seen = state.images_seen
        double_learning_rates(kernel, seen, every=rate_doubling_every)
        if seen % plan.monitor_stride == 0:
            delta = weight_delta(prev, kernel.weights)
            factor = convergence_factor(kernel)
            monitor.samples.append((seen // plan.monitor_stride, delta, factor))
            prev = kernel.weights.copy()
            if _should_stop(plan, monitor):
                monitor.stopped_early = True
                break
    return monitor


def _should_stop(plan: TrainPlan, monitor: MonitorSeries) -> bool:
    if plan.stop_rule == "convergence_band":
        _, _, factor = monitor.samples[-1]
        lo, hi = plan.band
        return lo <= factor <= hi
    if plan.stop_rule == "weight_delta_jump":
        deltas = [abs(d) for _, d, _ in monitor.samples]
        if len(deltas) < 2:
            return False
        history = deltas[:-1][-plan.jump_history:]
        med = float(np.median(history))
        return med > 0 and deltas[-1] > plan.jump_factor * med
    return False


# ---------------------------------------------------------------------------
# Feature extraction over frozen layers
# ---------------------------------------------------------------------------

@dataclass
class ConvPipeline:
    """Frozen conv layer, optionally followed by a readout conv layer.

    Inference keeps lateral inhibition but never the training competition.
    Without a ``readout`` the features are the flattened pooled spike counts;
    with one they are its per-bin map maxima summed over bins
    (``global_max_potential``).
    """

    kernel: ConvKernel
    cfg: InhibitionConfig
    readout: ConvKernel | None = None

    def pooled_shape(self, input_shape: tuple) -> tuple[int, int, int, int]:
        """The shape of ``pooled``'s tensors for input of ``input_shape``."""
        t_bins, _, h, w = input_shape
        k = self.kernel.k
        return t_bins, self.kernel.maps_out, (h - k + 1) // 2, (w - k + 1) // 2

    def pooled(self, tensor: SpikeTensor) -> tuple[SpikeTensor, int]:
        """(pooled first-layer spikes with the input's bins, first-layer
        spike count) for one image: a second layer's input, or its features."""
        events, n_spikes = infer_pooled(tensor.dense(), self.kernel, self.cfg)
        return SpikeTensor(self.pooled_shape(tensor.shape), events), n_spikes

    @functools.cached_property
    def _readout_columns(self) -> np.ndarray:
        return readout_columns(self.readout)

    def features(self, tensor: SpikeTensor,
                 pooled: tuple[SpikeTensor, int] | None = None) -> tuple[np.ndarray, int]:
        """(feature vector, conv-layer spike count) for one image: bool
        pooled spikes, or float64 readout potentials.  ``pooled`` is the
        image's ``pooled`` result when known.  Spike-count bits build no
        pooled ``SpikeTensor``."""
        if self.readout is not None:
            layer2, n_spikes = pooled or self.pooled(tensor)
            return global_max_potential(layer2.dense(), self.readout,
                                        self._readout_columns), n_spikes
        bits = np.zeros(self.pooled_shape(tensor.shape)[1:], dtype=bool)
        if pooled is None and not self.cfg.pool_lateral_inhibition:
            # without pool inhibition any spike of a 2x2 block sets its bit
            spikes, _ = infer_spikes(tensor.dense(), self.kernel, self.cfg)
            k = self.kernel.k
            block, _ = pool_blocks(spikes, (tensor.shape[2] - k + 1, tensor.shape[3] - k + 1))
            bits.reshape(-1)[block] = True
            return bits.ravel(), spikes[0].size
        events, n_spikes = ((pooled[0].events, pooled[1]) if pooled else
                            infer_pooled(tensor.dense(), self.kernel, self.cfg))
        bits[tuple(events[:, 1:].T)] = True
        return bits.ravel(), n_spikes


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def extract_features(pipeline: ConvPipeline, tensors: list[SpikeTensor],
                     labels: np.ndarray | None = None, threads: int = 1,
                     pooled: list[tuple[SpikeTensor, int]] = ()):
    """Run every image through the frozen stack; row order = input order.

    Returns (FeatureMatrix, mean conv spikes per image).  ``pooled`` holds
    ``pipeline.pooled``'s result for the first images, which then skip the
    first layer.  With more than one worker, images are farmed out to a
    process pool in one contiguous chunk per worker; results are identical
    to the serial path because each image is processed independently.  The
    pool starts every worker up front, so it gets at most min(``threads``,
    images, usable CPUs) of them.
    """
    n = len(tensors)
    if n == 0:
        raise ValueError("no images to extract features from")
    if len(pooled) > n:
        raise ValueError(f"pooled results for {len(pooled)} of {n} images")
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    known = [*pooled, *[None] * (n - len(pooled))]
    workers = min(threads, n, _usable_cpus())
    values, spikes = None, np.empty(n)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        # either way rows arrive in input order and go straight into the matrix
        rows = (pool.map(pipeline.features, tensors, known, chunksize=math.ceil(n / workers))
                if pool else map(pipeline.features, tensors, known))
        for i, (vec, n_spikes) in enumerate(rows):
            if values is None:
                values = np.empty((n, vec.size), dtype=vec.dtype)
            values[i], spikes[i] = vec, n_spikes
    return FeatureMatrix(values, np.asarray(labels, dtype=np.int64)), float(spikes.mean())


# ---------------------------------------------------------------------------
# Pattern-in-noise demonstration
# ---------------------------------------------------------------------------

@dataclass
class NoiseDemoConfig:
    n_afferents: int = 100
    pattern_len: int = 5
    noise_rate: float = 0.01
    threshold: float = 9.0
    duration: int = 5000
    pattern_rate: float = 0.04  # expected insertions per bin (~1 per 25 bins)
    seed: int = 0
    a_plus: float = 0.004
    a_minus: float = 0.003
    init_mean: float = 0.5
    init_std: float = 0.05
    stats_window: int = 500

    def __post_init__(self):
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if self.pattern_len < 1 or self.n_afferents < 1:
            raise ValueError("pattern_len and n_afferents must be >= 1")


@dataclass
class NoiseDemoResult:
    weights: np.ndarray
    support: np.ndarray             # afferent indices carrying the pattern
    onsets: np.ndarray              # insertion start bins
    output_spikes: np.ndarray       # bins at which the output fired
    raster: np.ndarray              # (n, 3) rows of (t, afferent, is_pattern)
    pattern_len: int
    windows: list[tuple[int, float, float]] = field(default_factory=list)

    def potentiated(self, level: float = 0.5) -> np.ndarray:
        return np.nonzero(self.weights > level)[0]

    def support_jaccard(self, level: float = 0.5) -> float:
        pot = set(self.potentiated(level).tolist())
        sup = set(self.support.tolist())
        union = pot | sup
        return len(pot & sup) / len(union) if union else 1.0

    def selectivity(self, start: int, end: int) -> tuple[float, float]:
        """(hit rate, false-alarm rate) over bins [start, end).

        A presentation is hit when the output fires while its pattern is
        inside the integration window (within 2*pattern_len - 1 bins of the
        onset); a false alarm is an output spike with no pattern in view.
        """
        pat_len = self.pattern_len
        onsets = self.onsets[(self.onsets >= start) & (self.onsets < end)]
        spikes = self.output_spikes[(self.output_spikes >= start)
                                    & (self.output_spikes < end)]
        hits = sum(
            bool(((spikes >= o) & (spikes <= o + 2 * pat_len - 2)).any())
            for o in onsets)
        hit_rate = hits / len(onsets) if len(onsets) else 1.0
        if spikes.size:
            in_view = np.array([
                bool(((self.onsets <= t) & (t <= self.onsets + 2 * pat_len - 2)).any())
                for t in spikes])
            fa_rate = float((~in_view).mean())
        else:
            fa_rate = 0.0
        return hit_rate, fa_rate


def run_noise_demo(cfg: NoiseDemoConfig) -> NoiseDemoResult:
    """Teach one output neuron to fire on a fixed pattern hidden in noise.

    Half the afferents form the pattern support; each spikes once, at a fixed
    bin, on every insertion.  Insertions never overlap and arrive with mean
    spacing 1/pattern_rate bins.  The output neuron sums the weighted spikes
    of the most recent ``pattern_len`` bins and fires when the sum strictly
    exceeds the threshold; every output spike potentiates afferents that
    spiked inside that window and depresses all others.
    """
    rng = np.random.default_rng(cfg.seed)
    n, dur, pat_len = cfg.n_afferents, cfg.duration, cfg.pattern_len
    support = np.sort(rng.choice(n, size=n // 2, replace=False))
    pattern_bin = rng.integers(0, pat_len, size=support.size)

    mean_gap = max(1.0, 1.0 / cfg.pattern_rate - pat_len)
    onsets = []
    t = int(rng.geometric(1.0 / mean_gap))
    while t + pat_len <= dur:
        onsets.append(t)
        t += pat_len + int(rng.geometric(1.0 / mean_gap))
    onsets = np.array(onsets, dtype=np.int64)

    spikes = rng.random((dur, n)) < cfg.noise_rate
    is_pattern = np.zeros((dur, n), dtype=bool)
    for onset in onsets:
        spikes[onset:onset + pat_len, support] = False
        spikes[onset + pattern_bin, support] = True
        is_pattern[onset + pattern_bin, support] = True

    weights = np.clip(rng.normal(cfg.init_mean, cfg.init_std, size=n), 1e-9, 1 - 1e-9)
    window_counts = np.zeros(n, dtype=np.int64)
    out_spikes = []
    for t in range(dur):
        window_counts += spikes[t]
        if t - pat_len >= 0:
            window_counts -= spikes[t - pat_len]
        v = float(weights @ window_counts)
        if v > cfg.threshold:
            out_spikes.append(t)
            in_window = window_counts > 0
            step = np.where(in_window, cfg.a_plus, -cfg.a_minus)
            weights += step * weights * (1.0 - weights)
    out_spikes = np.array(out_spikes, dtype=np.int64)

    tt, aa = np.nonzero(spikes)
    raster = np.column_stack([tt, aa, is_pattern[tt, aa].astype(np.int64)])

    result = NoiseDemoResult(weights, support, onsets, out_spikes, raster, pat_len)
    for start in range(0, dur, cfg.stats_window):
        hit, fa = result.selectivity(start, min(start + cfg.stats_window, dur))
        result.windows.append((start, hit, fa))
    return result


# ---------------------------------------------------------------------------
# Catastrophic-forgetting harness
# ---------------------------------------------------------------------------

@dataclass
class ForgetPlan:
    task_a_classes: tuple = (0, 1, 2, 3, 4)
    task_b_classes: tuple = (5, 6, 7, 8, 9)
    rehearsal_fractions: tuple = (0.0,)
    epochs: int = 20
    batch: int = 10
    eta0: float = 0.1
    eta_decay: float = 1.007
    lam: float = 0.1
    cost: str = "cross_entropy"
    seed: int = 0
    incremental: bool = False
    incremental_start: int = 500
    incremental_stride: int = 250


@dataclass
class ForgetResult:
    # rows of (epoch, task_a_acc, task_b_acc, combined_acc); epoch -1 is the
    # probe taken after phase 1, before any task-B training
    curves: list[tuple[int, float, float, float]]
    incremental: list[tuple[int, float, float, float]] = field(default_factory=list)

    def final(self) -> tuple[float, float, float]:
        _, a, b, c = self.curves[-1]
        return a, b, c


def run_forgetting(plan: ForgetPlan, train_a: FeatureMatrix, train_b: FeatureMatrix,
                   val: FeatureMatrix, n_classes: int = 10,
                   head: FcnHead | None = None) -> list[ForgetResult]:
    """Sequential-task head training with a rehearsal sweep; one result per
    entry of ``plan.rehearsal_fractions``, in order.

    Phase 1 trains a fresh head on task A once (or starts from ``head``).
    Each fraction's phase 2 continues a copy of the phase-1 head, and of the
    rng as phase 1 left it, on task B plus fraction x |task B| images drawn
    from the task-A pool, interleaved uniformly at random.  Validation
    accuracy on task A, task B, and both combined is probed after every epoch
    (and, in incremental mode, every ``incremental_stride`` images of the
    first pass).
    """
    if head is None and plan.epochs > 0 and train_a.n_rows == 0:
        raise ValueError("empty training data")
    sizes = []
    for frac in plan.rehearsal_fractions:  # all checked before any training
        n_rehearse = int(round(frac * train_b.n_rows))
        if frac < 0 or n_rehearse > train_a.n_rows:
            raise ValueError(f"rehearsal fraction {frac} needs {n_rehearse} task-A images; "
                             f"the pool holds {train_a.n_rows}")
        sizes.append(n_rehearse)

    rng = np.random.default_rng(plan.seed)
    if head is None:
        head = init_fcn_head(train_a.n_cols, n_classes, rng, cost=plan.cost,
                             eta0=plan.eta0, eta_decay=plan.eta_decay, lam=plan.lam)
        for epoch in range(plan.epochs):
            fcn_train_epoch(head, train_a, plan.batch, epoch, rng)

    in_a = np.isin(val.labels, plan.task_a_classes)
    in_b = np.isin(val.labels, plan.task_b_classes)

    def probe(h: FcnHead) -> tuple[float, float, float]:
        hits = fcn_predict(h, val) == val.labels
        return float(np.mean(hits[in_a])), float(np.mean(hits[in_b])), float(np.mean(hits))

    return [_rehearse(plan, head.copy(), copy.deepcopy(rng), n, train_a, train_b, probe)
            for n in sizes]


def _rehearse(plan: ForgetPlan, head: FcnHead, rng: np.random.Generator, n_rehearse: int,
              train_a: FeatureMatrix, train_b: FeatureMatrix, probe) -> ForgetResult:
    """Phase 2 of one rehearsal fraction; trains ``head`` in place."""
    if n_rehearse:
        idx = rng.choice(train_a.n_rows, size=n_rehearse, replace=False)
        pool = FeatureMatrix(
            np.concatenate([train_b.values, train_a.values[idx]]),
            np.concatenate([train_b.labels, train_a.labels[idx]]))
    else:
        pool = train_b

    curves = [(-1, *probe(head))]
    incremental: list[tuple[int, float, float, float]] = []
    for epoch in range(plan.epochs):
        if plan.incremental and epoch == 0:
            order = rng.permutation(pool.n_rows)
            done = 0
            next_probe = plan.incremental_start
            while done < pool.n_rows:
                stop = min(next_probe, pool.n_rows)
                fcn_minibatches(head, pool, order[done:stop], plan.batch, epoch, stop - done)
                done = stop
                incremental.append((done, *probe(head)))
                next_probe += plan.incremental_stride
        else:
            fcn_train_epoch(head, pool, plan.batch, epoch, rng)
        curves.append((epoch, *probe(head)))
    return ForgetResult(curves, incremental)

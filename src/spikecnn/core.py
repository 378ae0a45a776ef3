"""Spiking convolution layers.

Potentials accumulate across time bins within one image; neurons fire once
when their potential strictly exceeds the layer threshold.  During training,
lateral inhibition and a spatial winner-take-all competition keep the maps
learning distinct features, weight updates follow the multiplicative rule
w +/- a*w*(1-w) (which keeps every weight inside [0, 1]), and a homeostasis
gate caps how often any one map may update.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import container

KERNEL_MAGIC = b"SKRN"
KERNEL_VERSION = 1

RATE_CAP = 0.15  # rate doubling stops once either rate would exceed this


@dataclass
class ConvKernel:
    """Trainable convolution weights, each in [0, 1]."""

    weights: np.ndarray  # (maps_out, maps_in, k, k) float64
    a_plus: float = 0.004
    a_minus: float = 0.003

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        shape = self.weights.shape
        if len(shape) != 4 or min(shape) < 1 or shape[2] != shape[3]:
            raise ValueError(f"kernel weights of shape {shape} are not (maps_out, maps_in, "
                             "k, k) with every dimension >= 1")
        if not ((self.weights >= 0.0) & (self.weights <= 1.0)).all():
            raise ValueError("kernel weights must be finite and lie in [0, 1]")
        # w += a·w(1-w) keeps w in [0, 1] only while a <= 1
        if not (0 < self.a_plus <= 1 and 0 < self.a_minus <= 1):
            raise ValueError("learning rates must lie in (0, 1]")

    @property
    def maps_out(self) -> int:
        return self.weights.shape[0]

    @property
    def maps_in(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    def copy(self) -> "ConvKernel":
        return ConvKernel(self.weights.copy(), self.a_plus, self.a_minus)


def init_kernel(maps_out: int, maps_in: int, k: int, rng: np.random.Generator,
                mean: float = 0.8, std: float = 0.05,
                a_plus: float = 0.004, a_minus: float = 0.003) -> ConvKernel:
    """Fresh kernel with weights ~ N(mean, std^2) clamped into (0, 1)."""
    w = rng.normal(mean, std, size=(maps_out, maps_in, k, k))
    eps = 1e-9
    return ConvKernel(np.clip(w, eps, 1.0 - eps), a_plus, a_minus)


@dataclass
class InhibitionConfig:
    threshold: float = 15.0
    competition_radius: int = 5
    lateral_inhibition: bool = True
    pool_lateral_inhibition: bool = False

    def __post_init__(self):
        if self.competition_radius < 0:
            raise ValueError("competition radius must be >= 0")
        # below 0 a neuron would fire at potential 0, with no input
        if not 0 <= self.threshold < np.inf:
            raise ValueError("threshold must be finite and >= 0")


class LayerState:
    """Per-image bookkeeping for one convolution layer.

    ``homeo_counts`` and ``images_seen`` persist across images (the
    homeostasis window is a tumbling 5-image window); everything else resets
    at each image boundary.
    """

    def __init__(self, maps_out: int, out_h: int, out_w: int, homeo_window: int = 5,
                 homeo_limit: int = 2):
        self.out_shape = (maps_out, out_h, out_w)
        self.homeo_window = homeo_window
        self.homeo_limit = homeo_limit
        self.images_seen = 0
        self.homeo_counts = np.zeros(maps_out, dtype=np.int64)
        self.reset_image()

    def reset_image(self) -> None:
        maps_out, out_h, out_w = self.out_shape
        self.fired = np.zeros(self.out_shape, dtype=bool)
        self.location_locked = np.zeros((out_h, out_w), dtype=bool)
        self.map_updated = np.zeros(maps_out, dtype=bool)
        self.winner_positions: list[tuple[int, int]] = []

    def begin_image(self) -> None:
        """Reset transient state; roll the homeostasis window when due."""
        if self.images_seen % self.homeo_window == 0:
            self.homeo_counts[:] = 0
        self.reset_image()


def _check_input(shape: tuple, weights: np.ndarray) -> None:
    """Refuse a (..., c, H, W) input that a (maps, c', k, k) kernel cannot read."""
    *_, c, h, w = shape
    _, maps_in, k, _ = weights.shape
    if c != maps_in:
        raise ValueError(f"spike channels {c} != kernel maps_in {maps_in}")
    if k > h or k > w:
        raise ValueError(f"kernel size {k} exceeds the {h}x{w} input")


def busy_bins(dense_spikes: np.ndarray) -> np.ndarray:
    """The bins of a (T, ...) spike array that hold a spike, in order."""
    return np.flatnonzero(dense_spikes.reshape(dense_spikes.shape[0], -1).any(axis=1))


def _spiking_rows(spikes_bin: np.ndarray, k: int):
    """(flat indices of the im2col rows (c, dy, dx) of one (c, H, W) bin whose
    k x k window holds a spike, those rows as a float64 (rows, H'W') matrix),
    or None for a silent bin."""
    c = spikes_bin.shape[0]
    active = np.flatnonzero(spikes_bin.reshape(c, -1).any(axis=1))
    if not active.size:
        return None
    # A silent map's rows are all silent, so only the spiking maps are
    # windowed: win[(a, dy, dx), (u, v)] = spikes_bin[active[a], u + dy, v + dx].
    # Over a C-ordered copy a plain ndarray view is safe, and cheaper than
    # as_strided.
    spiking = np.ascontiguousarray(spikes_bin[active])
    _, h, w = spiking.shape
    sc, sh, sw = spiking.strides
    win = np.ndarray((active.size, k, k, h - k + 1, w - k + 1), spiking.dtype, spiking, 0,
                     (sc, sh, sw, sh, sw)).reshape(active.size * k * k, -1)
    held = win.any(axis=1)
    hit = np.zeros((c, k * k), dtype=bool)
    hit[active] = held.reshape(active.size, k * k)
    return np.flatnonzero(hit), win[held].astype(np.float64, copy=False)


def conv_accumulate(spikes_bin: np.ndarray, weights: np.ndarray,
                    potentials: np.ndarray) -> np.ndarray:
    """Add one bin's valid-mode correlation response into the potentials.

    ``spikes_bin`` is (maps_in, H, W); ``potentials`` is
    (maps_out, H-k+1, W-k+1) and is updated in place.  Only the im2col rows
    (c, dy, dx) whose window holds a spike are multiplied: one dgemm of the
    gathered weight columns ``W[:, rows]`` (F-ordered, as the gather leaves
    them) against those rows.  A silent row adds exact zeros, but the BLAS
    may round the shorter product differently from the all-rows one.
    """
    _check_input(spikes_bin.shape, weights)
    maps_out, _, k, _ = weights.shape
    _, h, w = spikes_bin.shape
    expect = (maps_out, h - k + 1, w - k + 1)
    if potentials.shape != expect:
        raise ValueError(f"potentials shape {potentials.shape} != {expect}")
    found = _spiking_rows(spikes_bin, k)
    if found is not None:
        rows, cols = found
        potentials += np.dot(weights.reshape(maps_out, -1)[:, rows], cols).reshape(expect)
    return potentials


def fire_and_inhibit(potentials: np.ndarray, state: LayerState, cfg: InhibitionConfig,
                     above: np.ndarray | None = None) -> np.ndarray:
    """Fire neurons above threshold, applying lateral inhibition.

    A neuron fires at most once per image.  With lateral inhibition on, only
    the highest-potential map may fire at each location, which then locks the
    location for the rest of the image (ties go to the lower map index).
    Returns the boolean (maps, H, W) plane of spikes emitted this bin.
    ``above`` is ``potentials > threshold`` when the caller has it.
    """
    eligible = (potentials > cfg.threshold if above is None else above) & ~state.fired
    if cfg.lateral_inhibition:
        eligible &= ~state.location_locked[None, :, :]
        maps = potentials.shape[0]
        hit = np.flatnonzero(eligible.any(axis=0))
        state.location_locked.flat[hit] = True
        # argmax takes the first maximum, so ties go to the lower map
        score = np.where(eligible.reshape(maps, -1)[:, hit],
                         potentials.reshape(maps, -1)[:, hit], -np.inf)
        eligible = np.zeros_like(eligible)
        eligible.reshape(maps, -1)[score.argmax(axis=0), hit] = True
    state.fired |= eligible
    return eligible


def stdp_competition(fired_now: np.ndarray, potentials: np.ndarray,
                     state: LayerState, radius: int) -> list[tuple[int, int, int]]:
    """Pick this bin's weight-update winners (training only) among the
    neurons of ``fired_now``, by ``_competition``."""
    idx = np.flatnonzero(fired_now)
    maps, pos = np.divmod(idx, potentials[0].size)
    spikes = zip(maps.tolist(), pos.tolist(), potentials.flat[idx].tolist())
    # the per-bin loop decides by its floats: no two potentials are within -inf
    return _competition(spikes, state, radius, potentials.shape[2], -np.inf)


def _competition(spikes, state: LayerState, radius: int, out_w: int, gap: float):
    """The competition over one bin's spikes, given as (map, flat position,
    potential) tuples in (map, position) order: the winners as (map, u, v).

    Each map's candidate is its highest-potential spike, the first in
    position order among equals.  Candidates are taken greedily by
    descending potential, the lower map first among equals; a winner
    excludes every other candidate that fits with it inside one
    (2*radius+1)^2 window, across all maps and for the rest of the image,
    and a map that wins is done updating for this image.

    Raises ``_Refused``, before ``state`` is touched, when a map's best two
    spikes or two adjacent candidates in that ranking are within ``gap``.
    A bin's spikes are few, and on so few plain Python costs less than
    numpy's calls.
    """
    best: dict[int, list] = {}  # per map [highest potential, its position, runner-up]
    for m, p, x in spikes:
        if state.map_updated[m]:
            continue
        top = best.get(m)
        if top is None:
            best[m] = [x, p, -np.inf]
        elif x > top[0]:
            top[:] = x, p, top[0]
        else:
            top[2] = max(top[2], x)
    if any(x - second <= gap for x, _, second in best.values()):
        raise _Refused("a map's best spike")
    ranked = sorted(best.items(), key=lambda item: -item[1][0])  # stable: lower map first
    if any(a[1][0] - b[1][0] <= gap for a, b in zip(ranked, ranked[1:])):
        raise _Refused("the competition's ranking")
    winners: list[tuple[int, int, int]] = []
    span = 2 * radius
    for m, (_, p, _) in ranked:
        u, v = divmod(p, out_w)
        if any(abs(u - pu) <= span and abs(v - pv) <= span
               for pu, pv in state.winner_positions):
            continue
        winners.append((m, u, v))
        state.winner_positions.append((u, v))
        state.map_updated[m] = True
    return winners


def stdp_update(kernel: ConvKernel, map_index: int,
                presyn_fired_before: np.ndarray) -> None:
    """Multiplicative weight update for one map's kernel.

    Weights whose presynaptic neuron spiked at or before the winner's bin are
    potentiated, all others depressed; both updates vanish at w=0 and w=1, so
    weights never leave [0, 1].
    """
    w = kernel.weights[map_index]
    step = np.where(presyn_fired_before, kernel.a_plus, -kernel.a_minus)
    w += step * w * (1.0 - w)


def depress_map(kernel: ConvKernel, map_index: int) -> None:
    """Homeostatic penalty: depress every weight of one map."""
    w = kernel.weights[map_index]
    w -= kernel.a_minus * w * (1.0 - w)


def homeostasis_gate(state: LayerState, map_index: int) -> bool:
    """Allow at most ``homeo_limit`` updates per map per tumbling window.

    Returns True when the update may proceed; False means the caller should
    apply the whole-map depressive penalty instead.
    """
    if state.homeo_counts[map_index] < state.homeo_limit:
        state.homeo_counts[map_index] += 1
        return True
    return False


def update_winners(kernel: ConvKernel, state: LayerState, dense_spikes: np.ndarray, t: int,
                   winners: list[tuple[int, int, int]]) -> None:
    """Each of bin ``t``'s winners updates its map as homeostasis allows:
    ``stdp_update`` from the input spikes of its window up to bin ``t``, or
    else ``depress_map``."""
    k = kernel.k
    for m, u, v in winners:
        if homeostasis_gate(state, m):
            stdp_update(kernel, m, dense_spikes[:t + 1, :, u:u + k, v:v + k].any(axis=0))
        else:
            depress_map(kernel, m)


def double_learning_rates(kernel: ConvKernel, images_seen: int, every: int = 1000) -> ConvKernel:
    """Double both learning rates at each ``every``-image mark while neither
    would exceed ``RATE_CAP``."""
    if images_seen > 0 and images_seen % every == 0:
        if max(kernel.a_plus, kernel.a_minus) * 2.0 <= RATE_CAP:
            kernel.a_plus *= 2.0
            kernel.a_minus *= 2.0
    return kernel


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """k x k windows of a C-ordered (c, h, w, *rest) array: the view
    win[c, dy, dx, u, v, ...] = x[c, u + dy, v + dx, ...].  ``_spiking_rows``
    builds the same view inline: it runs for every busy bin of training,
    where this call would add about 1 us to its ~70."""
    c, h, w, *rest = x.shape
    sc, sh, sw, *sr = x.strides
    return np.ndarray((c, k, k, h - k + 1, w - k + 1, *rest), x.dtype, x, 0,
                      (sc, sh, sw, sh, sw, *sr))


def _count_potentials(dense_spikes: np.ndarray, weights: np.ndarray):
    """(im2col of the per-location spike counts summed over all bins, every
    neuron's final potential as a (maps, positions) dgemm of the two, the
    most spikes at one input location)."""
    _check_input(dense_spikes.shape, weights)
    c = dense_spikes.shape[1]
    maps, _, k, _ = weights.shape
    counts = dense_spikes.sum(axis=0, dtype=np.float64)
    cols = _windows(counts, k).reshape(c * k * k, -1)
    return cols, np.dot(weights.reshape(maps, -1), cols), counts.max(initial=0)


def _rounding_bound(shape: tuple, k: int, cmax: float, top: float) -> float:
    """delta = 2 gamma_n S for a k x k layer over (T, c, H, W) input: n =
    c k^2 T cmax + T terms, cmax the most spikes at one input location, and
    S = top / (1 - gamma_n) for ``top`` a computed upper bound of every
    potential (see ``_candidate_step``)."""
    t_bins, c = shape[:2]
    n = c * k * k * t_bins * max(int(cmax), 1) + t_bins
    gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
    return 2 * gamma * top / (1 - gamma)


def _exact_sign(dense_spikes: np.ndarray, weights: np.ndarray, a, b=None,
                thr: float = 0.0) -> int:
    """The exact sign of P_a - thr, or with ``b`` of P_a - P_b, for a frozen
    layer's neurons (map, flat position, bin): ``math.fsum`` of the window's
    weights, each once per input spike up to the bin, rounds correctly."""
    k = weights.shape[2]
    out_w = dense_spikes.shape[3] - k + 1
    terms = [-thr]
    for (m, p, t), side in zip((a, b) if b else (a,), (1.0, -1.0)):
        u, v = divmod(p, out_w)
        counts = dense_spikes[:t + 1, :, u:u + k, v:v + k].sum(axis=0)
        terms += np.repeat(side * weights[m].ravel(), counts.ravel()).tolist()
    total = math.fsum(terms)
    return (total > 0) - (total < 0)


def _trajectories(dense_spikes: np.ndarray, weights: np.ndarray, pos: np.ndarray,
                  out_w: int):
    """(table, per_bin, traj) at the listed positions: table[(c, dy, dx),
    (p, t)] is position p's window in bin t, per_bin[m, p, t] what bin t adds
    to map m's potential there, and traj[m, p, t] that potential after bin t."""
    maps, _, k, _ = weights.shape
    t_bins = dense_spikes.shape[0]
    table = _windows(dense_spikes.transpose(1, 2, 3, 0).copy(), k)[:, :, :, pos // out_w,
                                                                   pos % out_w]
    table = table.reshape(weights[0].size, -1).astype(np.float64)
    per_bin = np.dot(weights.reshape(maps, -1), table).reshape(maps, pos.size, t_bins)
    return table, per_bin, _cumulate(per_bin)


_upper_ones = functools.lru_cache(lambda t: np.broadcast_to(np.tri(t).T, (t, t)))  # read-only


def _cumulate(per_bin: np.ndarray) -> np.ndarray:
    """Per-bin increments (..., T) summed over bins, by a dgemm against ones
    on and above the diagonal."""
    t_bins = per_bin.shape[-1]
    return np.dot(per_bin.reshape(-1, t_bins), _upper_ones(t_bins)).reshape(per_bin.shape)


def _first_spikes(traj: np.ndarray, above: np.ndarray, inhibit: bool, gap: float, done: int,
                  beats):
    """The spikes of (maps, positions, T) trajectories after bin ``done``,
    from their threshold tests ``above``: (map, position index, bin,
    potential) arrays, in position order within each map.  A neuron fires in
    the first bin it is above the threshold; with lateral inhibition a
    location fires once, in the first bin a map is above there: the map of
    highest potential in that bin, the lowest among equals.  ``beats(map,
    map', position index, bin)`` orders maps within ``gap`` of that
    potential; the training pass's raises (``_refuse``).  Exact
    potentials never decrease, so a neuron or location that crossed by bin
    ``done`` has fired, and a trajectory recomputed after it cannot move
    that crossing."""
    t_bins = traj.shape[-1]
    if not inhibit:
        first = t_bins - np.count_nonzero(above, axis=-1)  # T where none
        ms, ps = np.nonzero((first > done) & (first < t_bins))
        at = first[ms, ps]
        return ms, ps, at, traj[ms, ps, at]
    when = t_bins - np.count_nonzero(above.any(axis=0), axis=-1)
    ps = np.flatnonzero((when > done) & (when < t_bins))
    at = when[ps]
    # the maps above threshold in a location's first bin are those crossing there
    score = np.where(above[:, ps, at], traj[:, ps, at], -np.inf)
    ms = score.argmax(axis=0)
    cols = np.arange(ps.size)
    close = score >= score[ms, cols] - gap
    close[ms, cols] = False  # the rivals of each location's top
    for c in np.flatnonzero(close.any(axis=0)).tolist():
        rivals = sorted([ms[c], *np.flatnonzero(close[:, c]).tolist()])  # in map order
        ms[c] = functools.reduce(lambda b, m: m if beats(m, b, ps[c], at[c]) else b, rivals)
    return ms, ps, at, score[ms, cols]


def _candidate_step(dense_spikes: np.ndarray, weights: np.ndarray, thr: float, margin: float,
                    sign):
    """The candidate step of both passes: (candidate positions, there
    ``_trajectories``' table, per_bin and traj, traj > ``thr``, delta).
    ``margin`` bounds how far a potential may rise above its final value
    under ``weights``, per input spike in its window: 0 for a frozen layer.
    ``sign`` decides each threshold test within delta: ``_exact_sign`` for a
    frozen layer, while the training pass's raises (``_refuse``).

    One dgemm of the kernel against the im2col of the per-location spike
    counts gives every final potential; the candidates are the positions
    where some map reaches ``thr - 2 delta`` (margin included), and a window
    table there gives every potential after each bin.  Every term is >= 0,
    so a float sum of at most n terms, in any order (any BLAS, with or
    without FMA), lies within gamma_n s of its exact value s, gamma_n = n u
    / (1 - n u), u = 2^-53, n as in ``_rounding_bound``.  Exact potentials
    never decrease, so with S = (largest final potential plus margin) / (1 -
    gamma_n) two computations of a potential differ by at most delta = 2
    gamma_n S: a threshold test more than delta from ``thr``, or a
    comparison of potentials more than 2 delta apart, is the same in every
    order."""
    cols, final, cmax = _count_potentials(dense_spikes, weights)
    reach = final.max(axis=0)  # per position, over maps
    if margin:  # a frozen layer skips the window sums, ~4% of its pass
        reach = reach + margin * cols.sum(axis=0)
    k = weights.shape[2]
    delta = _rounding_bound(dense_spikes.shape, k, cmax, reach.max())
    pos = np.flatnonzero(reach >= thr - 2 * delta)
    table, per_bin, traj = _trajectories(dense_spikes, weights, pos, dense_spikes.shape[3] - k + 1)
    above, dist = traj > thr, np.abs(traj - thr)
    if dist.min(initial=np.inf) <= delta:
        last = (-1, -1, -1, False)  # exact potentials never decrease, and adding 0 keeps them
        for m, i, t in zip(*(a.tolist() for a in np.nonzero(dist <= delta))):
            same = last[:2] == (m, i) and (last[3] or (last[2] == t - 1 and not per_bin[m, i, t]))
            above[m, i, t] = last[3] if same else sign((m, pos[i], t), thr=thr) > 0
            last = m, i, t, above[m, i, t]
    return pos, table, per_bin, traj, above, delta


def infer_spikes(dense_spikes: np.ndarray, kernel: ConvKernel, cfg: InhibitionConfig):
    """(every spike of the layer as (map, flat output position, bin,
    potential at that bin) arrays, in position order within each map, the
    gap 2 delta of ``_candidate_step``), each potential within delta of the
    exact one; ``_exact_sign`` decides every test too close for delta."""
    sign = functools.partial(_exact_sign, dense_spikes, kernel.weights)
    pos, _, _, traj, above, delta = _candidate_step(dense_spikes, kernel.weights, cfg.threshold,
                                                    0.0, sign)
    ms, ps, at, potential = _first_spikes(
        traj, above, cfg.lateral_inhibition, 2 * delta, -1,
        lambda a, b, i, t: sign((a, pos[i], t), (b, pos[i], t)) > 0)
    return (ms, pos[ps], at, potential), 2 * delta


def infer_pooled(dense_spikes: np.ndarray, kernel: ConvKernel,
                 cfg: InhibitionConfig) -> tuple[np.ndarray, int]:
    """(the layer's spikes pooled 2x2, as (bin, map, row, col) rows in
    canonical order, the layer's spike count), from ``infer_spikes``.  Per
    map and 2x2 block the spike of highest potential passes, at its own bin:
    the first in row-major block order among equals (odd sizes lose the last
    row/column).  With ``pool_lateral_inhibition``, per pooled location the
    earliest bin, then the highest potential, then the lowest map wins."""
    spikes, gap = infer_spikes(dense_spikes, kernel, cfg)
    out_shape = tuple(side - kernel.k + 1 for side in dense_spikes.shape[2:])
    ties = gap, functools.partial(_exact_sign, dense_spikes, kernel.weights)
    return _pool_spikes(spikes, out_shape, cfg.pool_lateral_inhibition, ties), spikes[0].size


def pool_blocks(spikes: tuple, out_shape: tuple[int, int]):
    """(each spike's 2x2 block, as a flat index into the (maps, H'//2, W'//2)
    pooled maps, the mask of the spikes in one) for the spikes (map, flat
    position, ...) of an H' x W' layer: odd sizes lose the last row/column."""
    m, pos = spikes[:2]
    out_h, out_w = out_shape
    h2, w2 = out_h // 2, out_w // 2
    u, v = np.divmod(pos, out_w)
    keep = (u < 2 * h2) & (v < 2 * w2)
    return (m * (h2 * w2) + u // 2 * w2 + v // 2)[keep], keep


def _pool_spikes(spikes: tuple, out_shape: tuple[int, int], pool_inhibit: bool, ties):
    """``infer_pooled``'s events from the layer's spikes (map, flat position,
    bin, potential), listed in position order within each map.  The stable
    sorts keep that order among equals: row-major within a block, then the
    lowest map at a pooled location.  ``ties`` = (gap, ``_exact_sign``)
    makes each choice between potentials within gap exactly."""
    gap, sign = ties
    block, keep = pool_blocks(spikes, out_shape)
    cells = out_shape[0] // 2 * (out_shape[1] // 2)
    rows = np.column_stack([block, *(a[keep] for a in spikes[1:])])  # block, position, bin, x

    def beats(i, j):
        return sign(*((int(r[0]) // cells, int(r[1]), int(r[2])) for r in rows[[i, j]])) > 0

    def keep_leads(group, order, in_bin):
        """Sort the rows by ``order`` and keep the first of each group, or the
        exact top of its rivals within gap (``in_bin``: in its bin) where one
        moves the bin or pool inhibition reads the potentials."""
        nonlocal rows
        rows, group = rows[order], group[order]
        lead = np.ones(group.size, dtype=bool)
        lead[1:] = group[1:] != group[:-1]
        first = np.flatnonzero(lead)[np.cumsum(lead) - 1]
        moved = rows[:, 2] != rows[first, 2]
        close = ~lead & (rows[first, 3] - rows[:, 3] <= gap) & ~(in_bin & moved)
        for h in set(first[close & (in_bin | pool_inhibit | moved)].tolist()):
            rivals = sorted([h, *np.flatnonzero(close & (first == h)).tolist()],
                            key=lambda i: tuple(rows[i, :2]))
            rows[h] = rows[functools.reduce(lambda a, i: i if beats(i, a) else a, rivals)]
        rows = rows[lead]

    keep_leads(block, np.lexsort((-rows[:, 3], block)), False)  # each block's top
    if pool_inhibit:  # the top of each pooled location's earliest bin
        loc = rows[:, 0] % cells
        keep_leads(loc, np.lexsort((-rows[:, 3], rows[:, 2], loc)), True)
    block, at = rows[:, 0].astype(np.int64), rows[:, 2].astype(np.int64)
    order = np.lexsort((block, at))
    m, loc = np.divmod(block[order], cells)
    return np.column_stack([at[order], m, *np.divmod(loc, out_shape[1] // 2)])


class _Refused(Exception):
    """A decision of the training pass lies within its rounding bound; the
    message names it.  Only ``train_certified`` catches it."""


def _refuse(decision: str, *_args, **_kwargs):
    """The training pass's decider: it refuses to decide ``decision``."""
    raise _Refused(decision)


def train_certified(dense_spikes: np.ndarray, kernel: ConvKernel, cfg: InhibitionConfig,
                    state: LayerState) -> int | None:
    """One training image exactly as the per-bin loop of ``train.train_image``
    runs it, without a dgemm per bin: the same spike count, kernel bytes and
    final ``state``.  Returns None when the pass refuses a decision
    (``_Refused``), with the kernel and the state kept across images
    (``homeo_counts``, ``images_seen``) as they were.

    Each map updates at most once per image, by at most a_plus/4 per
    weight, so no potential exceeds its final value under the first weights
    by more than a_plus/4 per input spike in its window: the margin of
    ``_candidate_step``.  The decisions (threshold tests, lateral
    inhibition, competition, homeostasis and update) are replayed on its
    trajectories; after a bin with winners only theirs are recomputed, from
    the next bin on.  Each threshold test must clear the threshold by more
    than delta, each comparison of two potentials differ by more than 2
    delta."""
    homeo = state.homeo_counts.copy()
    saved: dict[int, np.ndarray] = {}  # kernel rows as they were, by map
    try:
        n_spikes = _replay_decisions(dense_spikes, kernel, cfg, state, saved)
    except _Refused:
        for m, row in saved.items():
            kernel.weights[m] = row
        state.homeo_counts[:] = homeo
        return None
    state.images_seen += 1
    return n_spikes


def _replay_decisions(dense_spikes: np.ndarray, kernel: ConvKernel, cfg: InhibitionConfig,
                      state: LayerState, saved: dict[int, np.ndarray]) -> int:
    """``train_certified`` up to its bookkeeping; keeps in ``saved`` each
    kernel row it changes, as it was."""
    t_bins, c, h, w = dense_spikes.shape
    maps, _, k, _ = kernel.weights.shape
    out_w = w - k + 1
    thr, inhibit = cfg.threshold, cfg.lateral_inhibition
    # the update's own rounding adds at most a few ulps of 1 to a weight
    pos, table, per_bin, traj, above, delta = _candidate_step(
        dense_spikes, kernel.weights, thr, kernel.a_plus / 4 + 2.0 ** -50,
        functools.partial(_refuse, "threshold"))
    gap = 2 * delta
    state.begin_image()
    fired = np.zeros((maps, pos.size), dtype=bool)
    done = -1  # the last bin whose spikes are final
    while True:
        # every spike after bin ``done`` under the current trajectories
        ms, ps, at, potential = _first_spikes(traj, above, inhibit, gap, done,
                                              functools.partial(_refuse, "inhibition"))
        # the competition bin by bin, up to the first bin with a winner
        order = np.lexsort((ps, ms, at))  # by bin, in (map, position) order within one
        rows = zip(at[order].tolist(), ms[order].tolist(), pos[ps[order]].tolist(),
                   potential[order].tolist())
        won, t = [], -1
        for t, group in itertools.groupby(rows, key=operator.itemgetter(0)):
            won = _competition([s[1:] for s in group], state, cfg.competition_radius, out_w, gap)
            if won:
                break
        settled = at <= t
        fired[ms[settled], ps[settled]] = True
        if not won:
            break
        for m, _, _ in won:
            saved[m] = kernel.weights[m].copy()
        update_winners(kernel, state, dense_spikes, t, won)
        done = t
        if t + 1 == t_bins:
            break
        # only the winners' trajectories change, from the next bin on
        ms = [m for m, _, _ in won]
        after = np.dot(kernel.weights[ms].reshape(len(ms), -1), table)
        per_bin[ms, :, t + 1:] = after.reshape(len(ms), pos.size, t_bins)[..., t + 1:]
        traj[ms] = _cumulate(per_bin[ms])
        if np.abs(traj[ms] - thr).min() <= delta:
            raise _Refused("threshold after an update")
        above[ms] = traj[ms] > thr
    state.fired.reshape(maps, -1)[:, pos] = fired
    if inhibit:
        state.location_locked.flat[pos] = fired.any(axis=0)
    return int(np.count_nonzero(fired))


def readout_columns(kernel: ConvKernel) -> np.ndarray:
    """The kernel's weights as a C-ordered (c k^2, maps) matrix: row r is
    the weight column W[:, r], so ``WT[rows].T`` is a contiguous gather with
    the layout and strides of ``W[:, rows]``."""
    return np.ascontiguousarray(kernel.weights.reshape(kernel.maps_out, -1).T)


def global_max_potential(dense_spikes: np.ndarray, kernel: ConvKernel,
                         columns: np.ndarray) -> np.ndarray:
    """Per-bin fresh response, per-map spatial max, summed across bins.

    Yields one real value per output map; the layer's potentials are reset
    between bins rather than accumulated.  A silent bin's maxima are all 0.0
    and adding them is exact, so only bins that hold a spike are visited.
    Each bin's maxima come straight from its dgemm, ``conv_accumulate``'s
    own call: every term is >= 0, so the response holds no -0 and equals the
    response added to fresh zeros.  ``columns`` is ``readout_columns(kernel)``,
    which a frozen readout makes once.
    """
    _check_input(dense_spikes.shape, kernel.weights)
    total = np.zeros(kernel.maps_out)
    for t in busy_bins(dense_spikes):
        rows, cols = _spiking_rows(dense_spikes[t], kernel.k)
        total += np.dot(columns[rows].T, cols).max(axis=1)
    return total


def save_kernel(path, kernel: ConvKernel) -> None:
    """Kernel checkpoint: magic, version, shape, rates, then f64 weights."""
    header = ("<5I2d", KERNEL_VERSION, *kernel.weights.shape, kernel.a_plus, kernel.a_minus)
    container.write(path, KERNEL_MAGIC, header, kernel.weights.astype("<f8"))


def load_kernel(path) -> ConvKernel:
    r = container.Reader(path, KERNEL_MAGIC, "kernel checkpoint")
    version, *shape, a_plus, a_minus = r.unpack("<5I2d")
    if version != KERNEL_VERSION:
        raise ValueError(f"unsupported kernel version {version}")
    weights = r.array("<f8", *shape)
    r.done()
    return ConvKernel(weights.copy(), a_plus, a_minus)

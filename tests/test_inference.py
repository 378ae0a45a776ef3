"""Frozen-layer inference and 2x2 pooling against oracles.

``per_bin_oracle`` is the reference layer: it accumulates potentials one bin
at a time, fires in every bin as ``fire_and_inhibit`` does, and keeps the
full (T, M, H', W') spike record.  Where its floats are too close to call a
threshold test, or lateral inhibition between maps, it decides by the exact
sums (``exact_key``), so an exact tie goes to the documented rule, not to
rounding.  ``oracle_max_pool`` is the reference pooling over that record, by
the exact potentials.  The pipeline's pooled ``SpikeTensor`` (a second
layer's input) and its spike-count features, ``infer_spikes`` and
``infer_pooled`` must match them bit for bit.  Where a float test is too
close to call, the candidate pass takes the exact fallback,
``core._exact_sign``.
"""

import contextlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn import core
from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, infer_pooled, infer_spikes, init_kernel)
from spikecnn.encode import SpikeTensor
from spikecnn.train import ConvPipeline, extract_features


def exact_key(terms):
    """A key that orders sums of floats as their exact values: the
    ``math.fsum`` of ``terms``, then the fsum of what that leaves, and so on
    until nothing is left.  fsum rounds correctly and rounding keeps order,
    so the first entry where two keys differ orders the two exact sums."""
    key = []
    while not key or key[-1]:
        key.append(math.fsum([*terms, *(-x for x in key)]))
    return tuple(key)


def oracle_fire(dense, weights, potentials, state, cfg, t):
    """Bin ``t``'s fire step over the float ``potentials``.  A potential
    near the threshold, and the map at a location where several are
    eligible, are decided by the exact sums of the weights that the
    neurons' windows read up to bin ``t``."""
    k = weights.shape[2]

    def key(m, u, v):
        win = dense[:t + 1, :, u:u + k, v:v + k].astype(bool)
        return exact_key(np.broadcast_to(weights[m], win.shape)[win].tolist())

    eligible = potentials > cfg.threshold
    # a float sum of n >= 0 terms lies within n 2^-53 of its exact value,
    # relative: far less than 1e-9 for these layers
    for m, u, v in zip(*np.nonzero(np.abs(potentials - cfg.threshold)
                                   <= 1e-9 * max(cfg.threshold, 1.0))):
        eligible[m, u, v] = key(m, u, v) > exact_key([cfg.threshold])
    eligible &= ~state.fired
    if cfg.lateral_inhibition:
        eligible &= ~state.location_locked
        for u, v in zip(*np.nonzero(eligible.any(axis=0))):
            # max keeps the first of equals: the lowest map
            top = max(np.flatnonzero(eligible[:, u, v]), key=lambda m: key(m, u, v))
            eligible[:, u, v] = False
            eligible[top, u, v] = state.location_locked[u, v] = True
    state.fired |= eligible
    return eligible, key


def per_bin_oracle(dense, kernel, cfg):
    """(the (T, M, H', W') spike record, each fired neuron's exact key (see
    ``exact_key``) by (map, row, col))."""
    t_bins, c, h, w = dense.shape
    out_h, out_w = h - kernel.k + 1, w - kernel.k + 1
    state = LayerState(kernel.maps_out, out_h, out_w)
    potentials = np.zeros((kernel.maps_out, out_h, out_w))
    keys = {}
    out = np.zeros((t_bins, kernel.maps_out, out_h, out_w), dtype=bool)
    for t in range(t_bins):
        conv_accumulate(dense[t], kernel.weights, potentials)
        out[t], key = oracle_fire(dense, kernel.weights, potentials, state, cfg, t)
        for m, u, v in zip(*np.nonzero(out[t])):
            keys[m, u, v] = key(m, u, v)
    return out, keys


def oracle_max_pool(spikes, keys, pool_lateral_inhibition=False):
    """2x2 pooling of a (T, M, H', W') spike record: per map and block the
    highest-potential spike passes at its own bin (ties in row-major block
    order); with pool inhibition only the dominant map (earliest bin, then
    highest potential, then lowest map) survives at each pooled location.
    ``keys`` are ``per_bin_oracle``'s."""
    t_bins, maps, h, w = spikes.shape
    h2, w2 = h // 2, w // 2
    first_bin = spikes.argmax(axis=0)
    tops = {}  # per (map, pooled row, pooled col): (bin, key) of its top
    for m, u, v in zip(*np.nonzero(spikes[:, :, :2 * h2, :2 * w2].any(axis=0))):
        block = (m, u // 2, v // 2)  # neurons come in row-major order
        if block not in tops or keys[m, u, v] > tops[block][1]:
            tops[block] = first_bin[m, u, v], keys[m, u, v]
    out = np.zeros((t_bins, maps, h2, w2), dtype=bool)
    if not pool_lateral_inhibition:
        for (m, u, v), (t, _) in tops.items():
            out[t, m, u, v] = True
        return out
    best = {}  # per pooled location: (map, bin, key) of the dominant map
    for (m, u, v), (t, key) in sorted(tops.items()):  # lowest map first
        held = best.get((u, v))
        if held is None or t < held[1] or (t == held[1] and key > held[2]):
            best[u, v] = m, t, key
    for (u, v), (m, t, _) in best.items():
        out[t, m, u, v] = True
    return out


def count_spikes(spikes):
    """Per-neuron spike count across bins, flattened map-major."""
    return spikes.sum(axis=0, dtype=np.float64).ravel()


def assert_spikes_match(spikes, record, keys, within=0.0):
    """``spikes``, (map, flat position, bin, potential) arrays, list exactly
    the (T, M, H', W') spike ``record`` in (map, position) order, each with
    its neuron's exact potential (the first entry of its key) to ``within``."""
    t_bins, maps, _, out_w = record.shape
    ms, ps = np.nonzero(record.any(axis=0).reshape(maps, -1))
    bins = record.reshape(t_bins, maps, -1).argmax(axis=0)[ms, ps]
    for got, want in zip(spikes[:3], (ms, ps, bins)):
        np.testing.assert_array_equal(got, want)
    exact = [keys[m, p // out_w, p % out_w][0] for m, p in zip(ms, ps)]
    np.testing.assert_allclose(spikes[3], exact, rtol=0, atol=within)


def assert_matches_oracle(dense, kernel, cfg):
    want_spikes, want_keys = per_bin_oracle(dense, kernel, cfg)
    want_pooled = oracle_max_pool(want_spikes, want_keys, cfg.pool_lateral_inhibition)
    pipe = ConvPipeline(kernel, cfg)
    tensor = SpikeTensor.from_dense(dense)
    layer2, n_spikes = pipe.pooled(tensor)
    assert layer2.shape == want_pooled.shape
    np.testing.assert_array_equal(layer2.events, SpikeTensor.from_dense(want_pooled).events)
    assert n_spikes == int(want_spikes.sum())

    features, n_spikes = pipe.features(tensor)
    np.testing.assert_array_equal(features, count_spikes(want_pooled))
    assert features.dtype == bool  # spike-count features are bits
    assert n_spikes == int(want_spikes.sum())
    known, n_known = pipe.features(tensor, (layer2, n_spikes))  # from the pooled result
    np.testing.assert_array_equal(known, features)
    assert n_known == n_spikes


# Weights on a quarter grid make potentials exact multiples of 0.25, so
# thresholds on the same grid produce potentials equal to the threshold
# (which must not fire) and equal potentials across maps (lowest map wins).
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def layer_cases(draw):
    maps = draw(st.integers(1, 5))
    maps_in = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    h = draw(st.integers(k, k + 7))
    w = draw(st.integers(k, k + 7))
    t_bins = draw(st.integers(1, 6))
    elements = QUARTERS if draw(st.booleans()) else st.floats(0.0, 1.0)
    weights = draw(hnp.arrays(np.float64, (maps, maps_in, k, k), elements=elements))
    if maps > 1 and draw(st.booleans()):
        weights[-1] = weights[0]  # identical maps tie at every location
    dense = draw(hnp.arrays(np.bool_, (t_bins, maps_in, h, w)))
    threshold = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.75, 8.0]))
    cfg = InhibitionConfig(threshold=threshold,
                           lateral_inhibition=draw(st.booleans()),
                           pool_lateral_inhibition=draw(st.booleans()))
    return dense, ConvKernel(weights), cfg


@settings(max_examples=300, deadline=None)
@given(layer_cases())
def test_pipeline_matches_the_reference_layer(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize("threshold", [15.0, 8.0])
@pytest.mark.parametrize("lateral", [True, False])
@pytest.mark.parametrize("pool_lateral", [True, False])
def test_reference_layer_matches_per_bin_loop(threshold, lateral, pool_lateral):
    # The reference geometry: 30 maps of 5x5 over 27x27 ON/OFF input.
    rng = np.random.default_rng(20)
    kernel = init_kernel(30, 2, 5, rng)
    cfg = InhibitionConfig(threshold=threshold, lateral_inhibition=lateral,
                           pool_lateral_inhibition=pool_lateral)
    for _ in range(10):
        dense = rng.random((12, 2, 27, 27)) < rng.uniform(0.01, 0.08)
        dense[10:] = False  # silent bins
        assert_matches_oracle(dense, kernel, cfg)


def assert_infers_like_the_oracle(dense, kernel, cfg):
    """``infer_spikes`` lists the reference layer's spikes, each at its bin,
    with its potential within half the gap it returns.  Returns the oracle's
    spike record."""
    spikes, gap = infer_spikes(dense, kernel, cfg)
    order = np.lexsort((spikes[1], spikes[0]))
    record, keys = per_bin_oracle(dense, kernel, cfg)
    assert_spikes_match([a[order] for a in spikes], record, keys, gap / 2)
    return record


@settings(max_examples=300, deadline=None)
@given(layer_cases())
def test_infer_fired_matches_per_bin_loop(case):
    assert_infers_like_the_oracle(*case)


# numpy hands a 1-map kernel or a 1x1 output map to gemv, not dgemm
@pytest.mark.parametrize("maps, k, size", [(1, 3, 9), (4, 3, 3), (1, 4, 4), (30, 5, 5)])
@pytest.mark.parametrize("lateral", [True, False])
def test_infer_fired_on_gemv_shapes(maps, k, size, lateral):
    rng = np.random.default_rng(100 * maps + 10 * k + size)
    cfg = InhibitionConfig(threshold=0.15 * 2 * k * k, lateral_inhibition=lateral)
    for _ in range(20):
        kernel = ConvKernel(rng.random((maps, 2, k, k)))
        dense = rng.random((6, 2, size, size)) < 0.25
        assert_infers_like_the_oracle(dense, kernel, cfg)


@pytest.mark.parametrize("lateral", [True, False])
def test_infer_fired_with_locations_spiking_in_several_bins(lateral):
    # AER-like input: a location may spike in many bins, so counts reach T
    rng = np.random.default_rng(3)
    cfg = InhibitionConfig(threshold=12.0, lateral_inhibition=lateral)
    first_bins = set()
    for _ in range(20):
        kernel = ConvKernel(rng.random((6, 2, 3, 3)))
        dense = rng.random((8, 2, 10, 10)) < 0.4
        dense[:, :, 4, 4] = True
        record = assert_infers_like_the_oracle(dense, kernel, cfg)
        first_bins |= set(np.nonzero(record)[0].tolist())
    assert len(first_bins) > 2  # crossings in several bins were decided


def test_pool_inhibited_features_over_more_than_256_maps():
    # the bits come from infer_pooled's events, not a SpikeTensor of u8 channels
    rng = np.random.default_rng(21)
    kernel = init_kernel(300, 2, 5, rng)
    cfg = InhibitionConfig(threshold=15.0, pool_lateral_inhibition=True)
    dense = rng.random((12, 2, 27, 27)) < 0.05
    matrix, n_spikes = extract_features(ConvPipeline(kernel, cfg), [SpikeTensor.from_dense(dense)])
    spikes, keys = per_bin_oracle(dense, kernel, cfg)
    want = oracle_max_pool(spikes, keys, True).any(axis=0)
    assert want[256:].any()  # maps past u8 fire
    np.testing.assert_array_equal(matrix.values[0], want.ravel())
    assert n_spikes == spikes.sum()


@contextlib.contextmanager
def counting_fallbacks():
    """Calls of ``core._exact_sign``, the exact fallback of the float tests."""
    calls = []
    exact = core._exact_sign

    def counting(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    with mock.patch.object(core, "_exact_sign", counting):
        yield calls


@pytest.fixture
def fallback_calls():
    with counting_fallbacks() as calls:
        yield calls


def two_spike_case(maps):
    """Two spikes in bin 0 under 0.5 weights: every map's potential is
    exactly 1.0 from bin 0 on."""
    dense = np.zeros((3, 1, 2, 2), dtype=bool)
    dense[0, 0, 0] = True
    return dense, ConvKernel(np.full((maps, 1, 2, 2), 0.5))


@pytest.mark.parametrize("lateral", [True, False])
def test_potential_on_the_threshold_takes_the_fallback(fallback_calls, lateral):
    dense, kernel = two_spike_case(1)
    cfg = InhibitionConfig(threshold=1.0, lateral_inhibition=lateral)
    (maps, _, _, _), gap = infer_spikes(dense, kernel, cfg)
    assert len(fallback_calls) == 1 and gap > 0  # bins that add nothing reuse it
    assert not maps.size  # 1.0 > 1.0 is false


@pytest.mark.parametrize("toward, fires", [(2.0, False), (0.0, True)])
def test_potential_one_ulp_from_the_threshold_takes_the_fallback(fallback_calls,
                                                                 toward, fires):
    # 1.0 is exact, but another summation order could round it to a
    # neighbour: within the rounding bound nothing is decided
    dense, kernel = two_spike_case(1)
    (maps, _, _, _), gap = infer_spikes(dense, kernel,
                                        InhibitionConfig(threshold=np.nextafter(1.0, toward)))
    assert len(fallback_calls) == 1 and gap > 0
    assert maps.size == fires


def test_potential_clear_of_the_threshold_needs_no_fallback(fallback_calls):
    dense, kernel = two_spike_case(1)
    for threshold, fires in ((0.75, True), (1.25, False)):
        (maps, _, _, _), gap = infer_spikes(dense, kernel, InhibitionConfig(threshold=threshold))
        assert maps.size == fires and gap > 0
    assert fallback_calls == []


def test_tied_maps_take_the_fallback(fallback_calls):
    dense, kernel = two_spike_case(3)
    (maps, _, _, _), _ = infer_spikes(dense, kernel, InhibitionConfig(threshold=0.75))
    assert len(fallback_calls) == 2  # maps 1 and 2 against map 0
    np.testing.assert_array_equal(maps, [0])  # the lowest map
    # without inhibition a tie decides nothing
    (maps, _, _, _), _ = infer_spikes(dense, kernel, InhibitionConfig(threshold=0.75,
                                                                      lateral_inhibition=False))
    assert len(fallback_calls) == 2
    np.testing.assert_array_equal(maps, [0, 1, 2])


# 0.1 + (0.2 + 0.3) == 0.6 but (0.1 + 0.2) + 0.3 == 0.6000000000000001:
# the same three weights, summed in two orders
A, B, C = 0.1, 0.2, 0.3


def test_exact_tie_between_maps_goes_to_the_lower_map():
    # Two maps read the same three spikes at one location, two in bin 0 and
    # one in bin 1.  Map 0's weights there are (b, c, a), so the per-bin
    # loop sums (b + c) + a; map 1's are (a, b, c), and it sums (a + b) + c.
    # The exact sums are equal.
    dense = np.zeros((2, 3, 1, 1), dtype=bool)
    dense[0, [0, 1]] = dense[1, 2] = True
    kernel = ConvKernel(np.array([[B, C, A], [A, B, C]]).reshape(2, 3, 1, 1))
    assert (B + C) + A < (A + B) + C  # rounding alone would pick map 1
    record = assert_infers_like_the_oracle(dense, kernel, InhibitionConfig(threshold=0.5))
    np.testing.assert_array_equal(np.argwhere(record), [[1, 0, 0, 0]])


def position_tie_case(threshold):
    """One map of 1x1 weights (a, b, c) over three channels, with a 2x2
    output: one pooling block.  Position (0, 0) reads b and c in bin 0 and a
    in bin 1, so the per-bin loop sums a + (b + c); position (0, 1) reads a
    and b in bin 0 and c in bin 2, and sums (a + b) + c.  The exact sums are
    equal."""
    dense = np.zeros((3, 3, 2, 2), dtype=bool)
    dense[0, [1, 2], 0, 0] = dense[1, 0, 0, 0] = True
    dense[0, [0, 1], 0, 1] = dense[2, 2, 0, 1] = True
    kernel = ConvKernel(np.array([A, B, C]).reshape(1, 3, 1, 1))
    return dense, kernel, InhibitionConfig(threshold=threshold)


def test_exact_tie_between_positions_goes_to_the_first():
    # the block's top is (0, 0), which fired in bin 1; (0, 1) fired in bin 2
    assert A + (B + C) < (A + B) + C  # rounding alone would pick (0, 1)
    events, _ = infer_pooled(*position_tie_case(0.55))
    np.testing.assert_array_equal(events, [[1, 0, 0, 0]])
    assert_pools_like_the_oracle(*position_tie_case(0.55), certified=False)


def test_exact_sum_above_the_threshold_fires():
    # a + b + c exceeds 0.6 by 2^-55, although the float a + (b + c) is 0.6
    assert A + (B + C) == 0.6
    record = assert_infers_like_the_oracle(*position_tie_case(0.6))
    np.testing.assert_array_equal(np.argwhere(record), [[1, 0, 0, 0], [2, 0, 0, 1]])


def pooled_events(dense, kernel, cfg):
    """``oracle_max_pool`` over ``per_bin_oracle``'s record, as canonical
    events, and the layer's spike count."""
    spikes, keys = per_bin_oracle(dense, kernel, cfg)
    pooled = oracle_max_pool(spikes, keys, cfg.pool_lateral_inhibition)
    return SpikeTensor.from_dense(pooled).events, int(spikes.sum())


def assert_pools_like_the_oracle(dense, kernel, cfg, certified=None):
    """``infer_pooled`` returns ``pooled_events`` in canonical order; with
    ``certified`` given, its floats decided everything (or, if False, not).
    Returns whether they did."""
    want_events, want_spikes = pooled_events(dense, kernel, cfg)
    with counting_fallbacks() as calls:
        events, n_spikes = infer_pooled(dense, kernel, cfg)
    np.testing.assert_array_equal(events, want_events)  # canonical order too
    assert n_spikes == want_spikes
    if certified is not None:
        assert (not calls) == certified, "certified" if calls else "fell back"
    return not calls


def test_infer_pooled_matches_the_oracle_pool():
    paths = Counter()

    @settings(max_examples=300, deadline=None)
    @given(layer_cases())
    def check(case):
        paths["certified" if assert_pools_like_the_oracle(*case) else "fallback"] += 1

    check()
    assert paths["certified"] and paths["fallback"], paths


def block_case(bins, second, threshold=0.25):
    """One map over a 2x2 output (a single pooling block): k = 1 over two
    input maps, weights 0.5 and ``second``.  Neuron (0, 0) reads 0.5 from map
    0 in bin ``bins[0]``, neuron (0, 1) ``second`` from map 1 in bin
    ``bins[1]``; each potential is one weight, exact in any order."""
    dense = np.zeros((3, 2, 2, 2), dtype=bool)
    dense[bins[0], 0, 0, 0] = dense[bins[1], 1, 0, 1] = True
    return dense, ConvKernel(np.array([0.5, second]).reshape(1, 2, 1, 1)), \
        InhibitionConfig(threshold=threshold)


def block_delta(dense, top):
    return core._rounding_bound(dense.shape, 1, 1, top)


def test_block_top_tied_across_bins_takes_the_fallback():
    assert_pools_like_the_oracle(*block_case((0, 1), 0.5), certified=False)
    # the first in row-major order passes, at its own bin
    events, _ = infer_pooled(*block_case((1, 0), 0.5))
    np.testing.assert_array_equal(events, [[1, 0, 0, 0]])


def test_block_top_tied_in_one_bin_is_certified():
    assert_pools_like_the_oracle(*block_case((1, 1), 0.5), certified=True)


@pytest.mark.parametrize("bins", [(0, 1), (1, 0)])
def test_block_gap_is_certified_only_beyond_twice_delta(bins):
    dense, _, _ = block_case(bins, 0.5)
    second = 0.5
    while second - 0.5 <= 2 * block_delta(dense, second):
        second = np.nextafter(second, 1.0)  # the first weight clear of 2 delta
    assert_pools_like_the_oracle(*block_case(bins, second), certified=True)
    within = 0.5 + 1.5 * block_delta(dense, second)  # beyond delta, within 2 delta
    assert block_delta(dense, within) < within - 0.5 <= 2 * block_delta(dense, within)
    assert_pools_like_the_oracle(*block_case(bins, within), certified=False)


@pytest.mark.parametrize("pool_lateral", [True, False])
def test_maps_tied_at_a_pooled_location_in_one_bin(pool_lateral):
    # map 0 reads input map 0 at neuron (0, 0), map 1 input map 1 at (1, 1):
    # one block each, tied in bin 0
    dense = np.zeros((2, 2, 2, 2), dtype=bool)
    dense[0, 0, 0, 0] = dense[0, 1, 1, 1] = True
    kernel = ConvKernel(np.array([[0.5, 0.0], [0.0, 0.5]]).reshape(2, 2, 1, 1))
    cfg = InhibitionConfig(threshold=0.25, pool_lateral_inhibition=pool_lateral)
    # only pool inhibition compares the two maps
    assert_pools_like_the_oracle(dense, kernel, cfg, certified=not pool_lateral)

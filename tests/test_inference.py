"""Single-pass frozen-layer inference and plane pooling against oracles.

``per_bin_oracle`` is the reference layer: it accumulates potentials one bin
at a time and fires through ``fire_and_inhibit`` with a ``LayerState``,
exactly as training does.  ``oracle_max_pool`` is the reference pooling over
the full (T, M, H', W') spike record.  ``infer_image`` and ``max_pool`` must
match them bit for bit, and so must the pipeline's pooled planes, its
second-layer ``SpikeTensor`` and its spike-count features.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, fire_and_inhibit, infer_image,
                           init_kernel)
from spikecnn.encode import SpikeTensor
from spikecnn.train import ConvPipeline


def per_bin_oracle(dense, kernel, cfg):
    t_bins, c, h, w = dense.shape
    out_h, out_w = h - kernel.k + 1, w - kernel.k + 1
    state = LayerState(kernel.maps_out, c, out_h, out_w, h, w)
    potentials = np.zeros((kernel.maps_out, out_h, out_w))
    fired_potential = np.zeros_like(potentials)
    out = np.zeros((t_bins, kernel.maps_out, out_h, out_w), dtype=bool)
    for t in range(t_bins):
        conv_accumulate(dense[t], kernel.weights, potentials)
        out[t] = fire_and_inhibit(potentials, state, cfg)
        fired_potential[out[t]] = potentials[out[t]]
    return out, fired_potential


def oracle_max_pool(spikes, spike_potentials, pool_lateral_inhibition=False):
    """2x2 pooling of a (T, M, H', W') spike record: per map and block the
    highest-potential spike passes at its own bin (ties in row-major block
    order); with pool inhibition only the dominant map (earliest bin, then
    highest potential, then lowest map) survives at each pooled location."""
    t_bins, maps, h, w = spikes.shape
    h2, w2 = h // 2, w // 2
    spikes = spikes[:, :, :h2 * 2, :w2 * 2]
    pot = spike_potentials[:, :h2 * 2, :w2 * 2]
    fired = spikes.any(axis=0)
    first_bin = np.where(fired, spikes.argmax(axis=0), t_bins)

    def blocks(a):
        return a.reshape(maps, h2, 2, w2, 2).transpose(0, 1, 3, 2, 4).reshape(maps, h2, w2, 4)

    blocks_pot = blocks(np.where(fired, pot, -np.inf))
    m_idx, u_idx, v_idx = np.nonzero(blocks(fired).any(axis=-1))
    sel = blocks_pot.argmax(axis=-1)[m_idx, u_idx, v_idx]
    sel_bin = blocks(first_bin)[m_idx, u_idx, v_idx, sel]
    sel_pot = blocks_pot[m_idx, u_idx, v_idx, sel]
    out = np.zeros((t_bins, maps, h2, w2), dtype=bool)
    if not pool_lateral_inhibition:
        out[sel_bin, m_idx, u_idx, v_idx] = True
        return out
    taken = np.zeros((h2, w2), dtype=bool)
    for i in np.lexsort((m_idx, -sel_pot, sel_bin)):
        u, v = u_idx[i], v_idx[i]
        if not taken[u, v]:
            taken[u, v] = True
            out[sel_bin[i], m_idx[i], u, v] = True
    return out


def oracle_block_max(spikes, spike_potentials):
    """Highest potential among the fired neurons of each 2x2 block."""
    fired = spikes.any(axis=0)
    maps, h, w = fired.shape
    pot = np.where(fired, spike_potentials, -np.inf)[:, :h // 2 * 2, :w // 2 * 2]
    return pot.reshape(maps, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def count_spikes(spikes):
    """Per-neuron spike count across bins, flattened map-major."""
    return spikes.sum(axis=0, dtype=np.float64).ravel()


def assert_planes_match(planes, spikes, potentials):
    """``planes`` hold exactly the (T, M, H', W') record ``spikes``; silent
    neurons read bin 0 and potential 0."""
    fired = spikes.any(axis=0)
    np.testing.assert_array_equal(planes.fired, fired)
    np.testing.assert_array_equal(planes.first_bin, np.where(fired, spikes.argmax(axis=0), 0))
    np.testing.assert_array_equal(planes.potential, np.where(fired, potentials, 0.0))


def assert_matches_oracle(dense, kernel, cfg):
    want_spikes, want_potentials = per_bin_oracle(dense, kernel, cfg)
    assert_planes_match(infer_image(dense, kernel, cfg), want_spikes, want_potentials)

    pipe = ConvPipeline(kernel, cfg)
    tensor = SpikeTensor.from_dense(dense)
    want_pooled = oracle_max_pool(want_spikes, want_potentials, cfg.pool_lateral_inhibition)
    pooled, n_spikes = pipe.pooled(tensor)
    assert_planes_match(pooled, want_pooled,
                        oracle_block_max(want_spikes, want_potentials))
    assert n_spikes == int(want_spikes.sum())

    layer2, _ = pipe.pooled(tensor, as_tensor=True)
    assert layer2.shape == want_pooled.shape
    np.testing.assert_array_equal(layer2.events, SpikeTensor.from_dense(want_pooled).events)

    features, n_spikes = pipe.features_one(tensor)
    np.testing.assert_array_equal(features, count_spikes(want_pooled))
    assert features.dtype == bool  # spike-count features are bits
    assert n_spikes == int(want_spikes.sum())


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
    threshold = draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.75, 8.0]))
    cfg = InhibitionConfig(threshold=threshold,
                           lateral_inhibition=draw(st.booleans()),
                           pool_lateral_inhibition=draw(st.booleans()))
    return dense, ConvKernel(weights), cfg


@settings(max_examples=300, deadline=None)
@given(layer_cases())
def test_infer_image_matches_per_bin_loop(case):
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

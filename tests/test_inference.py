"""Single-pass frozen-layer inference against a per-bin reference loop.

``per_bin_oracle`` is the reference: it accumulates potentials one bin at a
time and fires through ``fire_and_inhibit`` with a ``LayerState``, exactly as
training does.  ``infer_image`` must match it bit for bit, and the pipeline's
spike-count features must equal the per-neuron spike counts of ``max_pool``'s
output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn.core import (ConvKernel, InhibitionConfig, LayerState,
                           conv_accumulate, fire_and_inhibit, infer_image,
                           init_kernel, max_pool)
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


def count_spikes(spikes):
    """Per-neuron spike count across bins, flattened map-major."""
    return spikes.sum(axis=0, dtype=np.float64).ravel()


def assert_matches_oracle(dense, kernel, cfg):
    spikes, potentials = infer_image(dense, kernel, cfg)
    want_spikes, want_potentials = per_bin_oracle(dense, kernel, cfg)
    np.testing.assert_array_equal(spikes, want_spikes)
    np.testing.assert_array_equal(potentials, want_potentials)

    features, n_spikes = ConvPipeline(kernel, cfg).features_one(SpikeTensor.from_dense(dense))
    pooled = max_pool(want_spikes, want_potentials, cfg.pool_lateral_inhibition)
    np.testing.assert_array_equal(features, count_spikes(pooled))
    assert features.dtype == np.float64
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

"""Kernel-reconstruction tests: upsampling, stamp superposition, rendering."""

import numpy as np
import pytest

from spikecnn.recon import (ReconFeature, montage, reconstruct_l2,
                            reconstruct_l4, render_feature, render_gray,
                            upsample_pool_feature, write_pgm, write_ppm)


def brute_force_l4(w2, w1, canvas=14):
    """Plain-loop superposition (test oracle, independent of the library
    path): upsample each slice, stamp the scaled first-layer kernel centered
    at every nonzero entry, clip at the borders, sum over slices."""
    maps_out, maps_in, k, _ = w2.shape
    feats = []
    for m in range(maps_out):
        acc = np.zeros((2, canvas, canvas))
        for s in range(maps_in):
            for i in range(k):
                for j in range(k):
                    val = w2[m, s, i, j]
                    if val == 0.0:
                        continue
                    p, q = 2 * i, 2 * j
                    for c in range(2):
                        for di in range(-2, 3):
                            for dj in range(-2, 3):
                                r, cc = p + di, q + dj
                                if 0 <= r < canvas and 0 <= cc < canvas:
                                    acc[c, r, cc] += val * w1[s, c, di + 2, dj + 2]
        feats.append(acc)
    return feats


class TestReconstructL2:
    def test_zero_kernel(self):
        feats = reconstruct_l2(np.zeros((30, 2, 5, 5)))
        assert len(feats) == 30
        np.testing.assert_array_equal(feats[0].on, 0.0)
        np.testing.assert_array_equal(feats[29].off, 0.0)

    def test_identity_mapping_of_weights(self):
        w = np.zeros((1, 2, 5, 5))
        w[0, 0, :, 2] = 1.0  # saturated vertical ON bar
        feats = reconstruct_l2(w)
        np.testing.assert_array_equal(feats[0].on[:, 2], 1.0)
        assert feats[0].on.sum() == 5.0
        np.testing.assert_array_equal(feats[0].off, 0.0)
        assert feats[0].source_map == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct_l2(np.zeros((30, 3, 5, 5)))


class TestUpsample:
    def test_zero_slice(self):
        np.testing.assert_array_equal(upsample_pool_feature(np.zeros((5, 5))),
                                      np.zeros((10, 10)))

    def test_single_value_moves_to_doubled_index(self):
        s = np.zeros((5, 5))
        s[1, 1] = 0.7
        up = upsample_pool_feature(s)
        assert up[2, 2] == pytest.approx(0.7)
        assert up.sum() == pytest.approx(0.7)

    def test_corner_values(self):
        s = np.zeros((5, 5))
        s[0, 0] = 1.0
        s[4, 4] = 2.0
        up = upsample_pool_feature(s)
        assert up[0, 0] == 1.0 and up[8, 8] == 2.0
        assert up.sum() == 3.0


class TestReconstructL4:
    def test_zero_second_layer(self):
        feats = reconstruct_l4(np.zeros((3, 4, 5, 5)), np.random.default_rng(0).uniform(0, 1, (4, 2, 5, 5)))
        assert len(feats) == 3
        for f in feats:
            np.testing.assert_array_equal(f.on, 0.0)
            np.testing.assert_array_equal(f.off, 0.0)

    def test_single_placement_centers_kernel(self):
        w1 = np.zeros((1, 2, 5, 5))
        w1[0, 0] = np.arange(25, dtype=float).reshape(5, 5) / 25
        w2 = np.zeros((1, 1, 5, 5))
        w2[0, 0, 1, 1] = 1.0  # upsampled to (2, 2)
        feats = reconstruct_l4(w2, w1)
        np.testing.assert_allclose(feats[0].on[0:5, 0:5], w1[0, 0])
        assert np.abs(feats[0].on[5:]).max() == 0.0
        np.testing.assert_array_equal(feats[0].off, 0.0)

    def test_border_placement_is_clipped(self):
        w1 = np.ones((1, 2, 5, 5))
        w2 = np.zeros((1, 1, 5, 5))
        w2[0, 0, 0, 0] = 1.0  # upsampled to (0, 0): stamp loses 2 rows/cols
        feats = reconstruct_l4(w2, w1)
        assert feats[0].on.sum() == pytest.approx(9.0)
        assert feats[0].on[0, 0] == 1.0

    def test_overlapping_stamps_add(self):
        w1 = np.zeros((1, 2, 5, 5))
        w1[0, 0] = 1.0
        w2 = np.zeros((1, 1, 5, 5))
        w2[0, 0, 1, 1] = 1.0  # centered at (2, 2)
        w2[0, 0, 2, 2] = 1.0  # centered at (4, 4); stamps overlap on [2..4]^2
        feats = reconstruct_l4(w2, w1)
        overlap = feats[0].on[2:5, 2:5]
        np.testing.assert_array_equal(overlap, 2.0)
        assert feats[0].on[0, 0] == 1.0

    def test_linearity_exact(self):
        rng = np.random.default_rng(1)
        w1 = rng.uniform(0, 1, size=(3, 2, 5, 5))
        a = rng.uniform(0, 1, size=(2, 3, 5, 5))
        b = rng.uniform(0, 1, size=(2, 3, 5, 5))
        fa = reconstruct_l4(a, w1)
        fb = reconstruct_l4(b, w1)
        fab = reconstruct_l4(a + b, w1)
        for x, y, z in zip(fa, fb, fab):
            np.testing.assert_allclose(z.on, x.on + y.on, atol=1e-12)
            np.testing.assert_allclose(z.off, x.off + y.off, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w1 = rng.uniform(0, 1, size=(3, 2, 5, 5))
            w2 = np.where(rng.random((2, 3, 5, 5)) < 0.3,
                          rng.uniform(0, 1, size=(2, 3, 5, 5)), 0.0)
            got = reconstruct_l4(w2, w1)
            want = brute_force_l4(w2, w1)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g.on, w[0], atol=1e-12)
                np.testing.assert_allclose(g.off, w[1], atol=1e-12)

    def test_support_inside_canvas(self):
        rng = np.random.default_rng(3)
        w1 = rng.uniform(0, 1, size=(4, 2, 5, 5))
        w2 = rng.uniform(0, 1, size=(3, 4, 5, 5))
        for f in reconstruct_l4(w2, w1):
            assert f.on.shape == (14, 14) and f.off.shape == (14, 14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruct_l4(np.zeros((2, 5, 5, 5)), np.zeros((4, 2, 5, 5)))


class TestRendering:
    def test_render_feature_channels(self):
        f = ReconFeature(on=np.eye(4), off=np.zeros((4, 4)), source_map=0)
        rgb = render_feature(f)
        assert rgb[0, 0, 1] == 255 and rgb[0, 0, 0] == 0
        assert rgb.dtype == np.uint8

    def test_render_all_zero(self):
        f = ReconFeature(on=np.zeros((4, 4)), off=np.zeros((4, 4)), source_map=0)
        assert render_feature(f).sum() == 0
        assert render_gray(np.zeros((3, 3))).sum() == 0

    def test_pgm_ppm_files(self, tmp_path):
        g = (np.arange(12, dtype=np.uint8).reshape(3, 4) * 20)
        pgm = tmp_path / "x.pgm"
        write_pgm(pgm, g)
        raw = pgm.read_bytes()
        assert raw == b"P5\n4 3\n255\n" + bytes(range(0, 240, 20))
        rgb = np.stack([g, g, g], axis=-1)
        ppm = tmp_path / "x.ppm"
        write_ppm(ppm, rgb)
        raw = ppm.read_bytes()
        assert raw == b"P6\n4 3\n255\n" + bytes(v for v in range(0, 240, 20) for _ in range(3))

    def test_montage_grid(self):
        tiles = [np.full((5, 5), i, dtype=np.uint8) for i in range(7)]
        sheet = montage(tiles, cols=3, pad=1)
        assert sheet.shape == (3 * 6 + 1, 3 * 6 + 1)
        assert sheet[1, 1] == 0
        assert sheet[7, 1] == 3  # second grid row, first column tile

    def test_montage_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            montage([np.zeros((2, 2), dtype=np.uint8),
                     np.zeros((3, 3), dtype=np.uint8)], cols=2)

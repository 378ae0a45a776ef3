"""Visualize learned kernels as input-space features.

First-layer kernels are already in input coordinates; second-layer kernels
are carried back through the pooling layer by upsampling each 5x5 slice onto
a 10x10 grid (entry (i, j) lands at (2i, 2j)) and stamping the matching
first-layer kernel, scaled by the entry value, centered at each nonzero
position on a 14x14 canvas.  Overlapping stamps add; stamps near the border
are clipped to the canvas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container


@dataclass(frozen=True)
class ReconFeature:
    """ON/OFF input-space feature for one map."""

    on: np.ndarray
    off: np.ndarray
    source_map: int


def reconstruct_l2(kernel_weights: np.ndarray) -> list[ReconFeature]:
    """First conv layer: each map's ON and OFF kernel slices, verbatim."""
    w = np.asarray(kernel_weights, dtype=np.float64)
    if w.ndim != 4 or w.shape[1] != 2:
        raise ValueError("expected (maps, 2, k, k) first-layer weights")
    return [ReconFeature(w[m, 0].copy(), w[m, 1].copy(), m) for m in range(w.shape[0])]


def upsample_pool_feature(slice_5x5: np.ndarray) -> np.ndarray:
    """Undo 2x2 pooling: value at (i, j) moves to (2i, 2j) of a 10x10 grid."""
    s = np.asarray(slice_5x5, dtype=np.float64)
    k = s.shape[0]
    out = np.zeros((2 * k, 2 * k))
    out[::2, ::2] = s
    return out


def _stamp(canvas: np.ndarray, stamp: np.ndarray, center: tuple[int, int]) -> None:
    """Add ``stamp`` centered at ``center``, clipped to the canvas."""
    kh, kw = stamp.shape
    ch, cw = canvas.shape
    r0 = center[0] - kh // 2
    c0 = center[1] - kw // 2
    rs, re = max(r0, 0), min(r0 + kh, ch)
    cs, ce = max(c0, 0), min(c0 + kw, cw)
    if rs >= re or cs >= ce:
        return
    canvas[rs:re, cs:ce] += stamp[rs - r0:re - r0, cs - c0:ce - c0]


def reconstruct_l4(second_weights: np.ndarray, first_weights: np.ndarray,
                   canvas_size: int = 14) -> list[ReconFeature]:
    """Second conv layer: superpose first-layer kernels onto a 14x14 canvas.

    For each output map, every input slice is upsampled to the pre-pooling
    grid; each nonzero entry stamps the corresponding first-layer kernel
    (times the entry value) centered at the entry's position, separately for
    the ON and OFF channels, and the per-slice canvases are summed.
    """
    w2 = np.asarray(second_weights, dtype=np.float64)
    w1 = np.asarray(first_weights, dtype=np.float64)
    if w2.ndim != 4 or w1.ndim != 4 or w2.shape[1] != w1.shape[0] or w1.shape[1] != 2:
        raise ValueError("shape mismatch between layer kernels")
    features = []
    for m in range(w2.shape[0]):
        on = np.zeros((canvas_size, canvas_size))
        off = np.zeros((canvas_size, canvas_size))
        for k in range(w2.shape[1]):
            up = upsample_pool_feature(w2[m, k])
            for p, q in zip(*np.nonzero(up)):
                _stamp(on, up[p, q] * w1[k, 0], (p, q))
                _stamp(off, up[p, q] * w1[k, 1], (p, q))
        features.append(ReconFeature(on, off, m))
    return features


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_feature(feature: ReconFeature) -> np.ndarray:
    """(H, W, 3) uint8 pseudo-color image: ON -> green, OFF -> red.

    Normalized per feature to its max absolute value; all-zero features
    render black.
    """
    on = np.clip(feature.on, 0.0, None)
    off = np.clip(feature.off, 0.0, None)
    scale = max(on.max(initial=0.0), off.max(initial=0.0))
    rgb = np.zeros((*on.shape, 3), dtype=np.uint8)
    if scale > 0:
        rgb[:, :, 1] = np.round(on / scale * 255).astype(np.uint8)
        rgb[:, :, 0] = np.round(off / scale * 255).astype(np.uint8)
    return rgb


def render_gray(values: np.ndarray) -> np.ndarray:
    v = np.clip(values, 0.0, None)
    scale = v.max(initial=0.0)
    if scale <= 0:
        return np.zeros(v.shape, dtype=np.uint8)
    return np.round(v / scale * 255).astype(np.uint8)


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray, dtype=np.uint8)
    h, w = gray.shape
    container.write(path, f"P5\n{w} {h}\n255\n".encode(), gray)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255)."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    container.write(path, f"P6\n{w} {h}\n255\n".encode(), rgb)


def montage(tiles: list[np.ndarray], cols: int, pad: int = 1) -> np.ndarray:
    """Grid of equally sized tiles (gray or RGB), padded with zeros."""
    if not tiles:
        raise ValueError("montage needs at least one tile")
    tile_shape = tiles[0].shape
    rows = (len(tiles) + cols - 1) // cols
    th, tw = tile_shape[0], tile_shape[1]
    depth = tile_shape[2:] if len(tile_shape) == 3 else ()
    sheet = np.zeros((rows * (th + pad) + pad, cols * (tw + pad) + pad, *depth),
                     dtype=np.uint8)
    for i, tile in enumerate(tiles):
        if tile.shape != tile_shape:
            raise ValueError("all tiles must share one shape")
        r, c = divmod(i, cols)
        r0 = pad + r * (th + pad)
        c0 = pad + c * (tw + pad)
        sheet[r0:r0 + th, c0:c0 + tw] = tile
    return sheet

"""Visualize learned kernels as input-space features.

First-layer kernels are already in input coordinates; second-layer kernels
are carried back through the pooling layer: entry (i, j) of each slice
stamps the matching first-layer kernel, scaled by the entry value, centered
at (2i, 2j) of a 14x14 canvas.  Overlapping stamps add; stamps near the
border are clipped to the canvas.
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


def reconstruct_l4(second_weights: np.ndarray, first_weights: np.ndarray,
                   canvas_size: int = 14) -> list[ReconFeature]:
    """Second conv layer: superpose first-layer kernels onto a 14x14 canvas.

    One broadcast add per (slice, entry), in slice-major, row-major order,
    stamps ``w2[:, s, i, j] * w1[s]`` into every map's ON and OFF canvas at
    (2i, 2j).  Each pixel sums the same products in the same order as a
    loop over each map's nonzero entries: a zero entry adds a signed zero,
    which leaves a canvas that starts at +0.0 unchanged.  The canvas is
    padded so that every stamp fits, then cropped; weights must be finite,
    since 0 * inf would add NaN.
    """
    w2 = np.asarray(second_weights, dtype=np.float64)
    w1 = np.asarray(first_weights, dtype=np.float64)
    if w2.ndim != 4 or w1.ndim != 4 or w2.shape[1] != w1.shape[0] or w1.shape[1] != 2:
        raise ValueError("shape mismatch between layer kernels")
    if not (np.isfinite(w2).all() and np.isfinite(w1).all()):
        raise ValueError("layer kernels must be finite")
    kh, kw = w1.shape[2:]
    side = max(canvas_size, 2 * max(w2.shape[2:])) + max(kh, kw)
    canvas = np.zeros((w2.shape[0], 2, side, side))
    for s, i, j in np.ndindex(w2.shape[1:]):
        canvas[:, :, 2 * i:2 * i + kh, 2 * j:2 * j + kw] += w2[:, s, i, j, None, None, None] * w1[s]
    crop = canvas[:, :, kh // 2:kh // 2 + canvas_size, kw // 2:kw // 2 + canvas_size]
    return [ReconFeature(on, off, m) for m, (on, off) in enumerate(crop)]


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

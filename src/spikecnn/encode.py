"""Retina-style spike encoding.

Grayscale images are converted to ON/OFF contrast maps with a
difference-of-Gaussian filter and its negation, then latency-coded: the
strongest responses spike first.  Event-camera recordings (AER) are ingested
into the same spike-tensor form so the rest of the pipeline is agnostic to
the source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container

DOG_RADIUS = 3  # 7x7 kernel support
DEFAULT_DOG_THRESHOLD = 50.0
DEFAULT_BINS = 10
DEFAULT_SILENT_BINS = 2
# images per dog_filter call in encode_dataset: its four (n, H, W) float64
# buffers stay near 2 MB for 27x27 images
_FILTER_CHUNK = 64

IDX_IMAGE_MAGIC = b"\x00\x00\x08\x03"  # big-endian u32 0x803
IDX_LABEL_MAGIC = b"\x00\x00\x08\x01"

CACHE_MAGIC = b"SPKT"
CACHE_VERSION = 1
POOLED_MAGIC = b"SPKP"  # a spike cache plus per-image spike counts

ON, OFF = 0, 1


@dataclass(eq=False)
class SpikeTensor:
    """Binary spike events on a (bin, channel, row, col) lattice.

    Events are stored sparsely as a (n, 4) uint8 array of (t, c, u, v)
    quadruples in canonical (t, c, u, v) order, at most one event per
    coordinate.  ``shape`` is (bins, channels, rows, cols) and includes any
    trailing silent bins, which simply hold no events.
    """

    shape: tuple[int, int, int, int]
    events: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.events).reshape(-1, 4)
        # checked before the u8 cast, which would wrap 299 to 43
        if (ev < 0).any() or (ev >= np.minimum(self.shape, 256)).any():
            raise ValueError(f"event coordinate out of range for shape {self.shape} or u8")
        ev = np.ascontiguousarray(ev, dtype=np.uint8)
        # Each row read as a big-endian u32 is its (t, c, u, v) sort key, so
        # keys that strictly increase prove canonical order and no duplicate
        keys = ev.view(">u4").ravel()
        if not (keys[1:] > keys[:-1]).all():
            ev = ev[np.lexsort((ev[:, 3], ev[:, 2], ev[:, 1], ev[:, 0]))]
            if (ev[1:] == ev[:-1]).all(axis=1).any():
                raise ValueError("duplicate spike event")
        self.events = ev

    @property
    def bins(self) -> int:
        return self.shape[0]

    @property
    def channels(self) -> int:
        return self.shape[1]

    @property
    def n_events(self) -> int:
        return self.events.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize as a boolean (T, C, H, W) array."""
        out = np.zeros(self.shape, dtype=bool)
        if self.events.shape[0]:
            t, c, u, v = self.events.T
            out[t, c, u, v] = True
        return out

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SpikeTensor":
        return cls(tuple(dense.shape), np.argwhere(dense))


def make_dog_kernel(sigma_center: float, sigma_surround: float) -> np.ndarray:
    """Build the 7x7 two-Gaussian difference filter.

    Center sigma smaller than surround gives the ON (bright-center) filter;
    swapping the sigmas negates the kernel elementwise and gives OFF.
    """
    if sigma_center <= 0 or sigma_surround <= 0:
        raise ValueError("DoG sigmas must be positive")
    r = DOG_RADIUS
    i, j = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    d2 = i * i + j * j

    def gauss(sigma):
        return np.exp(-d2 / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)

    return gauss(sigma_center) - gauss(sigma_surround)


def dog_filter(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-mode correlation of an image, or of each image of a (..., H, W)
    stack; borders are zero padded.

    The sum follows ``scipy.signal.correlate2d(mode="same", boundary="fill")``
    term for term, so the result matches it bit for bit: kernel rows in
    order into one running sum that starts at +0.0; within a row, each run
    of four products summed as ((p0 + p1) + p2) + p3 and then added; the
    row's last ``width mod 4`` products added one at a time.  Products with
    the zero padding are summed too, which settles the sign of zeros.
    """
    image = np.asarray(image, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if image.ndim < 2 or min(image.shape[-2:]) < 1:
        raise ValueError("image must be a 2-D matrix or a stack of them")
    if kernel.ndim != 2 or min(kernel.shape) < 1:
        raise ValueError("kernel must be a non-empty 2-D matrix")
    kh, kw = kernel.shape
    h, w = image.shape[-2:]
    top, left = (kh - 1) // 2, (kw - 1) // 2
    padded = np.pad(image, [(0, 0)] * (image.ndim - 2)
                    + [(top, kh - 1 - top), (left, kw - 1 - left)])
    out = np.zeros(image.shape)
    group = np.empty(image.shape)
    term = np.empty(image.shape)

    def product(j, k, into):
        return np.multiply(padded[..., j:j + h, k:k + w], kernel[j, k], out=into)

    for j in range(kh):
        for k in range(0, kw - 3, 4):
            product(j, k, group)
            for kk in range(k + 1, k + 4):
                group += product(j, kk, term)
            out += group
        for k in range(kw - kw % 4, kw):
            out += product(j, k, term)
    return out


def _equal_count_bins(n: int, n_bins: int) -> np.ndarray:
    """Bin of each of ``n`` ordered events split into ``n_bins`` nearly
    equal-count bins, the first (n mod n_bins) bins taking one extra."""
    base, extra = divmod(n, n_bins)
    counts = np.full(n_bins, base, dtype=np.int64)
    counts[:extra] += 1
    return np.repeat(np.arange(n_bins), counts)


def latency_encode(on: np.ndarray, off: np.ndarray, threshold: float,
                   n_bins: int = DEFAULT_BINS,
                   silent_bins: int = DEFAULT_SILENT_BINS) -> SpikeTensor:
    """Latency-code a pair of ON/OFF contrast maps into a spike tensor.

    A pixel spikes once iff its response exceeds ``threshold`` strictly.  The
    arrival time of each spike is 1/response; spikes are sorted by arrival
    (ties broken by ON before OFF, then row-major pixel order) and split into
    ``n_bins`` nearly equal-count bins, the first (count mod n_bins) bins
    taking one extra.  ``silent_bins`` empty bins are appended.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if on.shape != off.shape:
        raise ValueError("ON/OFF map shapes differ")
    flat = np.stack([on, off]).ravel()
    idx = np.flatnonzero(flat > threshold)  # in (channel, row, col) order
    # ascending arrival time 1/response == descending response; sorting on
    # -response keeps the order well defined for any threshold sign, and a
    # stable sort keeps equal responses in (channel, row, col) order
    idx = idx[np.argsort(-flat[idx], kind="stable")]
    c, u, v = np.unravel_index(idx, (2, *on.shape))
    events = np.column_stack([_equal_count_bins(idx.size, n_bins), c, u, v])
    return SpikeTensor((n_bins + silent_bins, 2, *on.shape), events)


def load_idx_images(images_path, labels_path):
    """Load an IDX image/label pair.

    28x28 images are cropped to 27x27 by dropping the outermost (last) row
    and column band.  Returns (images, labels): a read-only uint8 (n, H, W)
    view of the file's pixels and int64 (n,).  ``encode_dataset`` casts each
    chunk it filters to float64, which is exact for u8.
    """
    r = container.Reader(images_path, IDX_IMAGE_MAGIC, "IDX image file")
    n, h, w = r.unpack(">3I")
    images = r.array(np.uint8, n, h, w)
    r.done()
    labels = load_idx_labels(labels_path)
    if labels.shape[0] != n:
        raise ValueError(f"image/label count mismatch ({n} vs {labels.shape[0]})")
    if h == 28 and w == 28:
        images = images[:, :27, :27]
    return images, labels


def write_idx_images(path, images: np.ndarray) -> None:
    images = container.u8(images, "IDX pixels")
    container.write(path, IDX_IMAGE_MAGIC, (">3I", *images.shape), images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = container.u8(labels, "IDX labels")
    container.write(path, IDX_LABEL_MAGIC, (">I", labels.shape[0]), labels)


def load_idx_labels(path) -> np.ndarray:
    r = container.Reader(path, IDX_LABEL_MAGIC, "IDX label file")
    n, = r.unpack(">I")
    labels = r.array(np.uint8, n).astype(np.int64)
    r.done()
    return labels


def load_aer_recording(path, n_bins: int, silent_bins: int = DEFAULT_SILENT_BINS,
                       geometry: tuple[int, int] = (34, 34),
                       crop: tuple[int, int] | None = (27, 27),
                       saccade_offsets=None) -> SpikeTensor:
    """Read a 5-byte-per-event AER recording into a spike tensor.

    Event layout (big-endian): x (8 bits), y (8 bits), polarity (1 bit),
    timestamp (23 bits, microseconds).  Events are sorted by timestamp and
    split into ``n_bins`` equal-count bins; duplicate (bin, polarity, x, y)
    events collapse to one spike.  When ``crop`` is set, the sensor frame is
    center-cropped and events outside the window are dropped.

    ``saccade_offsets`` optionally corrects for camera motion: rows of
    (t_start_us, dy, dx), each applied to events at or after its start time.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if buf.size % 5:
        raise ValueError(f"AER file length {buf.size} is not a multiple of 5")
    gh, gw = geometry
    ev = buf.reshape(-1, 5).astype(np.int64)
    x = ev[:, 0]
    y = ev[:, 1]
    pol = ev[:, 2] >> 7
    ts = ((ev[:, 2] & 0x7F) << 16) | (ev[:, 3] << 8) | ev[:, 4]
    if ev.shape[0]:
        if x.max() >= gw or y.max() >= gh:
            raise ValueError("AER event coordinates outside declared geometry")

    if saccade_offsets:
        # Piecewise-constant shift: each event takes the offset of the last
        # phase whose start time is <= its timestamp.
        offsets = sorted((int(t0), int(dy), int(dx)) for t0, dy, dx in saccade_offsets)
        starts = np.array([o[0] for o in offsets])
        phase = np.searchsorted(starts, ts, side="right")
        dy = np.array([0] + [o[1] for o in offsets])[phase]
        dx = np.array([0] + [o[2] for o in offsets])[phase]
        y = y + dy
        x = x + dx

    shape_hw = crop if crop is not None else (gh, gw)
    shape = (n_bins + silent_bins, 2, shape_hw[0], shape_hw[1])
    if crop is not None:
        ch, cw = crop
        r0, c0 = (gh - ch) // 2, (gw - cw) // 2
        keep = (y >= r0) & (y < r0 + ch) & (x >= c0) & (x < c0 + cw)
        x, y, pol, ts = x[keep] - c0, y[keep] - r0, pol[keep], ts[keep]

    order = np.argsort(ts, kind="stable")
    x, y, pol = x[order], y[order], pol[order]
    if x.shape[0] == 0:
        return SpikeTensor(shape, np.empty((0, 4), dtype=np.uint8))

    # Polarity bit 1 is the brightness-increase (ON) channel.
    chan = np.where(pol == 1, ON, OFF)
    quads = np.column_stack([_equal_count_bins(x.shape[0], n_bins), chan, y, x])
    quads = np.unique(quads, axis=0)
    return SpikeTensor(shape, quads.astype(np.uint8))


def _cache_parts(tensors) -> list:
    """The SPKT header and per-tensor parts of a spike cache."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot write an empty cache")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ValueError("all cached tensors must share one shape")
    return [("<6I", CACHE_VERSION, *shape, len(tensors)),
            *(part for t in tensors for part in (container.varint(t.n_events), t.events))]


def _read_tensors(r: container.Reader) -> list[SpikeTensor]:
    version, *shape, count = r.unpack("<6I")
    if version != CACHE_VERSION:
        raise ValueError(f"unsupported cache version {version}")
    if count == 0:
        raise ValueError("spike cache is empty")
    shape = tuple(shape)
    return [SpikeTensor(shape, r.array(np.uint8, r.varint(), 4).copy()) for _ in range(count)]


def write_cache(path, tensors) -> None:
    """Write an encoded dataset cache (magic SPKT, little-endian header)."""
    container.write(path, CACHE_MAGIC, *_cache_parts(tensors))


def read_cache(path) -> list[SpikeTensor]:
    r = container.Reader(path, CACHE_MAGIC, "spike cache")
    out = _read_tensors(r)
    r.done()
    return out


def write_pooled(path, tensors, spike_counts) -> None:
    """Write a frozen layer's pooled spikes of the first images of a split
    and, per image, the layer's spike count before pooling: magic SPKP, the
    spike cache's header and tensor parts, then the counts as little-endian
    int64."""
    tensors = list(tensors)
    counts = np.asarray(spike_counts, dtype="<i8")
    if counts.shape != (len(tensors),):
        raise ValueError(f"{counts.size} spike counts for {len(tensors)} pooled tensors")
    container.write(path, POOLED_MAGIC, *_cache_parts(tensors), counts)


def read_pooled(path, shape: tuple, limit: int) -> list[tuple[SpikeTensor, int]]:
    """(pooled tensor, spike count) pairs of a ``write_pooled`` file, which
    must hold tensors of ``shape``, at most ``limit`` of them."""
    r = container.Reader(path, POOLED_MAGIC, "pooled spike cache")
    tensors = _read_tensors(r)
    counts = r.array("<i8", len(tensors))
    r.done()
    if tensors[0].shape != tuple(shape):
        raise ValueError(f"pooled spike cache holds tensors of shape {tensors[0].shape}, "
                         f"not {tuple(shape)}")
    if len(tensors) > limit:
        raise ValueError(f"pooled spike cache holds {len(tensors)} images, "
                         f"the split {limit}")
    if (counts < 0).any():
        raise ValueError("pooled spike cache holds a negative spike count")
    return list(zip(tensors, counts.tolist()))


def encode_dataset(images: np.ndarray, threshold: float = DEFAULT_DOG_THRESHOLD,
                   n_bins: int = DEFAULT_BINS, silent_bins: int = DEFAULT_SILENT_BINS,
                   sigma_center: float = 1.0, sigma_surround: float = 2.0) -> list[SpikeTensor]:
    """Encode a stack of images; pure per image, order preserved.

    One correlation per image: the OFF kernel is the ON kernel negated, and
    IEEE negation is exact, so ``-resp`` is the OFF response bit for bit.
    """
    kernel = make_dog_kernel(sigma_center, sigma_surround)
    out = []
    for start in range(0, len(images), _FILTER_CHUNK):
        for resp in dog_filter(images[start:start + _FILTER_CHUNK], kernel):
            out.append(latency_encode(resp, -resp, threshold, n_bins, silent_bins))
    return out

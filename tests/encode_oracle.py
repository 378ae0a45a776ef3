"""Reference retina: two DoG correlations per image (the ON kernel and its
sigma-swapped OFF twin) and a four-key lexsort on (-response, channel, row,
col).  ``encode_dataset`` must reproduce its events exactly."""

import numpy as np
from scipy.signal import correlate2d

from spikecnn.encode import DOG_RADIUS, ON, OFF, SpikeTensor, _equal_count_bins


def oracle_dog_kernel(sigma_center, sigma_surround):
    r = DOG_RADIUS
    i, j = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    d2 = i * i + j * j

    def gauss(sigma):
        return np.exp(-d2 / (2.0 * sigma**2)) / (2.0 * np.pi * sigma**2)

    return gauss(sigma_center) - gauss(sigma_surround)


def oracle_dog_filter(image, kernel):
    image = np.asarray(image, dtype=np.float64)
    return correlate2d(image, kernel, mode="same", boundary="fill", fillvalue=0.0)


def oracle_latency_encode(on, off, threshold, n_bins, silent_bins):
    h, w = on.shape
    rows, keys = [], []
    for channel, resp in ((ON, on), (OFF, off)):
        mask = resp > threshold
        if not mask.any():
            continue
        uu, vv = np.nonzero(mask)
        rows.append(np.column_stack([np.full(uu.shape, channel), uu, vv]))
        keys.append(-resp[mask])
    shape = (n_bins + silent_bins, 2, h, w)
    if not rows:
        return SpikeTensor(shape, np.empty((0, 4), dtype=np.uint8))
    coords = np.concatenate(rows).astype(np.int64)
    key = np.concatenate(keys)
    coords = coords[np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0], key))]
    bins = _equal_count_bins(coords.shape[0], n_bins)
    events = np.column_stack([bins, coords[:, 0], coords[:, 1], coords[:, 2]])
    return SpikeTensor(shape, events.astype(np.uint8))


def oracle_encode_dataset(images, threshold=50.0, n_bins=10, silent_bins=2,
                          sigma_center=1.0, sigma_surround=2.0):
    on_k = oracle_dog_kernel(sigma_center, sigma_surround)
    off_k = oracle_dog_kernel(sigma_surround, sigma_center)
    return [oracle_latency_encode(oracle_dog_filter(img, on_k), oracle_dog_filter(img, off_k),
                                  threshold, n_bins, silent_bins)
            for img in images]

"""Encoding-layer tests: DoG filters, latency coding, dataset loaders."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn import container
from spikecnn.encode import (SpikeTensor, dog_filter, encode_dataset,
                             latency_encode, load_aer_recording, load_idx_images,
                             load_idx_labels, make_dog_kernel, read_cache,
                             write_cache, write_idx_images, write_idx_labels)
from encode_oracle import oracle_dog_filter, oracle_encode_dataset


def dog_value(i, j, s1, s2):
    """Direct evaluation of the two-Gaussian difference (test oracle)."""
    d2 = i * i + j * j
    return (np.exp(-d2 / (2 * s1**2)) / (2 * np.pi * s1**2)
            - np.exp(-d2 / (2 * s2**2)) / (2 * np.pi * s2**2))


def brute_force_same_conv(image, kernel):
    """Double-loop same-mode correlation with zero padding (test oracle)."""
    h, w = image.shape
    out = np.zeros((h, w))
    r = kernel.shape[0] // 2
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    uu, vv = u + di, v + dj
                    if 0 <= uu < h and 0 <= vv < w:
                        acc += image[uu, vv] * kernel[di + r, dj + r]
            out[u, v] = acc
    return out


class TestDogKernel:
    def test_center_value(self):
        k = make_dog_kernel(1, 2)
        assert k.shape == (7, 7)
        assert k[3, 3] == pytest.approx(3 / (8 * np.pi), rel=1e-12)
        assert k[3, 3] == pytest.approx(dog_value(0, 0, 1, 2), rel=1e-12)

    def test_corner_value(self):
        k = make_dog_kernel(1, 2)
        assert k[6, 6] == pytest.approx(dog_value(3, 3, 1, 2), rel=1e-12)
        assert k[6, 6] == pytest.approx(-4.174e-3, rel=1e-3)

    def test_swap_symmetry(self):
        on = make_dog_kernel(1, 2)
        off = make_dog_kernel(2, 1)
        np.testing.assert_array_equal(off, -on)

    @pytest.mark.parametrize("s1,s2", [(0, 1), (1, 0), (-1, 2)])
    def test_invalid_sigma(self, s1, s2):
        with pytest.raises(ValueError):
            make_dog_kernel(s1, s2)


class TestDogFilter:
    def test_zero_image(self):
        k = make_dog_kernel(1, 2)
        out = dog_filter(np.zeros((27, 27)), k)
        np.testing.assert_array_equal(out, 0.0)

    def test_impulse_embeds_kernel(self):
        k = make_dog_kernel(1, 2)
        img = np.zeros((27, 27))
        img[13, 13] = 1.0
        out = dog_filter(img, k)
        np.testing.assert_allclose(out[10:17, 10:17], k, atol=1e-15)
        assert np.abs(out[:10]).max() == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        k = make_dog_kernel(1, 2)
        for _ in range(3):
            img = rng.uniform(0, 255, size=(27, 27))
            got = dog_filter(img, k)
            want = brute_force_same_conv(img, k)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            dog_filter(np.zeros(5), make_dog_kernel(1, 2))


def documented_order_correlate(image, kernel):
    """Scalar same-mode correlation summed in ``dog_filter``'s documented
    order, zero-padding products included (test oracle)."""
    h, w = image.shape
    kh, kw = kernel.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    pixels, weights = image.tolist(), kernel.tolist()
    out = np.empty((h, w))
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for j in range(kh):
                uu = u - top + j
                row = pixels[uu] if 0 <= uu < h else [0.0] * w
                terms = [weights[j][k] * (row[v - left + k] if 0 <= v - left + k < w else 0.0)
                         for k in range(kw)]
                k = 0
                while k + 4 <= kw:
                    acc += ((terms[k] + terms[k + 1]) + terms[k + 2]) + terms[k + 3]
                    k += 4
                for term in terms[k:]:
                    acc += term
            out[u, v] = acc
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_FINITE = dict(allow_nan=False, allow_infinity=False, width=64)


class TestDogFilterSummationOrder:
    """``dog_filter`` against a scalar loop in its documented order and
    against ``scipy.signal.correlate2d``, bit for bit (signed zeros included),
    on kernels narrower than, equal to and wider than one group of four."""

    @given(st.data(), st.integers(1, 9), st.integers(1, 9), st.integers(1, 30),
           st.integers(1, 30), st.integers(1, 3))
    @example(data=None, kh=7, kw=4, h=3, w=2, n=2)
    @example(data=None, kh=1, kw=8, h=1, w=1, n=1)
    @example(data=None, kh=9, kw=9, h=30, w=4, n=3)
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_both_references(self, data, kh, kw, h, w, n):
        if data is None:  # an explicit example: fixed random values
            rng = np.random.default_rng(kh * 100 + kw)
            kernel = rng.normal(size=(kh, kw))
            images = np.round(rng.uniform(-300, 300, size=(n, h, w)))
            images[rng.random((n, h, w)) < 0.4] = 0.0
        else:
            kernel = data.draw(hnp.arrays(np.float64, (kh, kw),
                                          elements=st.floats(-2, 2, **_FINITE)))
            images = data.draw(hnp.arrays(np.float64, (n, h, w),
                                          elements=st.floats(-1e3, 1e3, **_FINITE)))
        stacked = dog_filter(images, kernel)
        assert stacked.shape == images.shape
        for image, got in zip(images, stacked):
            assert_same_bits(dog_filter(image, kernel), got)
            assert_same_bits(got, documented_order_correlate(image, kernel))
            assert_same_bits(got, oracle_dog_filter(image, kernel))

    def test_corpus_matches_correlate2d(self):
        from synth_digits import make_dataset
        images, _ = make_dataset(100, np.random.default_rng(5))
        for kernel in (make_dog_kernel(1, 2), make_dog_kernel(2, 1)):
            stacked = dog_filter(images, kernel)
            for image, got in zip(images, stacked):
                assert_same_bits(got, oracle_dog_filter(image, kernel))

    def test_rejects_bad_kernel(self):
        for kernel in (np.ones(7), np.ones((0, 3)), np.ones((1, 7, 7))):
            with pytest.raises(ValueError, match="kernel"):
                dog_filter(np.zeros((5, 5)), kernel)


def maps_from_responses(on_resp, off_resp=None):
    h, w = on_resp.shape
    off = off_resp if off_resp is not None else np.full((h, w), -1e9)
    return on_resp, off


class TestLatencyEncode:
    def test_sorted_into_bins(self):
        resp = np.full((1, 3), -1e9)
        resp[0] = [100.0, 75.0, 60.0]
        on, off = maps_from_responses(resp)
        st_out = latency_encode(on, off, threshold=50, n_bins=3, silent_bins=0)
        dense = st_out.dense()
        assert dense[0, 0, 0, 0] and dense[1, 0, 0, 1] and dense[2, 0, 0, 2]
        assert st_out.n_events == 3

    def test_strict_threshold(self):
        resp = np.full((1, 2), -1e9)
        resp[0] = [50.0, 51.0]
        on, off = maps_from_responses(resp)
        out = latency_encode(on, off, threshold=50, n_bins=3)
        assert out.n_events == 1

    def test_all_below_threshold_empty(self):
        resp = np.full((4, 4), 10.0)
        on, off = maps_from_responses(resp)
        out = latency_encode(on, off, threshold=50, n_bins=10)
        assert out.n_events == 0
        assert out.shape == (12, 2, 4, 4)

    def test_spike_count_matches_crossings(self):
        rng = np.random.default_rng(0)
        on_r = rng.uniform(0, 100, size=(9, 9))
        off_r = rng.uniform(0, 100, size=(9, 9))
        on, off = maps_from_responses(on_r, off_r)
        out = latency_encode(on, off, threshold=50, n_bins=10)
        assert out.n_events == (on_r > 50).sum() + (off_r > 50).sum()

    def test_silent_tail_empty(self):
        rng = np.random.default_rng(1)
        on, off = maps_from_responses(rng.uniform(0, 100, size=(9, 9)))
        out = latency_encode(on, off, threshold=50, n_bins=10, silent_bins=2)
        assert out.shape[0] == 12
        assert not out.dense()[10:].any()

    def test_bin_monotonic_in_response(self):
        rng = np.random.default_rng(2)
        resp = rng.uniform(40, 200, size=(8, 8))
        on, off = maps_from_responses(resp)
        out = latency_encode(on, off, threshold=50, n_bins=5)
        dense = out.dense()
        bins = {}
        for t in range(5):
            for u, v in zip(*np.nonzero(dense[t, 0])):
                bins[(u, v)] = t
        items = list(bins.items())
        for (p, tp) in items:
            for (q, tq) in items:
                if resp[p] > resp[q]:
                    assert tp <= tq

    @given(st.lists(st.floats(min_value=0, max_value=500, allow_nan=False),
                    min_size=0, max_size=64),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_bin_balance(self, values, n_bins):
        n = 8
        resp = np.full((n, n), -1e9)
        flat = np.array(values[:n * n])
        resp.ravel()[:flat.size] = flat
        on, off = maps_from_responses(resp)
        out = latency_encode(on, off, threshold=50, n_bins=n_bins, silent_bins=0)
        if out.n_events == 0:
            return
        occupancy = out.dense().sum(axis=(1, 2, 3))
        nonzero = occupancy[occupancy > 0]
        assert occupancy.max() - occupancy.min() <= 1 or nonzero.size < n_bins

    def test_bin_monotonic_with_nonpositive_threshold(self):
        # the ordering stays strongest-first even when weak responses are
        # negative, where naive 1/response sorting would invert
        resp = np.full((1, 3), -1e9)
        resp[0] = [5.0, -1.0, -3.0]
        on, off = maps_from_responses(resp)
        out = latency_encode(on, off, threshold=-10.0, n_bins=3, silent_bins=0)
        dense = out.dense()
        assert dense[0, 0, 0, 0] and dense[1, 0, 0, 1] and dense[2, 0, 0, 2]

    def test_ties_broken_on_channel_first_then_row_major(self):
        on_r = np.full((2, 2), -1e9)
        off_r = np.full((2, 2), -1e9)
        on_r[1, 1] = 60.0
        off_r[0, 0] = 60.0
        out = latency_encode(on_r, off_r, threshold=50, n_bins=2, silent_bins=0)
        dense = out.dense()
        assert dense[0, 0, 1, 1]  # ON first on equal response
        assert dense[1, 1, 0, 0]


class TestEncodeImage:
    def test_on_off_disjoint(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 255, size=(27, 27))
        out = encode_dataset(img[None], threshold=50.0)[0]
        dense = out.dense()
        both = dense.any(axis=0)[0] & dense.any(axis=0)[1]
        assert not both.any()  # OFF response is the negated ON response


def assert_same_events(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.events, w.events)


class TestEncoderOracle:
    """``encode_dataset`` (one correlation, one stable sort) against the
    two-filter, lexsort reference, event for event."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["uniform", "binary", "zero"]),
           st.integers(1, 30), st.integers(1, 30),
           st.one_of(st.sampled_from([-10.0, 0.0, 30.0, 50.0, 500.0]),
                     st.floats(min_value=-100, max_value=600)),
           st.sampled_from([(1.0, 2.0), (2.0, 1.0), (0.7, 1.6)]),
           st.sampled_from([0, 2]), st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_matches_two_filter_oracle(self, seed, kind, h, w, threshold, sigmas,
                                       silent_bins, n_bins):
        rng = np.random.default_rng(seed)
        images = {"uniform": lambda: rng.uniform(0, 255, size=(3, h, w)),
                  "binary": lambda: 255.0 * rng.integers(0, 2, size=(3, h, w)),
                  "zero": lambda: np.zeros((3, h, w))}[kind]()
        args = (threshold, n_bins, silent_bins, *sigmas)
        assert_same_events(encode_dataset(images, *args), oracle_encode_dataset(images, *args))

    @pytest.mark.parametrize("threshold", [0.0, 50.0])
    def test_matches_oracle_on_synthetic_digits(self, threshold):
        from synth_digits import make_dataset
        images, _ = make_dataset(100, np.random.default_rng(11))
        assert_same_events(encode_dataset(images, threshold),
                           oracle_encode_dataset(images, threshold))


class TestIdxFiles:
    def test_round_trip_with_crop(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        got_images, got_labels = load_idx_images(ip, lp)
        assert got_images.shape == (5, 27, 27)
        np.testing.assert_array_equal(got_images, images[:, :27, :27].astype(float))
        np.testing.assert_array_equal(got_labels, labels)
        np.testing.assert_array_equal(load_idx_labels(lp), labels)

    def test_images_load_as_u8(self, tmp_path):
        # the whole file is never cast to float64; encode_dataset casts per chunk
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ip, np.full((3, 28, 28), 200, dtype=np.uint8))
        write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        images, _ = load_idx_images(ip, lp)
        assert images.dtype == np.uint8 and images.shape == (3, 27, 27)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.idx"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated"):
            load_idx_images(p, p)

    def test_bad_magic_rejected(self, tmp_path):
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        write_idx_images(ip, np.zeros((1, 28, 28), dtype=np.uint8))
        lp.write_bytes(struct.pack(">II", 0xDEADBEEF, 1) + b"\x00")
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ip, np.zeros((2, 28, 28), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError, match="mismatch"):
            load_idx_images(ip, lp)

    @pytest.mark.parametrize("bad", [256, 300, -1])
    def test_label_outside_u8_rejected_on_write(self, tmp_path, bad):
        # the u8 cast would store 300 as 44 and -1 as 255
        with pytest.raises(ValueError, match="255"):
            write_idx_labels(tmp_path / "lab.idx", np.array([0, bad]))

    @pytest.mark.parametrize("bad", [256.0, 300, -1])
    def test_pixel_outside_u8_rejected_on_write(self, tmp_path, bad):
        with pytest.raises(ValueError, match="255"):
            write_idx_images(tmp_path / "img.idx", np.array([[[0, bad]]]))

    def test_label_range_edges_kept(self, tmp_path):
        lp = tmp_path / "lab.idx"
        write_idx_labels(lp, np.array([0, 255]))
        assert lp.read_bytes() == struct.pack(">II", 0x801, 2) + bytes([0, 255])
        np.testing.assert_array_equal(load_idx_labels(lp), [0, 255])

    def test_trailing_bytes_rejected(self, tmp_path):
        lp = tmp_path / "lab.idx"
        write_idx_labels(lp, np.array([1, 2]))
        lp.write_bytes(lp.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_idx_labels(lp)

    def test_truncated_payload_rejected(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 100)
        write_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="truncated"):
            load_idx_images(ip, lp)


def aer_event(x, y, polarity, ts):
    b2 = ((polarity & 1) << 7) | ((ts >> 16) & 0x7F)
    return bytes([x, y, b2, (ts >> 8) & 0xFF, ts & 0xFF])


class TestAerRecording:
    def test_equal_count_split(self, tmp_path):
        p = tmp_path / "rec.bin"
        events = b"".join(aer_event(10 + i, 12, 1, 100 * i) for i in range(8))
        p.write_bytes(events)
        out = load_aer_recording(p, n_bins=2, silent_bins=0, geometry=(34, 34), crop=None)
        dense = out.dense()
        assert dense[0].sum() == 4 and dense[1].sum() == 4

    def test_duplicates_collapse(self, tmp_path):
        p = tmp_path / "rec.bin"
        events = b"".join(aer_event(7, 9, 1, t) for t in (5, 6, 7))
        p.write_bytes(events)
        out = load_aer_recording(p, n_bins=1, silent_bins=0, geometry=(34, 34), crop=None)
        assert out.n_events == 1

    def test_bad_length_rejected(self, tmp_path):
        p = tmp_path / "rec.bin"
        p.write_bytes(b"\x00" * 7)
        with pytest.raises(ValueError, match="multiple of 5"):
            load_aer_recording(p, n_bins=2)

    def test_out_of_range_coordinates_rejected(self, tmp_path):
        p = tmp_path / "rec.bin"
        p.write_bytes(aer_event(40, 2, 1, 0))
        with pytest.raises(ValueError, match="geometry"):
            load_aer_recording(p, n_bins=1)

    def test_center_crop_and_polarity_channels(self, tmp_path):
        p = tmp_path / "rec.bin"
        # (x=17, y=16) sits inside the 27x27 center crop of a 34x34 frame
        events = aer_event(17, 16, 1, 10) + aer_event(17, 16, 0, 20) + aer_event(0, 0, 1, 30)
        p.write_bytes(events)
        out = load_aer_recording(p, n_bins=2, silent_bins=0)
        dense = out.dense()
        assert out.shape[2:] == (27, 27)
        assert dense[:, 0, 13, 14].any()   # ON channel, shifted by crop offset 3
        assert dense[:, 1, 13, 14].any()   # OFF channel
        assert dense.sum() == 2            # border event dropped by the crop

    def test_timestamp_23_bits(self, tmp_path):
        p = tmp_path / "rec.bin"
        late = aer_event(5, 5, 0, (1 << 23) - 1)
        early = aer_event(6, 6, 1, 0)
        p.write_bytes(late + early)
        out = load_aer_recording(p, n_bins=2, silent_bins=0, geometry=(34, 34), crop=None)
        dense = out.dense()
        assert dense[0, 0, 6, 6] and dense[1, 1, 5, 5]

    def test_saccade_offsets_shift_coordinates(self, tmp_path):
        p = tmp_path / "rec.bin"
        p.write_bytes(aer_event(10, 10, 1, 100) + aer_event(10, 10, 1, 5000))
        out = load_aer_recording(p, n_bins=1, silent_bins=0, geometry=(34, 34),
                                 crop=None, saccade_offsets=[(1000, 2, 3)])
        dense = out.dense()
        assert dense[0, 0, 10, 10]
        assert dense[0, 0, 12, 13]


class TestSpikeTensor:
    def test_from_dense_rejects_bins_past_u8(self):
        # events are stored as u8; bin 299 must not wrap around to 43
        dense = np.zeros((300, 1, 2, 2), dtype=bool)
        dense[299, 0, 1, 1] = True
        with pytest.raises(ValueError, match="range"):
            SpikeTensor.from_dense(dense)

    def test_rejects_negative_coordinate(self):
        # -250 would wrap to the in-range row 6 under a u8 cast
        with pytest.raises(ValueError, match="range"):
            SpikeTensor((4, 2, 8, 8), np.array([[0, 1, -250, 2]]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_events_come_out_in_canonical_order(self, data):
        shape = (256, 3, 256, 5)  # every byte of the (t, c, u, v) key in use
        rows = data.draw(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 2),
                                            st.integers(0, 255), st.integers(0, 4)),
                                  unique=True, max_size=40))
        events = np.array(rows, dtype=np.int64).reshape(-1, 4)
        order = data.draw(st.permutations(range(len(rows))))
        got = SpikeTensor(shape, events[list(order)]).events
        want = events[np.lexsort(events.T[::-1])].astype(np.uint8)
        assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("events", [
        [[0, 0, 1, 1], [0, 0, 1, 1]],                # adjacent, in order
        [[0, 1, 2, 3], [1, 0, 0, 0], [0, 1, 2, 3]],  # apart, out of order
        [[2, 1, 0, 0], [0, 0, 0, 7], [2, 1, 0, 0], [3, 0, 0, 0]],
    ])
    def test_rejects_duplicate_events(self, events):
        with pytest.raises(ValueError, match="duplicate"):
            SpikeTensor((4, 2, 8, 8), np.array(events))
        with pytest.raises(ValueError, match="duplicate"):
            SpikeTensor((4, 2, 8, 8), np.array(events, dtype=np.uint8))

    def test_canonical_events_keep_their_bytes(self):
        dense = np.random.default_rng(8).random((12, 2, 27, 27)) < 0.05
        canonical = np.argwhere(dense).astype(np.uint8)
        t = SpikeTensor(dense.shape, canonical.copy())
        assert t.events.tobytes() == canonical.tobytes()
        np.testing.assert_array_equal(t.dense(), dense)

    def test_u8_edge_fits(self):
        dense = np.zeros((256, 1, 1, 1), dtype=bool)
        dense[255, 0, 0, 0] = True
        t = SpikeTensor.from_dense(dense)
        assert t.events.dtype == np.uint8
        np.testing.assert_array_equal(t.dense(), dense)


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        tensors = []
        for _ in range(4):
            dense = rng.random((12, 2, 9, 9)) < 0.05
            tensors.append(SpikeTensor.from_dense(dense))
        path = tmp_path / "enc.spkt"
        write_cache(path, tensors)
        back = read_cache(path)
        assert len(back) == 4
        for a, b in zip(tensors, back):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.events, b.events)

    def test_cache_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        tensors = [SpikeTensor.from_dense(rng.random((5, 2, 6, 6)) < 0.1)]
        p1, p2 = tmp_path / "a.spkt", tmp_path / "b.spkt"
        write_cache(p1, tensors)
        write_cache(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_count_rejected(self, tmp_path):
        p = tmp_path / "empty.spkt"
        container.write(p, b"SPKT", ("<6I", 1, 12, 2, 9, 9, 0))
        with pytest.raises(ValueError, match="empty"):
            read_cache(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.spkt"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_cache(p)

    def test_varint_large_event_count(self, tmp_path):
        dense = np.ones((3, 2, 12, 12), dtype=bool)  # 864 events, needs 2-byte varint
        t = SpikeTensor.from_dense(dense)
        path = tmp_path / "big.spkt"
        write_cache(path, [t])
        back = read_cache(path)
        assert back[0].n_events == 864

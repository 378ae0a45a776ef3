"""Binary container tests: the framing primitives, golden bytes for every
artifact format, and fuzzing that every reader turns a cut, padded or
corrupted file into ValueError and never another exception."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecnn import container
from spikecnn.cli import main, write_csv
from spikecnn.config import write_manifest
from spikecnn.core import ConvKernel, load_kernel, save_kernel
from spikecnn.encode import (SpikeTensor, load_idx_images, load_idx_labels, read_cache,
                             read_pooled, write_cache, write_idx_images, write_idx_labels,
                             write_pooled)
from spikecnn.heads import (FcnHead, FeatureMatrix, RstdpHead, export_features,
                            import_features, load_head, save_head)


def _labels_for_two_images(path):
    write_idx_labels(path, np.array([1, 2]))
    return path


# name -> (writer(path), loader(path, scratch_dir), sha256 of the written bytes).
# The hashes pin the on-disk layouts: a change to any of them is a format
# change and needs a version bump, not a new hash.
FORMATS = {
    "SKRN": (lambda p: save_kernel(p, ConvKernel(np.linspace(0.0, 1.0, 18).reshape(2, 1, 3, 3),
                                                 0.004, 0.003)),
             lambda p, d: load_kernel(p),
             "2356d6e5530e0217ba851650ad740b11c6bc1bb565abd8e49ba88e9e4345bb1c"),
    "SPKT": (lambda p: write_cache(p, [
                SpikeTensor((3, 2, 4, 4), np.array([[0, 0, 1, 2], [2, 1, 3, 3]])),
                SpikeTensor((3, 2, 4, 4), np.empty((0, 4), dtype=np.uint8))]),
             lambda p, d: read_cache(p),
             "7bdd6fea5f9ca7d588651631e4ef6c43e954a398a9ab7ece5dc839ab8f364c72"),
    "SPKP": (lambda p: write_pooled(p, [
                SpikeTensor((3, 2, 4, 4), np.array([[0, 0, 1, 2], [2, 1, 3, 3]])),
                SpikeTensor((3, 2, 4, 4), np.empty((0, 4), dtype=np.uint8))], [5, 0]),
             lambda p, d: read_pooled(p, (3, 2, 4, 4), 2),
             "fe8c765896fdc0c442997fd8c967bf29ea511c835c4c84fe74aa5b7458293703"),
    "FMAT": (lambda p: export_features(
                FeatureMatrix(np.arange(6.0).reshape(3, 2) / 4, np.array([0, 7, 255])), p),
             lambda p, d: import_features(p),
             "c40aa0e874fe1702d80e781c25916359e148678bdd727b36663df0297c231d61"),
    # 13 columns: each row is two packed bytes whose last 3 bits are padding
    "FMAT-bits": (lambda p: export_features(
                FeatureMatrix(np.arange(39).reshape(3, 13) % 3 == 1, np.array([0, 7, 255])), p),
             lambda p, d: import_features(p),
             "b5b9e2b7c29e1cedce2cbc4a3873d1e937a9464d997a5892c9eaa9b1c6f08728"),
    "SKHD-fcn": (lambda p: save_head(p, FcnHead(np.arange(6.0).reshape(2, 3) / 10,
                                                np.array([0.5, -0.5]), cost="quadratic",
                                                eta0=0.2, eta_decay=1.007, lam=0.1)),
                 lambda p, d: load_head(p),
                 "643a3a7cf5c5ddb85c4022cbb02b8de36b61988259967dc88845e7025288947f"),
    "SKHD-rstdp": (lambda p: save_head(p, RstdpHead(np.linspace(0.0, 1.0, 8).reshape(4, 2),
                                                    neurons_per_class=2, p_drop=0.25,
                                                    ratio_mode="per_image", window=7,
                                                    miss_ratio=0.3)),
                   lambda p, d: load_head(p),
                   "ded2d78cfdca5160f2d1ebb063d3e2f2f2ef1c3734ded6931b0e24586431043b"),
    "IDX-labels": (lambda p: write_idx_labels(p, np.array([3, 1, 4, 1, 5, 255])),
                   lambda p, d: load_idx_labels(p),
                   "6b80e2772b066ad99b1ed2b9109f9833f5883893f826c25a9bac1805fdf539f0"),
    "IDX-images": (lambda p: write_idx_images(p, np.arange(18).reshape(2, 3, 3)),
                   lambda p, d: load_idx_images(p, _labels_for_two_images(d / "two.idx")),
                   "7a58392e2e99a006e835968450780e961fcc69aed471a210866924ab3ff37643"),
}
NAMES = sorted(FORMATS)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("container")


def _good_bytes(name, d):
    path = d / f"good-{name}"
    FORMATS[name][0](path)
    return path.read_bytes()


def _load(name, d, blob):
    path = d / f"probe-{name}"
    path.write_bytes(blob)
    return FORMATS[name][1](path, d)


@pytest.mark.parametrize("name", NAMES)
def test_golden_bytes(name, workdir):
    assert hashlib.sha256(_good_bytes(name, workdir)).hexdigest() == FORMATS[name][2]


@pytest.mark.parametrize("name", NAMES)
def test_intact_file_loads(name, workdir):
    _load(name, workdir, _good_bytes(name, workdir))


@pytest.mark.parametrize("name", NAMES)
def test_every_truncated_prefix_rejected(name, workdir):
    good = _good_bytes(name, workdir)
    for cut in range(len(good)):
        with pytest.raises(ValueError):
            _load(name, workdir, good[:cut])


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None)
@given(extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_rejected(name, workdir, extra):
    with pytest.raises(ValueError, match="trailing"):
        _load(name, workdir, _good_bytes(name, workdir) + extra)


def _flip_survives(name, d, good, pos, mask):
    """Load ``good`` with one byte xor-ed; only ValueError may escape."""
    blob = bytearray(good)
    blob[pos] ^= mask
    try:
        obj = _load(name, d, bytes(blob))
    except ValueError:
        return
    # a file that loads must describe exactly the bytes it was read from
    # (the cache re-sorts events on load, so only their type is checked)
    if name == "SPKT":
        assert all(isinstance(t, SpikeTensor) for t in obj)
        return
    if name == "SPKP":
        assert all(isinstance(t, SpikeTensor) and n >= 0 for t, n in obj)
        return
    path = d / f"rewrite-{name}"
    if name == "SKRN":
        save_kernel(path, obj)
    elif name.startswith("FMAT"):
        export_features(obj, path)
    elif name.startswith("SKHD"):
        save_head(path, obj)
    elif name == "IDX-labels":
        write_idx_labels(path, obj)
    else:
        write_idx_images(path, obj[0])
    assert path.read_bytes() == bytes(blob)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
def test_every_byte_position_flipped(name, mask, workdir):
    good = _good_bytes(name, workdir)
    for pos in range(len(good)):
        _flip_survives(name, workdir, good, pos, mask)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_byte_flip(name, workdir, data):
    good = _good_bytes(name, workdir)
    pos = data.draw(st.integers(0, len(good) - 1))
    mask = data.draw(st.integers(1, 255))
    _flip_survives(name, workdir, good, pos, mask)


class TestFeatureMatrixLayout:
    @pytest.mark.parametrize("rows", [1, 2, 3, 1000])
    def test_unversioned_file_rejected(self, tmp_path, capsys, rows):
        # The version-1 layout had no version or kind field: FMAT, u32 rows,
        # u32 cols, f64 values, u8 labels.  Read as version 2, its row count
        # is the version, and rows 2 makes its column count the kind.
        values = np.random.default_rng(rows).random((rows, 5))
        labels = np.arange(rows) % 10
        path = tmp_path / "features-train.fmat"
        container.write(path, b"FMAT", ("<II", rows, 5), values.astype("<f8"),
                        labels.astype(np.uint8))
        with pytest.raises(ValueError, match="version|kind"):
            import_features(path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path), "head": {"epochs": 1}}))
        capsys.readouterr()
        assert main(["classify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "feature-matrix" in err and "Traceback" not in err
        assert not list(tmp_path.glob("head-*.skhd"))

    def test_every_pad_bit_rejected(self, workdir):
        good = _good_bytes("FMAT-bits", workdir)
        # 13 columns: byte 1 of each packed row holds 5 values and 3 pad bits
        row_starts = [20 + 2 * r for r in range(3)]
        for start in row_starts:
            for bit in range(3):
                blob = bytearray(good)
                blob[start + 1] ^= 1 << bit
                with pytest.raises(ValueError, match="pad bits"):
                    _load("FMAT-bits", workdir, bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(values=hnp.arrays(np.bool_, st.tuples(st.integers(0, 40), st.integers(1, 20))),
           data=st.data())
    def test_bool_round_trip(self, workdir, values, data):
        labels = data.draw(hnp.arrays(np.uint8, values.shape[0]))
        path = workdir / "round-trip.fmat"
        export_features(FeatureMatrix(values, labels), path)
        assert path.stat().st_size == 20 + values.shape[0] * (-(-values.shape[1] // 8) + 1)
        back = import_features(path)
        assert back.values.dtype == bool
        np.testing.assert_array_equal(back.values, values)
        np.testing.assert_array_equal(back.labels, labels)


class TestReader:
    def test_fields_in_order(self, tmp_path):
        p = tmp_path / "x"
        container.write(p, b"TEST", ("<Hd", 7, 0.5), np.arange(3, dtype="<i4"),
                        container.varint(300))
        r = container.Reader(p, b"TEST", "test file")
        assert r.unpack("<Hd") == (7, 0.5)
        np.testing.assert_array_equal(r.array("<i4", 3), [0, 1, 2])
        assert r.varint() == 300
        r.done()

    def test_short_magic_is_truncation(self, tmp_path):
        p = tmp_path / "x"
        p.write_bytes(b"TE")
        with pytest.raises(ValueError, match="truncated test file"):
            container.Reader(p, b"TEST", "test file")

    def test_reads_past_end_raise_value_error(self, tmp_path):
        p = tmp_path / "x"
        container.write(p, b"TEST", ("<I", 1), b"\x80")
        r = container.Reader(p, b"TEST", "test file")
        with pytest.raises(ValueError, match="truncated"):
            r.unpack("<Q")
        r.unpack("<I")
        with pytest.raises(ValueError, match="truncated"):
            r.varint()  # continuation bit set on the last byte
        with pytest.raises(ValueError, match="truncated"):
            r.array("<f8", 2**40, 2**40)

    def test_fortran_ordered_array_written_in_c_order(self, tmp_path):
        a = np.asfortranarray(np.arange(6, dtype="<f8").reshape(2, 3))
        p = tmp_path / "x"
        container.write(p, b"TEST", a)
        assert p.read_bytes() == b"TEST" + a.tobytes(order="C")

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**35])
    def test_varint_round_trip(self, tmp_path, value):
        p = tmp_path / "x"
        container.write(p, b"V", container.varint(value))
        r = container.Reader(p, b"V", "varint")
        assert r.varint() == value
        r.done()

    def test_u8_range(self):
        np.testing.assert_array_equal(container.u8([0, 255], "labels"), [0, 255])
        for bad in ([256], [-1], [300]):
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                container.u8(bad, "labels")


class FullDisk:
    """``open`` for ``container``'s writes that takes ``budget`` bytes, then
    fails as a full disk does, midway through a write."""

    def __init__(self, budget):
        self.budget = budget

    def __call__(self, path, mode="r"):
        return _FailingFile(open(path, mode), self)


class _FailingFile:
    def __init__(self, f, disk):
        self.f, self.disk = f, disk

    def write(self, data):
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        if len(view) > self.disk.budget:
            self.f.write(view[:self.disk.budget])
            raise OSError(28, "No space left on device")
        self.disk.budget -= len(view)
        return self.f.write(view)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestReplacing:
    """A write that fails midway leaves the final name as it was: absent,
    or holding the old bytes, and leaves no temporary file behind."""

    WRITERS = {
        "container": lambda p, n: container.write(p, b"MAGC", ("<I", n), np.arange(n * 100.0)),
        "csv": lambda p, n: write_csv(p, ["a", "b"], [(i, i / 3) for i in range(n * 100)]),
        "manifest": lambda p, n: write_manifest(p, {"seed": n, "pad": "x" * 1000 * n}, {},
                                                 wall_clock=0.0),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_the_old_bytes(self, tmp_path, monkeypatch, writer):
        write = self.WRITERS[writer]
        path = tmp_path / "artifact"
        write(path, 1)
        old = path.read_bytes()
        monkeypatch.setattr(container, "open", FullDisk(64), raising=False)
        with pytest.raises(OSError, match="No space"):
            write(path, 2)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch, writer):
        monkeypatch.setattr(container, "open", FullDisk(64), raising=False)
        with pytest.raises(OSError, match="No space"):
            self.WRITERS[writer](tmp_path / "artifact", 2)
        assert list(tmp_path.iterdir()) == []

"""CLI tests: config validation, cache behavior, stage wiring, manifests,
and byte-identical replay."""

import json
from pathlib import Path

import numpy as np
import pytest

from spikecnn.cli import _take_per_class, main, write_csv
from spikecnn import container
from spikecnn.config import ConfigError, load_config, validate_config
from spikecnn.encode import (encode_dataset, load_idx_images, load_idx_labels, read_cache,
                             write_idx_labels)
from spikecnn.heads import import_features
from spikecnn.train import ForgetPlan
from forget_oracle import oracle_run_forgetting
from synth_digits import write_idx_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    return write_idx_dataset(d, n_train=120, n_test=40, seed=9)


def base_config(dataset, out_dir, **overrides):
    cfg = {
        "seed": 5,
        "out_dir": str(out_dir),
        "dataset": dict(dataset),
        "encoding": {"threshold": 30.0},
        "layer": {"maps": 12},
        "plan": {"n_images": 120, "monitor_stride": 40},
        "head": {"epochs": 4},
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    Path(path).write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config({"seeed": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="encoding"):
            validate_config({"encoding": {"thresold": 10}})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": "zero"})

    def test_defaults_fill_in(self):
        cfg = validate_config({})
        assert cfg["encoding"]["threshold"] == 50.0
        assert cfg["layer"]["threshold"] == 15.0
        assert cfg["demo"]["n_afferents"] == 100

    def test_bad_json_exits_nonzero(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["encode", "--config", str(p)]) == 1


class TestEncodeCommand:
    def test_encode_writes_cache_and_manifest(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", base_config(dataset, out))
        assert main(["encode", "--config", cfg_path]) == 0
        caches = list(out.glob("encoded-train-*.spkt"))
        assert len(caches) == 1
        manifest = json.loads((out / "manifest-encode.json").read_text())
        assert "encoded_train" in manifest["artifacts"]
        assert manifest["cache_hits"]["train"] is False

    def test_second_run_is_cache_hit(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", base_config(dataset, out))
        assert main(["encode", "--config", cfg_path]) == 0
        cache = next(out.glob("encoded-train-*.spkt"))
        first_bytes = cache.read_bytes()
        assert main(["encode", "--config", cfg_path]) == 0
        manifest = json.loads((out / "manifest-encode.json").read_text())
        assert manifest["cache_hits"]["train"] is True
        assert cache.read_bytes() == first_bytes

    def test_rewritten_dataset_is_not_a_cache_hit(self, tmp_path):
        data = tmp_path / "data"
        paths = write_idx_dataset(data, n_train=30, n_test=10, seed=1)
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", base_config(paths, out))
        assert main(["encode", "--config", cfg_path]) == 0
        write_idx_dataset(data, n_train=30, n_test=10, seed=2)  # same paths, new corpus
        assert main(["encode", "--config", cfg_path]) == 0
        manifest = json.loads((out / "manifest-encode.json").read_text())
        assert manifest["cache_hits"] == {"train": False, "test": False}
        images, _ = load_idx_images(paths["train_images"], paths["train_labels"])
        want = encode_dataset(images, threshold=30.0)
        got = read_cache(manifest["artifact_paths"]["encoded_train"])
        assert [t.events.tobytes() for t in got] == [t.events.tobytes() for t in want]

    def test_empty_cache_fails_cleanly(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", base_config(dataset, out))
        assert main(["encode", "--config", cfg_path]) == 0
        cache = next(out.glob("encoded-train-*.spkt"))
        container.write(cache, b"SPKT", ("<6I", 1, 12, 2, 27, 27, 0))  # zero images
        assert main(["train", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "empty" in err

    def test_corrupt_idx_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x03trunc")
        cfg = {"out_dir": str(tmp_path / "o"),
               "dataset": {"train_images": str(bad), "train_labels": str(bad)}}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["encode", "--config", cfg_path]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_files_fail(self, tmp_path):
        cfg = {"out_dir": str(tmp_path / "o"),
               "dataset": {"train_images": "/nope/a.idx", "train_labels": "/nope/b.idx"}}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["encode", "--config", cfg_path]) == 1


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    out = tmp / "run"
    cfg_path = write_config(tmp / "c.json", base_config(dataset, out))
    for cmd in ("encode", "train", "features", "classify", "eval"):
        assert main([cmd, "--config", cfg_path]) == 0, cmd
    return out, cfg_path


class TestPipelineStages:
    def test_stage_artifacts_exist(self, run_dir):
        out, _ = run_dir
        for name in ("kernel-l2.skrn", "monitor-l2.csv", "features-train.fmat",
                     "features-test.fmat", "features-stats.csv", "head-fcn.skhd",
                     "classify-curve.csv", "eval-metrics.csv"):
            assert (out / name).exists(), name

    def test_eval_metrics_contents(self, run_dir):
        out, _ = run_dir
        lines = (out / "eval-metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,detail,value"
        assert lines[1].startswith("accuracy,")
        acc = float(lines[1].split(",")[2])
        assert 0.0 <= acc <= 1.0
        manifest = json.loads((out / "manifest-eval.json").read_text())
        assert manifest["accuracy"] == acc

    def test_train_before_encode_fails(self, dataset, tmp_path):
        out = tmp_path / "fresh"
        cfg_path = write_config(tmp_path / "c.json", base_config(dataset, out))
        assert main(["train", "--config", cfg_path]) == 1

    def test_manifest_replay_and_flag_overrides(self, run_dir, tmp_path):
        out, _ = run_dir
        manifest = out / "manifest-train.json"
        out2 = tmp_path / "replay"
        # a manifest is a valid --config; artifacts land in the new --out
        assert main(["encode", "--config", str(manifest), "--out", str(out2)]) == 0
        assert main(["train", "--config", str(manifest), "--out", str(out2)]) == 0
        assert (out2 / "kernel-l2.skrn").read_bytes() == (out / "kernel-l2.skrn").read_bytes()

    def test_replays_the_manifest_of_a_two_class_run(self, dataset, tmp_path):
        # the manifest holds the filled config, default forget task lists
        # (classes 0-9) included; they must not void a two-class config
        out = tmp_path / "two"
        cfg = base_config(dataset, out, head={"n_classes": 2})
        assert main(["encode", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        manifest = out / "manifest-encode.json"
        assert json.loads(manifest.read_text())["config"]["forget"]["task_b_classes"]
        assert main(["encode", "--config", str(manifest), "--out", str(tmp_path / "r")]) == 0


class TestDeterminism:
    def test_replay_is_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.json",
                                    base_config(dataset, out))
            for cmd in ("encode", "train", "features", "classify", "eval"):
                assert main([cmd, "--config", cfg_path, "--threads", "1"]) == 0
            outs.append(out)
        a, b = outs
        for name in ("kernel-l2.skrn", "monitor-l2.csv", "features-train.fmat",
                     "features-test.fmat", "head-fcn.skhd", "classify-curve.csv",
                     "eval-metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_demo_csvs_reproducible(self, tmp_path):
        cfg = {"seed": 11, "demo": {"duration": 800}}
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_path = write_config(tmp_path / f"{name}.json",
                                    dict(cfg, out_dir=str(out)))
            assert main(["demo-stdp", "--config", cfg_path]) == 0
            outs.append(out)
        for name in ("demo-raster.csv", "demo-output-spikes.csv",
                     "demo-selectivity.csv", "demo-weights.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_flag_changes_result(self, tmp_path):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path / "c.json",
                                {"seed": 1, "out_dir": str(out), "demo": {"duration": 500}})
        assert main(["demo-stdp", "--config", cfg_path]) == 0
        first = (out / "demo-raster.csv").read_bytes()
        assert main(["demo-stdp", "--config", cfg_path, "--seed", "2"]) == 0
        assert (out / "demo-raster.csv").read_bytes() != first


class TestForgetCommand:
    def test_one_curve_file_per_fraction(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(dataset, out)
        cfg["forget"] = {"images_per_class": 8, "epochs": 2,
                         "rehearsal_fractions": [0.0, 0.1, 0.25]}
        cfg["plan"] = {"n_images": 60, "monitor_stride": 30}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train", "forget"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        files = sorted(out.glob("forget-r*.csv"))
        assert [f.name for f in files] == ["forget-r0.000.csv", "forget-r0.100.csv",
                                           "forget-r0.250.csv"]
        header = files[0].read_text().split("\n")[0]
        assert header == "epoch,task_a,task_b,combined"

    def test_csv_rows_equal_per_fraction_runs(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(dataset, out, plan={"n_images": 60, "monitor_stride": 30})
        fractions = [0.0, 0.25, 1.0]  # 1.0 takes the whole task-A pool
        cfg["forget"] = {"images_per_class": 8, "epochs": 2, "incremental": True,
                         "incremental_start": 10, "incremental_stride": 15,
                         "rehearsal_fractions": fractions}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train", "features", "forget"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        train_m = import_features(out / "features-train.fmat")
        val = import_features(out / "features-test.fmat")
        a_pool = _take_per_class(train_m, (0, 1, 2, 3, 4), 8)
        b_pool = _take_per_class(train_m, (5, 6, 7, 8, 9), 8)
        assert a_pool.n_rows == b_pool.n_rows == 40
        plan = ForgetPlan(epochs=2, seed=5, incremental=True, incremental_start=10,
                          incremental_stride=15)
        for frac in fractions:
            oracle = oracle_run_forgetting(plan, frac, a_pool, b_pool, val)
            write_csv(tmp_path / "curve.csv", ["epoch", "task_a", "task_b", "combined"],
                      oracle.curves)
            write_csv(tmp_path / "inc.csv", ["images", "task_a", "task_b", "combined"],
                      oracle.incremental)
            assert (out / f"forget-r{frac:0.3f}.csv").read_bytes() == \
                (tmp_path / "curve.csv").read_bytes()
            assert (out / f"forget-incremental-r{frac:0.3f}.csv").read_bytes() == \
                (tmp_path / "inc.csv").read_bytes()

    @pytest.mark.parametrize("fractions,bad", [([0.0, -0.1], "-0.1"), ([0.1, 0.0, 9.0], "9.0")])
    def test_bad_fraction_fails_before_any_curve(self, dataset, tmp_path, capsys,
                                                  fractions, bad):
        out = tmp_path / "run"
        cfg = base_config(dataset, out, plan={"n_images": 20, "monitor_stride": 10})
        cfg["forget"] = {"images_per_class": 8, "epochs": 1, "rehearsal_fractions": [0.0]}
        good = write_config(tmp_path / "good.json", cfg)
        for cmd in ("encode", "train"):
            assert main([cmd, "--config", good]) == 0, cmd
        cfg["forget"]["rehearsal_fractions"] = fractions
        cfg_path = write_config(tmp_path / "c.json", cfg)
        capsys.readouterr()
        assert main(["forget", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert f"fraction {bad}" in err and "Traceback" not in err
        assert not list(out.glob("forget-*.csv"))

    @pytest.mark.parametrize("n_classes,code", [(12, 0), (10, 1)])
    def test_labels_checked_against_head_n_classes(self, tmp_path, capsys, n_classes, code):
        data = write_idx_dataset(tmp_path / "data", n_train=120, n_test=40, seed=9)
        for split in ("train", "test"):  # class 9 becomes class 11
            labels = load_idx_labels(data[f"{split}_labels"])
            write_idx_labels(data[f"{split}_labels"], np.where(labels == 9, 11, labels))
        out = tmp_path / "run"
        cfg = base_config(data, out, plan={"n_images": 20, "monitor_stride": 10})
        cfg["head"] = {"n_classes": n_classes}
        cfg["forget"] = {"images_per_class": 8, "epochs": 1, "rehearsal_fractions": [0.0],
                         "task_b_classes": [5, 6, 7, 8, 11]}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        capsys.readouterr()
        assert main(["forget", "--config", cfg_path]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert "label 11 >= head.n_classes 10" in err
            assert not list(out.glob("forget-*.csv"))
        else:
            assert (out / "forget-r0.000.csv").exists()

    @pytest.mark.parametrize("split,task_b,n_classes,message", [
        ("train", [5, 6, 7, 8, 9], 12, "forget task class 9 has no train image"),
        ("test", [5, 6, 7, 8, 9], 12, "forget task class 9 has no test image"),
        ("train", [5, 6, 7, 8, 12], 12, "forget task class 12 >= head.n_classes 12")],
        ids=["no-train-image", "no-test-image", "beyond-n-classes"])
    def test_task_classes_checked_before_extraction(self, tmp_path, capsys, monkeypatch,
                                                    split, task_b, n_classes, message):
        # Used to extract both splits, probe a NaN task-B accuracy from an
        # empty mask, and only then fail in phase 2.
        data = write_idx_dataset(tmp_path / "data", n_train=120, n_test=40, seed=9)
        labels = load_idx_labels(data[f"{split}_labels"])  # class 9 leaves one split
        write_idx_labels(data[f"{split}_labels"], np.where(labels == 9, 11, labels))
        out = tmp_path / "run"
        cfg = base_config(data, out, plan={"n_images": 20, "monitor_stride": 10})
        cfg["head"] = {"n_classes": n_classes}
        cfg["forget"] = {"images_per_class": 8, "epochs": 1, "rehearsal_fractions": [0.0],
                         "task_b_classes": task_b}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd

        def no_extraction(*args, **kwargs):
            raise AssertionError("features extracted before the task classes were checked")

        monkeypatch.setattr("spikecnn.train.extract_features", no_extraction)
        capsys.readouterr()
        assert main(["forget", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.glob("forget-*.csv"))


class TestAerIngestion:
    def test_encode_aer_recordings(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = []
        for i in range(6):
            events = b""
            for _ in range(400):
                x, y = rng.integers(5, 30, size=2)
                pol = int(rng.integers(2))
                ts = int(rng.integers(0, 300_000))
                events += bytes([x, y, (pol << 7) | ((ts >> 16) & 0x7F),
                                 (ts >> 8) & 0xFF, ts & 0xFF])
            p = tmp_path / f"rec{i}.bin"
            p.write_bytes(events)
            rows.append([str(p), i % 3])
        out = tmp_path / "run"
        cfg = {"seed": 2, "out_dir": str(out),
               "dataset": {"aer_train": rows, "saccade_offsets": [[150000, 1, -1]]},
               "layer": {"maps": 8, "threshold": 4.0},
               "plan": {"n_images": 6, "monitor_stride": 3}}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["encode", "--config", cfg_path]) == 0
        assert main(["train", "--config", cfg_path]) == 0
        from spikecnn.encode import read_cache, load_idx_labels
        cache = next(out.glob("encoded-train-*.spkt"))
        tensors = read_cache(cache)
        assert len(tensors) == 6
        assert tensors[0].shape == (12, 2, 27, 27)
        assert tensors[0].n_events > 0
        labels = load_idx_labels(next(out.glob("encoded-train-*-labels.idx")))
        np.testing.assert_array_equal(labels, [0, 1, 2, 0, 1, 2])


class TestTwoConvPipeline:
    def test_global_max_potential_mode_end_to_end(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(dataset, out, feature_mode="global_max_potential")
        cfg["layer2"] = {"maps": 20, "threshold": 10.0}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train", "features", "classify", "eval"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        assert (out / "kernel-l4.skrn").exists()
        assert (out / "monitor-l4.csv").exists()
        from spikecnn.heads import import_features
        feats = import_features(out / "features-train.fmat")
        assert feats.n_cols == 20  # one real value per second-layer map
        # second-layer reconstruction sheets from the trained checkpoints
        cfg["recon"] = {"second_kernel": str(out / "kernel-l4.skrn")}
        cfg_path = write_config(tmp_path / "c2.json", cfg)
        assert main(["reconstruct", "--config", cfg_path]) == 0
        assert (out / "recon-l4-montage.ppm").exists()

    def test_train_matches_the_layer_api(self, dataset, tmp_path):
        from spikecnn.cli import write_csv
        from spikecnn.config import substream
        from spikecnn.core import InhibitionConfig, init_kernel, save_kernel
        from spikecnn.train import ConvPipeline, TrainPlan, train_conv_layer
        out = tmp_path / "run"
        cfg = base_config(dataset, out, feature_mode="global_max_potential",
                          plan={"n_images": 60, "monitor_stride": 20})
        cfg["layer2"] = {"maps": 20}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        # the same two layers through the API, in this process
        api = tmp_path / "api"
        api.mkdir()
        plan = TrainPlan(n_images=60, monitor_stride=20)
        inputs = read_cache(next(out.glob("encoded-train-*.spkt")))
        for tag, maps, threshold, stream in (("l2", 12, 15.0, "init"),
                                             ("l4", 20, 10.0, "init-l4")):
            if tag == "l4":
                inputs = [pipe.pooled(t, as_tensor=True)[0] for t in inputs]
            layer_cfg = InhibitionConfig(threshold=threshold)
            kernel = init_kernel(maps, inputs[0].channels, 5, substream(5, stream))
            monitor = train_conv_layer(plan, inputs, kernel, layer_cfg)
            pipe = ConvPipeline(kernel, layer_cfg)
            save_kernel(api / f"kernel-{tag}.skrn", kernel)
            write_csv(api / f"monitor-{tag}.csv",
                      ["sample", "weight_delta", "convergence_factor"], monitor.samples)
        for name in ("kernel-l2.skrn", "kernel-l4.skrn", "monitor-l2.csv", "monitor-l4.csv"):
            assert (out / name).read_bytes() == (api / name).read_bytes(), name

    @pytest.mark.parametrize("n_images,calls", [(60, 60), (0, 0), (200, 120)])
    def test_layer2_input_is_pooled_only_for_images_it_trains_on(
            self, dataset, tmp_path, monkeypatch, n_images, calls):
        from spikecnn.core import load_kernel
        from spikecnn.train import ConvPipeline
        pooled = ConvPipeline.pooled
        seen = []

        def counting(self, tensor, as_tensor=False):
            seen.append(tensor)
            return pooled(self, tensor, as_tensor)

        monkeypatch.setattr(ConvPipeline, "pooled", counting)
        out = tmp_path / "run"
        cfg = base_config(dataset, out, feature_mode="global_max_potential",
                          plan={"n_images": n_images, "monitor_stride": 20})
        cfg["layer2"] = {"maps": 20}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        for cmd in ("encode", "train"):  # the train split holds 120 images
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        assert len(seen) == calls
        assert load_kernel(out / "kernel-l2.skrn").maps_out == 12
        assert load_kernel(out / "kernel-l4.skrn").weights.shape == (20, 12, 5, 5)

    def test_unknown_feature_mode_exits_1_before_training(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        good = write_config(tmp_path / "good.json", base_config(dataset, out))
        assert main(["encode", "--config", good]) == 0
        bogus = write_config(tmp_path / "bogus.json",
                             base_config(dataset, out, feature_mode="bogus"))
        capsys.readouterr()
        assert main(["train", "--config", bogus]) == 1
        assert "feature_mode" in capsys.readouterr().err
        assert not list(out.glob("kernel-*.skrn"))


class TestEvalChanceLevel:
    def test_all_zero_features_score_near_chance(self, tmp_path):
        from spikecnn.heads import (FeatureMatrix, export_features, save_head,
                                    init_fcn_head)
        out = tmp_path / "run"
        out.mkdir()
        rng = np.random.default_rng(0)
        labels = np.tile(np.arange(10), 30)
        zeros = FeatureMatrix(np.zeros((300, 40)), labels)
        export_features(zeros, out / "features-test.fmat")
        save_head(out / "head-fcn.skhd", init_fcn_head(40, 10, rng))
        cfg_path = write_config(tmp_path / "c.json",
                                {"out_dir": str(out), "head": {"kind": "fcn"}})
        assert main(["eval", "--config", cfg_path]) == 0
        manifest = json.loads((out / "manifest-eval.json").read_text())
        assert manifest["accuracy"] == pytest.approx(0.1, abs=1e-9)


class TestEvalRejectsBadInput:
    """Corrupt eval inputs exit 1 with a diagnostic, never a traceback."""

    def _run_eval(self, tmp_path, capsys, labels, corrupt_tag=False, cut_features=None):
        from spikecnn.heads import (FeatureMatrix, export_features, init_fcn_head,
                                    save_head)
        out = tmp_path / "run"
        out.mkdir()
        export_features(FeatureMatrix(np.zeros((len(labels), 8)), np.asarray(labels)),
                        out / "features-test.fmat")
        head_path = out / "head-fcn.skhd"
        save_head(head_path, init_fcn_head(8, 10, np.random.default_rng(0)))
        if corrupt_tag:
            buf = bytearray(head_path.read_bytes())
            buf[12:16] = (9).to_bytes(4, "little")
            head_path.write_bytes(bytes(buf))
        if cut_features is not None:
            fmat = out / "features-test.fmat"
            fmat.write_bytes(fmat.read_bytes()[:cut_features])
        cfg_path = write_config(tmp_path / "c.json",
                                {"out_dir": str(out), "head": {"kind": "fcn"}})
        code = main(["eval", "--config", cfg_path])
        return code, capsys.readouterr().err

    def test_label_beyond_n_classes(self, tmp_path, capsys):
        code, err = self._run_eval(tmp_path, capsys, [0, 3, 12])
        assert code == 1
        assert "error" in err and "12" in err

    def test_unknown_head_cost_tag(self, tmp_path, capsys):
        code, err = self._run_eval(tmp_path, capsys, [0, 1, 2], corrupt_tag=True)
        assert code == 1
        assert "error" in err and "tag" in err


    @pytest.mark.parametrize("cut", [8, 20])
    def test_truncated_feature_matrix(self, tmp_path, capsys, cut):
        # 8 bytes cuts the header, which used to escape as struct.error
        code, err = self._run_eval(tmp_path, capsys, [0, 1, 2], cut_features=cut)
        assert code == 1
        assert "error" in err and "truncated" in err and "Traceback" not in err


class TestClassifyRejectsBadLabels:
    @pytest.mark.parametrize("kind", ["fcn", "rstdp"])
    def test_label_beyond_n_classes(self, tmp_path, capsys, kind):
        # The FCN head used to raise IndexError mid-epoch; the R-STDP head
        # trained silently and reported accuracy 0.1.
        from spikecnn.heads import FeatureMatrix, export_features
        out = tmp_path / "run"
        out.mkdir()
        rng = np.random.default_rng(0)
        export_features(FeatureMatrix(rng.random((20, 8)), np.arange(20) % 10),
                        out / "features-train.fmat")
        cfg_path = write_config(tmp_path / "c.json", {
            "out_dir": str(out), "head": {"kind": kind, "n_classes": 2, "epochs": 2}})
        assert main(["classify", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert "training label 9 >= head.n_classes 2" in err and "Traceback" not in err
        assert not list(out.glob("head-*.skhd"))


class TestTrainRejectsOversizeKernel:
    @pytest.mark.parametrize("section,overrides", [
        ("layer", {"layer": {"maps": 4, "kernel_size": 28}}),  # 27x27 input
        ("layer2", {"layer": {"maps": 4}, "layer2": {"maps": 4, "kernel_size": 12},
                    "feature_mode": "global_max_potential"}),  # 11x11 pooled maps
    ])
    def test_exits_1_before_any_layer_trains(self, dataset, tmp_path, capsys,
                                             section, overrides):
        out = tmp_path / "run"
        cfg = base_config(dataset, out, **overrides)
        cfg["plan"] = {"n_images": 10, "monitor_stride": 5}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["encode", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert f"{section}.kernel_size" in err and "Traceback" not in err
        assert not list(out.glob("kernel-*.skrn"))


class TestConfigRanges:
    @pytest.mark.parametrize("section,key,value", [
        ("plan", "monitor_stride", 0), ("forget", "incremental_stride", 0),
        ("head", "batch", 0), ("demo", "stats_window", 0), ("recon", "montage_cols", 0),
        ("encoding", "bins", 0), ("encoding", "silent_bins", -1),
        ("layer", "maps", 0), ("layer", "kernel_size", 0),
        ("layer2", "maps", 0), ("layer2", "kernel_size", -3),
        ("plan", "monitor_stride", None),
        ("layer", "competition_radius", -1), ("layer", "threshold", -5),
        ("layer2", "threshold", 0), ("layer", "init_std", -1), ("layer", "a_plus", 3.0),
        ("layer2", "a_minus", 0), ("head", "p_drop", 2.0), ("head", "p_drop", 1.0),
        ("head", "n_classes", 0), ("head", "window", 0), ("plan", "n_images", -1),
        ("config", "threads", -3), ("config", "seed", -1),
        ("config", "feature_mode", "bogus"), ("head", "kind", "svm"),
        ("head", "cost", "hinge"), ("head", "ratio_mode", "never"),
        ("plan", "stop_rule", "when_bored"),
        ("forget", "images_per_class", 0), ("forget", "images_per_class", -1),
        ("forget", "incremental_start", -5), ("forget", "epochs", -1), ("head", "epochs", -1),
        ("forget", "rehearsal_fractions", [0.1, -0.1]), ("forget", "rehearsal_fractions", [True]),
        ("forget", "rehearsal_fractions", ["0.1"]), ("forget", "rehearsal_fractions", [None]),
        ("forget", "rehearsal_fractions", [[0.1]]), ("forget", "rehearsal_fractions", []),
        ("forget", "task_a_classes", []), ("forget", "task_b_classes", [5, True]),
        ("forget", "task_a_classes", [1.0]), ("forget", "task_a_classes", ["3"]),
        ("forget", "task_b_classes", [-1])])
    def test_below_minimum(self, section, key, value):
        raw = {key: value} if section == "config" else {section: {key: value}}
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            validate_config(raw)

    @pytest.mark.parametrize("flag,value", [("--threads", "-3"), ("--seed", "-1")])
    def test_override_flags_are_validated(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", {"out_dir": str(out)})
        assert main(["demo-stdp", "--config", cfg_path, flag, value]) == 1
        assert f"config.{flag[2:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [{"seed": None}, {"threads": None},
                                     {"head": {"epochs": None}}, {"demo": {"duration": None}},
                                     {"layer": {"threshold": None}}])
    def test_null_only_where_the_default_is_null(self, raw):
        with pytest.raises(ConfigError, match="got None"):
            validate_config(raw)
        validate_config({"dataset": {"train_images": None, "limit_train": None}})

    def test_minimums_are_allowed(self):
        cfg = validate_config({"plan": {"monitor_stride": 1, "n_images": 0},
                               "head": {"batch": 1, "p_drop": 0, "window": 1},
                               "encoding": {"bins": 1, "silent_bins": 0},
                               "layer": {"maps": 1, "kernel_size": 1, "competition_radius": 0,
                                         "a_plus": 1, "a_minus": 1, "threshold": 1e-9},
                               "forget": {"images_per_class": 1, "incremental_start": 1,
                                          "epochs": 0},
                               "seed": 0, "threads": 1})
        assert cfg["encoding"]["bins"] == 1 and cfg["layer"]["maps"] == 1
        assert validate_config({"head": {"epochs": 0}})["head"]["epochs"] == 0

    def test_bins_fit_the_u8_event_axis(self):
        validate_config({"encoding": {"bins": 250, "silent_bins": 6}})
        with pytest.raises(ConfigError, match="256"):
            validate_config({"encoding": {"bins": 250, "silent_bins": 7}})

    @pytest.mark.parametrize("doc", [
        '{"encoding": {"threshold": NaN}}',
        '{"layer": {"threshold": Infinity}}',
        '{"head": {"eta0": -Infinity}}',
        '{"forget": {"rehearsal_fractions": [0.1, NaN]}}',
        '{"dataset": {"saccade_offsets": [[0, Infinity, 1]]}}'])
    def test_non_finite_numbers_rejected(self, tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(doc)
        with pytest.raises(ConfigError, match="finite"):
            load_config(p)

    def test_out_of_range_value_exits_1_before_any_work(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = base_config(dataset, out, plan={"n_images": 10, "monitor_stride": 0})
        assert main(["encode", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert "monitor_stride" in err and "Traceback" not in err
        assert not out.exists()


class TestConfigLoading:
    def test_load_config_unwraps_a_manifest(self, tmp_path):
        cfg = validate_config({"seed": 11, "layer": {"maps": 7}})
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"config": cfg, "artifacts": {}}))
        assert load_config(p) == cfg

    def test_aer_label_outside_u8_fails_cleanly(self, tmp_path, capsys):
        rec = tmp_path / "rec.bin"
        rec.write_bytes(bytes([10, 10, 0x80, 0, 1]))
        cfg = {"out_dir": str(tmp_path / "run"),
               "dataset": {"aer_train": [[str(rec), 300]]}}
        assert main(["encode", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        assert "255" in capsys.readouterr().err


class TestReconstructCommand:
    def test_emits_sheets_and_maps(self, dataset, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "c.json", base_config(dataset, out))
        for cmd in ("encode", "train", "reconstruct"):
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        assert (out / "recon-l2-montage.ppm").exists()
        on_maps = sorted(out.glob("recon-l2-m*-on.pgm"))
        assert len(on_maps) == 12  # one per configured map
        raw = (out / "recon-l2-montage.ppm").read_bytes()
        assert raw.startswith(b"P6\n")


class TestOutputDirOverrides:
    def test_env_var_override(self, tmp_path, monkeypatch):
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("SPIKECNN_OUT", str(env_out))
        cfg_path = write_config(tmp_path / "c.json",
                                {"seed": 1, "out_dir": str(tmp_path / "ignored"),
                                 "demo": {"duration": 300}})
        assert main(["demo-stdp", "--config", cfg_path]) == 0
        assert (env_out / "demo-raster.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPIKECNN_OUT", str(tmp_path / "env"))
        flag_out = tmp_path / "flag"
        cfg_path = write_config(tmp_path / "c.json",
                                {"seed": 1, "demo": {"duration": 300}})
        assert main(["demo-stdp", "--config", cfg_path, "--out", str(flag_out)]) == 0
        assert (flag_out / "demo-raster.csv").exists()

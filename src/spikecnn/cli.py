"""Command-line entry point.

Every subcommand reads one JSON config (a prior run's manifest also works,
since it embeds the config), writes its artifacts into the output directory,
each whole or not at all, and last a manifest of the config, seed and
artifact hashes.  A re-run reproduces checkpoints and CSVs byte for byte, at
any --threads (each image's features are computed alone), and a frozen
layer's spikes are exact, the same on any BLAS.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import container, core, encode, heads, recon, train
from .config import (ConfigError, config_hash, file_sha256, load_config,
                     substream, write_manifest)

OUT_ENV_VAR = "SPIKECNN_OUT"


def _csv_cell(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with container.replacing(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(v) for v in row) + "\n")


def _out_dir(cfg: dict, args) -> Path:
    out = cfg["out_dir"]
    if os.environ.get(OUT_ENV_VAR):
        out = os.environ[OUT_ENV_VAR]
    if args.out:
        out = args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_cfg(args) -> dict:
    overrides = {key: getattr(args, key) for key in ("seed", "threads")
                 if getattr(args, key) is not None}
    return load_config(args.config, overrides)


def _split_key(cfg: dict, split: str) -> str:
    ds = cfg["dataset"]

    def content(path):  # a dataset file rewritten in place gets a new key
        return path and file_sha256(path)

    aer_rows = ds.get(f"aer_{split}")
    return config_hash({"images": content(ds.get(f"{split}_images")),
                        "labels": content(ds.get(f"{split}_labels")),
                        "aer": aer_rows and [[content(p), label] for p, label in aer_rows],
                        "saccades": ds.get("saccade_offsets"),
                        "encoding": cfg["encoding"],
                        "limit": ds.get(f"limit_{split}")})


def _encode_split(cfg: dict, out: Path, split: str):
    ds = cfg["dataset"]
    img_path = ds.get(f"{split}_images")
    lab_path = ds.get(f"{split}_labels")
    aer_rows = ds.get(f"aer_{split}")
    if not aer_rows and not (img_path and lab_path):
        return None
    enc_cfg = cfg["encoding"]
    cache, labels_file = _encoded_paths(out, split, _split_key(cfg, split))
    if cache.exists() and labels_file.exists():
        return cache, labels_file, True
    limit = ds.get(f"limit_{split}")
    if aer_rows:
        tensors, labels = [], []
        for path, label in aer_rows[:limit]:
            tensors.append(encode.load_aer_recording(
                path, n_bins=enc_cfg["bins"], silent_bins=enc_cfg["silent_bins"],
                saccade_offsets=ds.get("saccade_offsets")))
            labels.append(label)
        labels = np.asarray(labels)
    else:
        images, labels = encode.load_idx_images(img_path, lab_path)
        images, labels = images[:limit], labels[:limit]
        tensors = encode.encode_dataset(
            images, threshold=float(enc_cfg["threshold"]), n_bins=enc_cfg["bins"],
            silent_bins=enc_cfg["silent_bins"], sigma_center=enc_cfg["sigma_center"],
            sigma_surround=enc_cfg["sigma_surround"])
    encode.write_cache(cache, tensors)
    encode.write_idx_labels(labels_file, labels)
    return cache, labels_file, False


def cmd_encode(cfg: dict, out: Path) -> dict:
    artifacts = {}
    hits = []
    for split in ("train", "test"):
        result = _encode_split(cfg, out, split)
        if result is None:
            continue
        cache, labels_file, hit = result
        artifacts[f"encoded_{split}"] = cache
        artifacts[f"encoded_{split}_labels"] = labels_file
        hits.append((split, hit))
    if not artifacts:
        raise ConfigError("config.dataset names no image/label files to encode")
    return {"artifacts": artifacts, "extra": {"cache_hits": dict(hits)}}


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing prerequisite {what}: {path} (run the earlier stage first)")
    return path


def _encoded_paths(out: Path, split: str, key: str) -> tuple[Path, Path]:
    """A split's encode cache and labels, named by its ``_split_key``.  Each
    command computes a split's key once: it hashes the dataset files."""
    return (out / f"encoded-{split}-{key}.spkt", out / f"encoded-{split}-{key}-labels.idx")


def _layer_cfg(section: dict) -> core.InhibitionConfig:
    return core.InhibitionConfig(threshold=float(section["threshold"]),
                                 competition_radius=section["competition_radius"],
                                 lateral_inhibition=section["lateral_inhibition"],
                                 pool_lateral_inhibition=section["pool_lateral_inhibition"])


def _init_kernel(section: dict, maps_in: int, rng: np.random.Generator) -> core.ConvKernel:
    return core.init_kernel(section["maps"], maps_in, section["kernel_size"], rng,
                            mean=float(section["init_mean"]), std=float(section["init_std"]),
                            a_plus=float(section["a_plus"]), a_minus=float(section["a_minus"]))


def _stack(cfg: dict) -> list[tuple[str, str, str]]:
    """The conv layers in order: (config section, artifact tag, init substream).
    A second layer exists only as the global_max_potential readout."""
    stack = [("layer", "l2", "init")]
    if cfg["feature_mode"] == "global_max_potential":
        stack.append(("layer2", "l4", "init-l4"))
    return stack


def cmd_train(cfg: dict, out: Path) -> dict:
    train_key = _split_key(cfg, "train")
    cache, _ = _encoded_paths(out, "train", train_key)
    inputs = encode.read_cache(_require(cache, "encoded train cache"))
    side = min(inputs[0].shape[2:])
    for section, _, _ in _stack(cfg):  # checked before any layer trains
        k = cfg[section]["kernel_size"]
        if k > side:
            raise ValueError(f"{section}.kernel_size {k} exceeds its input size {side}")
        side = (side - k + 1) // 2  # the next layer reads this one's pooled maps
    plan_cfg = cfg["plan"]
    plan = train.TrainPlan(n_images=plan_cfg["n_images"], stop_rule=plan_cfg["stop_rule"],
                           monitor_stride=plan_cfg["monitor_stride"],
                           band=(float(plan_cfg["band_low"]), float(plan_cfg["band_high"])))
    artifacts, extra = {}, {}
    maps_in = inputs[0].channels
    for n, (section, tag, stream) in enumerate(_stack(cfg)):
        if n:  # trains on the frozen previous layer's pooled spikes, only those it reads
            pooled = [previous.pooled(t) for t in inputs[:plan.n_images]]
            inputs = [tensor for tensor, _ in pooled]
            if pooled:  # features reads them back instead of pooling these images again
                artifacts["pooled_train"] = _pooled_path(cfg, out, train_key)
                encode.write_pooled(artifacts["pooled_train"], inputs,
                                    [n_spikes for _, n_spikes in pooled])
        layer_cfg = _layer_cfg(cfg[section])
        kernel = _init_kernel(cfg[section], maps_in, substream(cfg["seed"], stream))
        maps_in = kernel.maps_out
        monitor = train.train_conv_layer(plan, inputs, kernel, layer_cfg)
        previous = train.ConvPipeline(kernel, layer_cfg)
        artifacts[f"kernel_{tag}"] = out / f"kernel-{tag}.skrn"
        core.save_kernel(artifacts[f"kernel_{tag}"], kernel)
        artifacts[f"monitor_{tag}"] = out / f"monitor-{tag}.csv"
        write_csv(artifacts[f"monitor_{tag}"], ["sample", "weight_delta", "convergence_factor"],
                  monitor.samples)
        key = "convergence_factor" + (f"_{tag}" if n else "")  # layer 1's key has no tag
        extra[key] = train.convergence_factor(kernel)
        extra.setdefault("stopped_early", monitor.stopped_early)  # layer 1's
    return {"artifacts": artifacts, "extra": extra}


def _pipeline(cfg: dict, out: Path) -> train.ConvPipeline:
    kernels = [core.load_kernel(_require(out / f"kernel-{tag}.skrn", f"{section} kernel"))
               for section, tag, _ in _stack(cfg)]
    return train.ConvPipeline(kernels[0], _layer_cfg(cfg["layer"]), *kernels[1:])


def _pooled_path(cfg: dict, out: Path, train_key: str) -> Path:
    """Where ``train`` keeps layer 2's input, the pooled layer-1 spikes of
    the train images it trains on.  The name hashes all they depend on: the
    train split's encode key, the layer-1 kernel's bytes and the layer
    section."""
    key = config_hash({"encoded": train_key,
                       "kernel": file_sha256(out / "kernel-l2.skrn"),
                       "layer": cfg["layer"]})
    return out / f"pooled-train-{key}.spkt"


def _split_features(cfg: dict, out: Path, pipeline: train.ConvPipeline, split: str, key: str):
    """(FeatureMatrix, mean conv spikes per image) of one encoded split,
    ``key`` its ``_split_key``.  On a two-layer stack, the train images that
    ``train`` pooled for layer 2 take those spikes and skip layer 1."""
    cache, labels_file = _encoded_paths(out, split, key)
    tensors = encode.read_cache(cache)
    pooled = []
    if split == "train" and pipeline.readout is not None:
        path = _pooled_path(cfg, out, key)
        if path.exists():
            pooled = encode.read_pooled(path, pipeline.pooled_shape(tensors[0].shape),
                                        len(tensors))
    return train.extract_features(pipeline, tensors, encode.load_idx_labels(labels_file),
                                  threads=cfg["threads"], pooled=pooled)


def cmd_features(cfg: dict, out: Path) -> dict:
    pipeline = _pipeline(cfg, out)
    artifacts = {}
    stats_rows = []
    for split in ("train", "test"):
        key = _split_key(cfg, split)
        if not _encoded_paths(out, split, key)[0].exists():
            continue
        matrix, mean_spikes = _split_features(cfg, out, pipeline, split, key)
        path = out / f"features-{split}.fmat"
        heads.export_features(matrix, path)
        artifacts[f"features_{split}"] = path
        stats_rows.append((split, matrix.n_rows, matrix.n_cols, mean_spikes))
    if not artifacts:
        raise FileNotFoundError("no encoded caches found; run encode first")
    stats_path = out / "features-stats.csv"
    write_csv(stats_path, ["split", "rows", "cols", "mean_conv_spikes_per_image"], stats_rows)
    artifacts["features_stats"] = stats_path
    return {"artifacts": artifacts}


def _check_labels(labels: np.ndarray, n_classes: int, split: str) -> None:
    if labels.max(initial=0) >= n_classes:
        raise ValueError(f"{split} label {labels.max()} >= head.n_classes {n_classes}")


def _fcn_settings(h: dict) -> dict:
    """The ``head`` section's FCN cost and rates, as ``init_fcn_head`` and
    ``train.ForgetPlan`` take them: ``classify`` and ``forget`` share them."""
    return {"cost": h["cost"], "eta0": float(h["eta0"]), "eta_decay": float(h["eta_decay"]),
            "lam": float(h["lam"])}


def cmd_classify(cfg: dict, out: Path) -> dict:
    data = heads.import_features(_require(out / "features-train.fmat", "training features"))
    h = cfg["head"]
    _check_labels(data.labels, h["n_classes"], "training")
    rng = substream(cfg["seed"], "head-init")
    shuffle_rng = substream(cfg["seed"], "head-shuffle")
    curve = []
    if h["kind"] == "fcn":
        head = heads.init_fcn_head(data.n_cols, h["n_classes"], rng, **_fcn_settings(h))
        for epoch in range(h["epochs"]):
            heads.fcn_train_epoch(head, data, h["batch"], epoch, shuffle_rng)
            curve.append((epoch, heads.fcn_accuracy(head, data)))
    else:  # rstdp
        n_out = h["n_classes"] * h["neurons_per_class"]
        head = heads.init_rstdp_head(
            data.n_cols, n_out, rng,
            a_r_plus=float(h["a_r_plus"]), a_r_minus=float(h["a_r_minus"]),
            a_p_plus=float(h["a_p_plus"]), a_p_minus=float(h["a_p_minus"]),
            neurons_per_class=h["neurons_per_class"], p_drop=float(h["p_drop"]),
            ratio_mode=h["ratio_mode"], window=h["window"],
            miss_ratio=float(h["init_miss_ratio"]))
        dropout_rng = substream(cfg["seed"], "dropout")
        for epoch in range(h["epochs"]):
            acc = heads.rstdp_train_pass(head, data, shuffle_rng,
                                         dropout_rng=dropout_rng)
            curve.append((epoch, acc))
    head_path = out / f"head-{h['kind']}.skhd"
    heads.save_head(head_path, head)
    curve_path = out / "classify-curve.csv"
    write_csv(curve_path, ["epoch", "train_accuracy"], curve)
    return {"artifacts": {"head": head_path, "classify_curve": curve_path}}


def cmd_eval(cfg: dict, out: Path) -> dict:
    data = heads.import_features(_require(out / "features-test.fmat", "test features"))
    h = cfg["head"]
    n_classes = h["n_classes"]
    _check_labels(data.labels, n_classes, "test")
    head = heads.load_head(_require(out / f"head-{h['kind']}.skhd", "trained head"))
    if isinstance(head, heads.FcnHead):
        predict, head_classes = heads.fcn_predict, head.n_out
    else:
        predict, head_classes = heads.rstdp_predict, -(-head.n_out // head.neurons_per_class)
    if head_classes != n_classes:
        raise ValueError(f"the trained head has {head_classes} classes, "
                         f"head.n_classes is {n_classes}")
    pred = predict(head, data)
    acc = float(np.mean(pred == data.labels))
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for truth, guess in zip(data.labels, pred):
        confusion[truth, guess] += 1
    metrics_path = out / "eval-metrics.csv"
    rows = [("accuracy", "", acc)]
    for i in range(n_classes):
        for j in range(n_classes):
            if confusion[i, j]:
                rows.append(("confusion", f"{i}->{j}", int(confusion[i, j])))
    write_csv(metrics_path, ["metric", "detail", "value"], rows)
    return {"artifacts": {"eval_metrics": metrics_path}, "extra": {"accuracy": acc}}


def cmd_demo_stdp(cfg: dict, out: Path) -> dict:
    d = cfg["demo"]
    # the demo gets its own named substream of the root seed
    demo_seed = int(substream(cfg["seed"], "demo").integers(0, 2**31))
    demo_cfg = train.NoiseDemoConfig(
        n_afferents=d["n_afferents"], pattern_len=d["pattern_len"],
        noise_rate=float(d["noise_rate"]), threshold=float(d["threshold"]),
        duration=d["duration"], pattern_rate=float(d["pattern_rate"]),
        seed=demo_seed, a_plus=float(d["a_plus"]), a_minus=float(d["a_minus"]),
        stats_window=d["stats_window"])
    result = train.run_noise_demo(demo_cfg)
    raster_path = out / "demo-raster.csv"
    write_csv(raster_path, ["t", "afferent", "is_pattern"], result.raster.tolist())
    spikes_path = out / "demo-output-spikes.csv"
    write_csv(spikes_path, ["t"], [(int(t),) for t in result.output_spikes])
    sel_path = out / "demo-selectivity.csv"
    write_csv(sel_path, ["window_start", "hit_rate", "false_alarm_rate"], result.windows)
    weights_path = out / "demo-weights.csv"
    in_support = np.zeros(demo_cfg.n_afferents, dtype=int)
    in_support[result.support] = 1
    write_csv(weights_path, ["afferent", "weight", "in_support"],
              [(i, w, s) for i, (w, s) in enumerate(zip(result.weights, in_support))])
    hit, fa = result.selectivity(max(0, demo_cfg.duration - 1000), demo_cfg.duration)
    return {"artifacts": {"demo_raster": raster_path, "demo_output_spikes": spikes_path,
                          "demo_selectivity": sel_path, "demo_weights": weights_path},
            "extra": {"final_hit_rate": hit, "final_false_alarm_rate": fa,
                      "support_jaccard": result.support_jaccard()}}


def cmd_forget(cfg: dict, out: Path) -> dict:
    f = cfg["forget"]
    h = cfg["head"]
    a_classes = tuple(f["task_a_classes"])
    b_classes = tuple(f["task_b_classes"])
    pipeline = _pipeline(cfg, out)
    keys = {split: _split_key(cfg, split) for split in ("train", "test")}
    for split, key in keys.items():  # both checked before any extraction
        cache, labels_file = _encoded_paths(out, split, key)
        _require(cache, f"encoded {split} cache")
        labels = encode.load_idx_labels(labels_file)
        _check_labels(labels, h["n_classes"], split)
        for c in a_classes + b_classes:
            if c >= h["n_classes"]:
                raise ValueError(f"forget task class {c} >= head.n_classes {h['n_classes']}")
            if not np.any(labels == c):
                raise ValueError(f"forget task class {c} has no {split} image")
    matrix, _ = _split_features(cfg, out, pipeline, "train", keys["train"])
    val_matrix, _ = _split_features(cfg, out, pipeline, "test", keys["test"])

    per_class = f["images_per_class"]
    a_pool = _take_per_class(matrix, a_classes, per_class)
    b_pool = _take_per_class(matrix, b_classes, per_class)

    fractions = tuple(float(frac) for frac in f["rehearsal_fractions"])
    plan = train.ForgetPlan(task_a_classes=a_classes, task_b_classes=b_classes,
                            rehearsal_fractions=fractions, epochs=f["epochs"],
                            batch=h["batch"], **_fcn_settings(h), seed=cfg["seed"],
                            incremental=f["incremental"],
                            incremental_start=f["incremental_start"],
                            incremental_stride=f["incremental_stride"])
    artifacts = {}
    results = train.run_forgetting(plan, a_pool, b_pool, val_matrix, n_classes=h["n_classes"])
    for frac, result in zip(fractions, results):
        path = out / f"forget-r{frac:0.3f}.csv"
        write_csv(path, ["epoch", "task_a", "task_b", "combined"], result.curves)
        artifacts[f"forget_r{frac:0.3f}"] = path
        if result.incremental:
            inc_path = out / f"forget-incremental-r{frac:0.3f}.csv"
            write_csv(inc_path, ["images", "task_a", "task_b", "combined"],
                      result.incremental)
            artifacts[f"forget_incremental_r{frac:0.3f}"] = inc_path
    return {"artifacts": artifacts}


def _take_per_class(matrix: heads.FeatureMatrix, classes, per_class: int) -> heads.FeatureMatrix:
    parts_v, parts_l = [], []
    for c in classes:
        idx = np.nonzero(matrix.labels == c)[0][:per_class]
        parts_v.append(matrix.values[idx])
        parts_l.append(matrix.labels[idx])
    return heads.FeatureMatrix(np.concatenate(parts_v), np.concatenate(parts_l))


def cmd_reconstruct(cfg: dict, out: Path) -> dict:
    r = cfg["recon"]
    first_path = r["first_kernel"] or str(out / "kernel-l2.skrn")
    first = core.load_kernel(_require(Path(first_path), "first-layer kernel"))
    features = recon.reconstruct_l2(first.weights)
    tiles = [recon.render_feature(ft) for ft in features]
    artifacts = {}
    sheet = recon.montage(tiles, cols=r["montage_cols"])
    sheet_path = out / "recon-l2-montage.ppm"
    recon.write_ppm(sheet_path, sheet)
    artifacts["recon_l2_montage"] = sheet_path
    for ft in features:
        on_path = out / f"recon-l2-m{ft.source_map:03d}-on.pgm"
        off_path = out / f"recon-l2-m{ft.source_map:03d}-off.pgm"
        recon.write_pgm(on_path, recon.render_gray(ft.on))
        recon.write_pgm(off_path, recon.render_gray(ft.off))
    artifacts["recon_l2_maps"] = out / f"recon-l2-m{features[-1].source_map:03d}-off.pgm"
    if r["second_kernel"]:
        second = core.load_kernel(_require(Path(r["second_kernel"]), "second-layer kernel"))
        l4 = recon.reconstruct_l4(second.weights, first.weights)
        l4_tiles = [recon.render_feature(ft) for ft in l4]
        l4_path = out / "recon-l4-montage.ppm"
        recon.write_ppm(l4_path, recon.montage(l4_tiles, cols=r["montage_cols"]))
        artifacts["recon_l4_montage"] = l4_path
    return {"artifacts": artifacts}


_COMMANDS = {
    "encode": cmd_encode,
    "train": cmd_train,
    "features": cmd_features,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "demo-stdp": cmd_demo_stdp,
    "forget": cmd_forget,
    "reconstruct": cmd_reconstruct,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikecnn",
        description="Spiking convolutional network training and experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config or prior manifest")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None, help="worker cap; 1 = serial reference")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        out = _out_dir(cfg, args)
        started = time.monotonic()
        result = _COMMANDS[args.command](cfg, out)
        wall = time.monotonic() - started
        manifest_path = out / f"manifest-{args.command}.json"
        write_manifest(manifest_path, cfg, result["artifacts"], wall_clock=wall,
                       extra=result.get("extra"))
        for name, path in result["artifacts"].items():
            if not Path(path).exists():
                raise RuntimeError(f"artifact {name} missing after run: {path}")
        print(f"{args.command}: wrote {len(result['artifacts'])} artifact(s) to {out}")
        return 0
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"spikecnn {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration, schema validation, seeded RNG substreams, and manifests.

Every experiment is driven by a single JSON config document.  The schema is
strict: unknown keys anywhere in the document are rejected so that a manifest
written by one run can always be replayed by another.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from . import container


class ConfigError(ValueError):
    """Raised when a config document fails schema validation."""


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent, reproducible RNG stream from (seed, name).

    All randomness in the package flows from one root seed through named
    substreams so individual components can be replayed in isolation.
    """
    key = tuple(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# Schema: section -> key -> (type(s), default[, allowed]).  Only a key whose
# default is null may be set to null.  ``allowed`` is an interval written like
# "[0, 1)" or "(0, inf)", or a tuple of the allowed strings; null skips it.

_ENCODING_SCHEMA = {
    "threshold": ((int, float), 50.0),
    "bins": (int, 10, "[1, inf)"),
    "silent_bins": (int, 2, "[0, inf)"),
    "sigma_center": ((int, float), 1.0, "(0, inf)"),
    "sigma_surround": ((int, float), 2.0, "(0, inf)"),
}

_LAYER_SCHEMA = {
    "maps": (int, 30, "[1, inf)"),
    "kernel_size": (int, 5, "[1, inf)"),
    "threshold": ((int, float), 15.0, "(0, inf)"),
    "competition_radius": (int, 5, "[0, inf)"),
    "lateral_inhibition": (bool, True),
    "pool_lateral_inhibition": (bool, False),
    "init_mean": ((int, float), 0.8),
    "init_std": ((int, float), 0.05, "[0, inf)"),
    "a_plus": ((int, float), 0.004, "(0, 1]"),
    "a_minus": ((int, float), 0.003, "(0, 1]"),
}

# The second convolution layer has no published firing threshold; 10 is the
# package default, exposed here like every other layer knob.
_LAYER2_SCHEMA = dict(_LAYER_SCHEMA, maps=(int, 500, "[1, inf)"),
                      threshold=((int, float), 10.0, "(0, inf)"))

_HEAD_SCHEMA = {
    "kind": (str, "fcn", ("fcn", "rstdp")),
    "cost": (str, "cross_entropy", ("cross_entropy", "quadratic")),
    "eta0": ((int, float), 0.1, "(0, inf)"),
    "eta_decay": ((int, float), 1.007, "(0, inf)"),
    "lam": ((int, float), 0.1, "[0, inf)"),
    "epochs": (int, 20, "[0, inf)"),
    "batch": (int, 10, "[1, inf)"),
    "n_classes": (int, 10, "[1, inf)"),
    "neurons_per_class": (int, 1, "[1, inf)"),
    "p_drop": ((int, float), 0.0, "[0, 1)"),
    "ratio_mode": (str, "batch", ("batch", "per_image")),
    "window": (int, 100, "[1, inf)"),
    "init_miss_ratio": ((int, float), 0.5, "[0, 1]"),
    "a_r_plus": ((int, float), 0.004, "[0, 1]"),
    "a_r_minus": ((int, float), 0.003, "[0, 1]"),
    "a_p_plus": ((int, float), 0.0005, "[0, 1]"),
    "a_p_minus": ((int, float), 0.004, "[0, 1]"),
}

_PLAN_SCHEMA = {
    "n_images": (int, 2000, "[0, inf)"),
    "stop_rule": (str, "fixed_images",
                  ("fixed_images", "convergence_band", "weight_delta_jump")),
    "monitor_stride": (int, 150, "[1, inf)"),
    # convergence_factor lies in [0, 0.25]: a band outside it can never fire
    "band_low": ((int, float), 0.01, "[0, 0.25]"),
    "band_high": ((int, float), 0.02, "[0, 0.25]"),
}

_DEMO_SCHEMA = {
    "n_afferents": (int, 100, "[1, inf)"),
    "pattern_len": (int, 5, "[1, inf)"),
    "noise_rate": ((int, float), 0.01, "[0, 1]"),
    "threshold": ((int, float), 9.0),
    "duration": (int, 5000, "[1, inf)"),
    "pattern_rate": ((int, float), 0.04, "(0, 1]"),
    "a_plus": ((int, float), 0.004, "(0, 1]"),
    "a_minus": ((int, float), 0.003, "(0, 1]"),
    "stats_window": (int, 500, "[1, inf)"),
}

_FORGET_SCHEMA = {
    "task_a_classes": (list, [0, 1, 2, 3, 4]),
    "task_b_classes": (list, [5, 6, 7, 8, 9]),
    "images_per_class": (int, 500, "[1, inf)"),
    "rehearsal_fractions": (list, [0.0, 0.10, 0.15, 0.25, 0.275, 0.30]),
    "epochs": (int, 20, "[0, inf)"),
    "incremental": (bool, False),
    "incremental_start": (int, 500, "[1, inf)"),
    "incremental_stride": (int, 250, "[1, inf)"),
}

_DATASET_SCHEMA = {
    "train_images": (str, None),
    "train_labels": (str, None),
    "test_images": (str, None),
    "test_labels": (str, None),
    # event-camera input: rows of [recording_path, label]
    "aer_train": (list, None),
    "aer_test": (list, None),
    # saccade correction: rows of [t_start_us, dy, dx]; default off
    "saccade_offsets": (list, None),
    "limit_train": (int, None, "[1, inf)"),
    "limit_test": (int, None, "[1, inf)"),
}

_RECON_SCHEMA = {
    "first_kernel": (str, None),
    "second_kernel": (str, None),
    "montage_cols": (int, 10, "[1, inf)"),
}

_TOP_SCHEMA = {
    "seed": (int, 0, "[0, inf)"),
    "threads": (int, 1, "[1, inf)"),
    "out_dir": (str, "runs"),
    "dataset": (dict, None),
    "encoding": (dict, None),
    "layer": (dict, None),
    "layer2": (dict, None),
    "head": (dict, None),
    "plan": (dict, None),
    "demo": (dict, None),
    "forget": (dict, None),
    "recon": (dict, None),
    "feature_mode": (str, "spike_count", ("spike_count", "global_max_potential")),
}

_SECTION_SCHEMAS = {
    "dataset": _DATASET_SCHEMA,
    "encoding": _ENCODING_SCHEMA,
    "layer": _LAYER_SCHEMA,
    "layer2": _LAYER2_SCHEMA,
    "head": _HEAD_SCHEMA,
    "plan": _PLAN_SCHEMA,
    "demo": _DEMO_SCHEMA,
    "forget": _FORGET_SCHEMA,
    "recon": _RECON_SCHEMA,
}


def _apply_schema(raw: dict, schema: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (types, default, *allowed) in schema.items():
        if key in raw:
            value = raw[key]
            if _non_finite(value):
                raise ConfigError(f"{where}.{key}: numbers must be finite, got {value!r}")
            if isinstance(types, tuple):
                ok = isinstance(value, types) and not isinstance(value, bool)
            elif types is bool:
                ok = isinstance(value, bool)
            elif types is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, types)
            if (value is not None or default is not None) and not ok:
                raise ConfigError(f"{where}.{key}: expected {types}, got {value!r}")
            if allowed and value is not None and not _allows(allowed[0], value):
                raise ConfigError(f"{where}.{key}: must be in {allowed[0]}, got {value!r}")
            out[key] = value
        else:
            out[key] = default
    return out


def _allows(allowed, value) -> bool:
    if isinstance(allowed, tuple):
        return value in allowed
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    return ((lo < value if allowed[0] == "(" else lo <= value)
            and (value < hi if allowed[-1] == ")" else value <= hi))


def _non_finite(value) -> bool:
    """NaN or +-Infinity anywhere in a value (json.loads accepts both)."""
    if isinstance(value, float):
        return not math.isfinite(value)
    return isinstance(value, list) and any(_non_finite(v) for v in value)


def validate_config(raw: dict) -> dict:
    """Validate a raw config dict against the schema; returns a filled copy."""
    top = _apply_schema(raw, _TOP_SCHEMA, "config")
    for section, schema in _SECTION_SCHEMAS.items():
        if top.get(section) is not None:
            top[section] = _apply_schema(top[section], schema, f"config.{section}")
        else:
            top[section] = _apply_schema({}, schema, f"config.{section}")
    enc = top["encoding"]
    if enc["bins"] + enc["silent_bins"] > 256:
        raise ConfigError("config.encoding: bins + silent_bins must be <= 256 (u8 event times)")
    if top["feature_mode"] == "global_max_potential" and top["layer"]["maps"] > 256:
        raise ConfigError(f"config.layer.maps: {top['layer']['maps']} maps exceed the 256 u8 "
                          "channels that layer2 reads under global_max_potential")
    plan = top["plan"]
    if plan["band_low"] > plan["band_high"]:
        raise ConfigError(f"config.plan: band_low {plan['band_low']!r} must be <= "
                          f"band_high {plan['band_high']!r}")
    ds = top["dataset"]
    for key in ("aer_train", "aer_test"):
        for row in ds[key] or ():
            if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
                    and type(row[1]) is int and 0 <= row[1] <= 255):
                raise ConfigError(f"config.dataset.{key}: row {row!r} must be "
                                  "[recording path, integer label in [0, 255]]")
    for row in ds["saccade_offsets"] or ():
        if not (isinstance(row, list) and len(row) == 3 and all(type(v) is int for v in row)):
            raise ConfigError(f"config.dataset.saccade_offsets: row {row!r} must be three "
                              "integers [t_start_us, dy, dx]")
    forget = top["forget"]
    if not forget["rehearsal_fractions"]:
        raise ConfigError("config.forget.rehearsal_fractions: must name at least one fraction")
    named: dict[str, float] = {}  # each fraction's curve is forget-r<name>.csv
    for frac in forget["rehearsal_fractions"]:
        if isinstance(frac, bool) or not isinstance(frac, (int, float)) or frac < 0:
            raise ConfigError(f"config.forget.rehearsal_fractions: fraction {frac!r} "
                              "must be a number >= 0")
        name = f"{frac:0.3f}"
        if name in named:
            raise ConfigError(f"config.forget.rehearsal_fractions: fractions {named[name]!r} "
                              f"and {frac!r} both name forget-r{name}.csv")
        named[name] = frac
    for key in ("task_a_classes", "task_b_classes"):
        classes = forget[key]
        if not classes or any(type(c) is not int or c < 0 for c in classes):
            raise ConfigError(f"config.forget.{key}: must be a non-empty list of class "
                              f"numbers >= 0, got {classes!r}")
    # a class listed twice would double its rows in a task's pool, or sit in both tasks
    listed = forget["task_a_classes"] + forget["task_b_classes"]
    twice = sorted({c for c in listed if listed.count(c) > 1})
    if twice:
        raise ConfigError("config.forget.task_a_classes + config.forget.task_b_classes: "
                          f"class {twice[0]} is listed twice")
    return top


def load_config(path: str | Path, overrides: dict | None = None) -> dict:
    """Load and validate a config file, or the config a run manifest embeds,
    with top-level ``overrides`` (such as a CLI seed) applied before validation."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(raw, dict) and "config" in raw and "artifacts" in raw:
        raw = raw["config"]  # replaying a manifest
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    """Stable hash of a config dict (order-independent)."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str | Path, cfg: dict, artifacts: dict[str, str],
                   wall_clock: float, extra: dict | None = None) -> None:
    """Record config, seed, and artifact hashes for reproducible replay.

    Wall-clock time lives here (not in the metrics CSVs) so that re-running a
    stage from its manifest yields byte-identical numerical outputs.
    """
    doc: dict[str, Any] = {
        "config": cfg,
        "artifacts": {name: file_sha256(p) for name, p in artifacts.items()},
        "artifact_paths": {name: str(p) for name, p in artifacts.items()},
        "wall_clock_seconds": round(wall_clock, 3),
    }
    if extra:
        doc.update(extra)
    with container.replacing(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")

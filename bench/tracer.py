"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces public functions of the traced spikecnn modules
with timing wrappers in every package namespace that holds them, so a
function imported by name (``train`` imports ``conv_accumulate`` from
``core``) is traced on every call path.  Each wrapper records a span: calls,
total time and self time (total minus the time of spans opened inside it).
Hooks add deterministic counters (events, spikes, winners, bytes) next to the
times; they run after the span closes, so their cost lands in the caller's
self time.  ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def conv_layer(weights) -> str:
    """Layer label of a kernel: layer 1 reads the two ON/OFF input channels."""
    return "l1" if weights.shape[1] == 2 else "l2"


# Hooks run after a traced call returns: (tracer, seconds, args, kwargs, result).

def _conv_accumulate(tr, dur, args, kwargs, result):
    spikes_bin = _arg(args, kwargs, 0, "spikes_bin")
    tr.record(f"core.conv_accumulate.{conv_layer(_arg(args, kwargs, 1, 'weights'))}", dur)
    tr.counts["core.conv_accumulate.calls"] += 1
    if not spikes_bin.any():
        tr.counts["core.conv_accumulate.empty"] += 1


def _infer_image(tr, dur, args, kwargs, result):
    tr.counts["core.infer_image.images"] += 1
    tr.counts["core.infer_image.spikes"] += int(result[0].sum())


def _stdp_competition(tr, dur, args, kwargs, result):
    tr.counts["core.stdp_competition.winners"] += len(result)


def _train_image(tr, dur, args, kwargs, result):
    layer = conv_layer(_arg(args, kwargs, 1, "kernel").weights)
    tr.counts[f"train.train_image.{layer}"] += 1


def _train_conv_layer(tr, dur, args, kwargs, result):
    layer = conv_layer(_arg(args, kwargs, 2, "kernel").weights)
    tr.record(f"train.train_conv_layer.{layer}", dur)


def _extract_features(tr, dur, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "tensors"))
    tr.counts["train.extract_features.images"] += n
    tr.counts["train.extract_features.spikes"] += result[1] * n


def _encode_dataset(tr, dur, args, kwargs, result):
    tr.counts["encode.encode_dataset.images"] += len(result)
    tr.counts["encode.encode_dataset.events"] += sum(t.n_events for t in result)


def _write_cache(tr, dur, args, kwargs, result):
    tr.counts["encode.write_cache.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read_cache(tr, dur, args, kwargs, result):
    tr.counts["encode.read_cache.images"] += len(result)


def _export_features(tr, dur, args, kwargs, result):
    tr.counts["heads.export_features.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _import_features(tr, dur, args, kwargs, result):
    tr.counts["heads.import_features.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _fcn_train_epoch(tr, dur, args, kwargs, result):
    tr.counts["heads.fcn_train_epoch.rows"] += _arg(args, kwargs, 1, "data").n_rows


def _write_manifest(tr, dur, args, kwargs, result):
    paths = _arg(args, kwargs, 2, "artifacts").values()
    tr.counts["config.write_manifest.bytes"] += sum(os.path.getsize(p) for p in paths)


HOOKS = {
    "core.conv_accumulate": _conv_accumulate,
    "core.infer_image": _infer_image,
    "core.stdp_competition": _stdp_competition,
    "train.train_image": _train_image,
    "train.train_conv_layer": _train_conv_layer,
    "train.extract_features": _extract_features,
    "encode.encode_dataset": _encode_dataset,
    "encode.write_cache": _write_cache,
    "encode.read_cache": _read_cache,
    "heads.export_features": _export_features,
    "heads.import_features": _import_features,
    "heads.fcn_train_epoch": _fcn_train_epoch,
    "config.write_manifest": _write_manifest,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # [start, time of child spans]
        self._patched: list[tuple[object, str, object]] = []

    def record(self, name: str, seconds: float) -> None:
        """Add a call to a derived stat (a per-layer split of a span); its
        self time stays with the span itself."""
        st = self.stats[name]
        st.calls += 1
        st.total += seconds

    def _close(self, name: str) -> float:
        start, children = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats[name]
        st.calls += 1
        st.total += dur
        st.self += dur - children
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        self._stack.append([time.perf_counter(), 0.0])
        try:
            yield
        finally:
            self._close(name)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            self._stack.append([time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(name)
            if hook is not None:
                hook(self, dur, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, traced_modules, namespaces, only=None) -> None:
        """Wrap the public functions defined in ``traced_modules`` (or just
        the ``module.function`` names in ``only``) wherever a module in
        ``namespaces`` refers to them."""
        for mod in traced_modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (only is not None and name not in only)):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

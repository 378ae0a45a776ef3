"""End-to-end and per-layer benchmark of the spikecnn CLI pipeline.

Run from the repository root:

    python3 bench/run.py --workload digits-fcn --seed 1 --seconds 40 --trace 0

The benchmark writes the synthetic digit corpus of ``tests/synth_digits.py``
as IDX files (the seed drives both the corpus and the config ``seed``) and
drives the real CLI in this process (``spikecnn.cli.main``, ``--threads 1``).
Every repetition of a workload starts from an empty output directory: the
encode cache name hashes dataset paths, not contents, so a reused directory
could serve a stale cache.

``--trace 0`` repeats the workload until ``--seconds`` is used up (at least
twice) and reports the end-to-end metrics (``END_TO_END``) as medians
over repetitions.  ``--trace 1`` runs the workload once untraced and twice
with every public function of ``config``, ``encode``, ``core``, ``train`` and
``heads`` wrapped (see ``tracer.py``), then runs ``features`` at
``--threads`` 1 and 2; it reports the per-layer metrics (``PER_LAYER``).
Test accuracy is a per-layer metric, not a gated one: two-layer's accuracy
sits at chance (see ``WORKLOADS``) and varies too much from seed to seed.

Output checks: every CLI command exits 0; frozen layer-1 inference emits
5-40 spikes per image (acceptance criterion 3); digits-fcn reaches test
accuracy 0.90 (criterion 2); checkpoints, feature matrices, CSVs and caches
are byte-identical across repetitions, across the ``--threads`` probe and
across runs of the same source tree and seed (criterion 10, kept in a
ledger under ``.bench_work/``); deterministic per-layer counts repeat
exactly between traced repetitions.  The last stdout line is the result
JSON; the line before it holds the environment, artifact hashes, counts and
the span table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer  # bench/ is sys.path[0] when run as a script

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

MIN_REPS = 2
IMPORT_SAMPLES = 3  # one in this process, the rest in child interpreters
SPIKE_BAND = (5.0, 40.0)
COMMANDS = ("encode", "train", "features", "classify", "eval", "forget")


@dataclass(frozen=True)
class Workload:
    n_train: int
    n_test: int
    config: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    min_accuracy: float = 0.0


_FULL = ("encode", "train", "features", "classify", "eval")

WORKLOADS = {
    # Frozen-layer inference (conv_accumulate, fire_and_inhibit, max_pool,
    # count_spikes) dominates; the only workload writing and reading large
    # FMAT files (3630 columns).  Acceptance criterion 2's accuracy bar needs
    # the recipe's 2,000 STDP images: with 1,000 one seed in ten scored 0.884.
    "digits-fcn": Workload(1000, 500, {"plan": {"n_images": 2000}}, (), _FULL,
                           min_accuracy=0.90),
    # Trains the 500-map layer 2 on pooled layer-1 spikes and extracts
    # global_max_potential features: a GEMM-shaped conv_accumulate, 500-map
    # competition, small FMAT files.  No accuracy floor above chance: at the
    # commit that added this benchmark the 500 layer-2 features are nearly
    # collinear (pairwise correlation ~1.0 on the first maps) and the FCN head
    # scored 0.116 on a 1,000/500 split.  test_accuracy records that
    # baseline, so a fix shows up as a gain.
    "two-layer": Workload(400, 200, {"feature_mode": "global_max_potential",
                                     "plan": {"n_images": 400}}, (), _FULL),
    # encode and train are set-up; the timed forget sweep reads the encode
    # caches, keeps features in memory and writes no FMAT, so half its work
    # is the FCN head.  A container or encode change should not move it.
    # 1,000 STDP images keep a repetition near 9 s, so a run holds four and
    # the medians rest on more than two samples.
    "forget-sweep": Workload(600, 300, {"plan": {"n_images": 1000},
                                        "forget": {"images_per_class": 60}},
                             ("encode", "train"), ("forget",)),
}

END_TO_END = {
    "wall_s": "s", "train_s": "s", "features_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "out_mb": "MB",
}

PER_LAYER = {
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "error_rate": "ratio",
    "test_accuracy": "ratio",
    "trace.overhead_s": "s",
    "config.write_manifest.s": "s",
    "config.write_manifest.mb_hashed": "MB",
    "encode.encode_dataset.ms_per_image": "ms",
    "encode.events_per_image": "count",
    "encode.write_cache.s": "s",
    "encode.cache_mb": "MB",
    "encode.read_cache.ms_per_image": "ms",
    "core.conv_accumulate.l1.us_per_call": "us",
    "core.conv_accumulate.l2.us_per_call": "us",
    "core.conv_accumulate.calls": "count",
    "core.conv_accumulate.empty_ratio": "ratio",
    "core.fire_and_inhibit.us_per_call": "us",
    "core.max_pool.us_per_call": "us",
    "core.global_max_potential.ms_per_image": "ms",
    "core.stdp_competition.us_per_call": "us",
    "core.stdp_competition.winners": "count",
    "core.stdp_update.calls": "count",
    "core.depress_map.calls": "count",
    "core.conv_spikes_per_image": "count",
    "train.train_conv_layer.l1.ms_per_image": "ms",
    "train.train_conv_layer.l2.ms_per_image": "ms",
    "train.extract_features.ms_per_image": "ms",
    "train.extract_features.t2_speedup": "x",
    "train.run_forgetting.s": "s",
    "heads.fcn_train_epoch.us_per_row": "us",
    "heads.fcn_predict.s": "s",
    "heads.export_features.mb_per_s": "MB/s",
    "heads.import_features.mb_per_s": "MB/s",
    "heads.fmat_mb": "MB",
}

# Per-layer metrics that are counts or sizes: they must repeat exactly.
DETERMINISTIC = [name for name, unit in PER_LAYER.items()
                 if unit in ("count", "MB") or name.endswith("empty_ratio")]

_IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from spikecnn import cli, config
config.validate_config(json.loads(open(sys.argv[2]).read()))
print(time.perf_counter() - t0)
"""


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def max_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def canonical(name: str) -> str:
    """Artifact name without the encode cache key (a hash of dataset paths)."""
    return re.sub(r"-[0-9a-f]{16}(?=[-.])", "", name)


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [ROOT / "tests" / "synth_digits.py"]
    files += sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


@dataclass
class Rep:
    """One pass over a workload's commands in a fresh output directory."""

    cmd_s: dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    wall_s: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    out_bytes: int = 0
    accuracy: float = 0.0
    features_s: float = 0.0
    spikes_per_image: float = 0.0


class Bench:
    def __init__(self, args, scratch: Path):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.scratch = scratch
        self.n_out = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        t0 = time.perf_counter()
        from spikecnn import cli, config
        import_s = time.perf_counter() - t0
        from spikecnn import core, encode, heads, recon, train
        import spikecnn
        if not Path(spikecnn.__file__).resolve().is_relative_to(ROOT / "src"):
            fail_setup(f"imported spikecnn from {spikecnn.__file__}, not from {ROOT / 'src'}")
        from synth_digits import write_idx_dataset

        self.cli = cli
        self.train = train
        self.traced_modules = (config, encode, core, train, heads)
        self.namespaces = (spikecnn, cli, config, encode, core, train, heads, recon)

        t0 = time.perf_counter()
        paths = write_idx_dataset(self.scratch / "corpus", self.wl.n_train, self.wl.n_test,
                                  seed=self.args.seed)
        self.corpus_s = time.perf_counter() - t0
        cfg = {"seed": self.args.seed, "out_dir": str(self.scratch / "unused"),
               "dataset": paths, "encoding": {"threshold": 30.0},
               "head": {"kind": "fcn", "epochs": 20}, **self.wl.config}
        self.cfg_path = self.scratch / "config.json"
        self.cfg_path.write_text(json.dumps(cfg, indent=2))

        t0 = time.perf_counter()
        config.validate_config(json.loads(self.cfg_path.read_text()))
        self.import_samples = [import_s + time.perf_counter() - t0]
        for _ in range(IMPORT_SAMPLES - 1):
            done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
                                   str(self.cfg_path)], capture_output=True, text=True,
                                  timeout=120, check=True)
            self.import_samples.append(float(done.stdout.strip().splitlines()[-1]))

    # -- one CLI command and one repetition ----------------------------------

    def command(self, name: str, out: Path, threads: int = 1, tracer=None) -> float:
        argv = [name, "--config", str(self.cfg_path), "--threads", str(threads),
                "--out", str(out)]
        self.attempted += 1
        span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(sys.stderr):
                code = self.cli.main(argv)
        except Exception:  # a traceback out of cli.main is a failed command
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"spikecnn {name} exited {code}")
        return seconds

    def fresh_out(self) -> Path:
        self.n_out += 1
        out = self.scratch / f"out-{self.n_out}"
        out.mkdir()
        return out

    def rep(self, tracer, traced: bool) -> tuple[Rep, Path]:
        """Run the workload once in a fresh output directory; ``tracer``
        wraps everything when ``traced``, otherwise only
        ``train.extract_features`` (two calls per command)."""
        if traced:
            tracer.install(self.traced_modules, self.namespaces)
        else:
            tracer.install((self.train,), self.namespaces, only={"train.extract_features"})
        span_tracer = tracer if traced else None
        out = self.fresh_out()
        rep = Rep()
        try:
            for name in self.wl.setup:
                rep.cmd_s[name] = self.command(name, out, tracer=span_tracer)
            t0 = time.perf_counter()
            for name in self.wl.timed:
                rep.cmd_s[name] = self.command(name, out, tracer=span_tracer)
            rep.wall_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        rep.setup_s = sum(rep.cmd_s[n] for n in self.wl.setup)
        # forget extracts features inside the command
        rep.features_s = rep.cmd_s.get("features", tracer.stats["train.extract_features"].total)
        images = tracer.counts["train.extract_features.images"]
        if not images:
            raise CommandFailed("no image went through train.extract_features")
        rep.spikes_per_image = tracer.counts["train.extract_features.spikes"] / images
        rep.accuracy = self.accuracy(out)
        for path in sorted(out.iterdir()):
            rep.out_bytes += path.stat().st_size
            if not path.name.startswith("manifest-"):
                rep.hashes[canonical(path.name)] = sha256(path)
        self.check_rep(rep)
        return rep, out

    def accuracy(self, out: Path) -> float:
        if "eval" in self.wl.timed:
            for line in (out / "eval-metrics.csv").read_text().splitlines():
                metric, _, value = line.split(",")
                if metric == "accuracy":
                    return float(value)
            raise CommandFailed("eval-metrics.csv holds no accuracy row")
        # forget: mean over rehearsal fractions of the final combined accuracy
        finals = [float(p.read_text().splitlines()[-1].split(",")[3])
                  for p in sorted(out.glob("forget-r*.csv"))]
        return statistics.fmean(finals)

    def check_rep(self, rep: Rep) -> None:
        lo, hi = SPIKE_BAND
        if not lo <= rep.spikes_per_image <= hi:
            self.problems.append(f"conv spikes/image {rep.spikes_per_image:.2f} "
                                 f"outside [{lo}, {hi}]")
        if rep.accuracy < self.wl.min_accuracy:
            self.problems.append(f"test accuracy {rep.accuracy:.4f} below "
                                 f"{self.wl.min_accuracy}")

    def check_same(self, what: str, first: dict, other: dict) -> None:
        diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
        if diff:
            self.problems.append(f"{what} differ: {diff}")

    def check_ledger(self, hashes: dict, counts: dict | None) -> None:
        """Compare with earlier runs of the same sources, workload and seed."""
        ledger = WORK / "ledger"
        ledger.mkdir(parents=True, exist_ok=True)
        path = ledger / f"{self.args.workload}-{self.args.seed}-{source_digest()[:20]}.json"
        record = json.loads(path.read_text()) if path.exists() else {}
        if "artifacts" in record:
            self.check_same("artifact hashes vs an earlier run", record["artifacts"], hashes)
        record["artifacts"] = hashes
        if counts is not None:
            if "counts" in record:
                self.check_same("per-layer counts vs an earlier run", record["counts"], counts)
            record["counts"] = counts
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, path)

    # -- the two modes -------------------------------------------------------

    def run_untraced(self) -> tuple[dict, dict]:
        reps: list[Rep] = []
        started = time.perf_counter()
        while True:
            rep, out = self.rep(Tracer(), traced=False)
            shutil.rmtree(out)
            reps.append(rep)
            if len(reps) == 1:
                # a user runs the pipeline once; later repetitions only add
                # allocator fragmentation, and their number varies with speed
                peak_rss_mb = max_rss_mb()
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > self.args.seconds:
                break
        for other in reps[1:]:
            self.check_same("artifact hashes between repetitions", reps[0].hashes, other.hashes)
        self.check_ledger(reps[0].hashes, None)
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in reps),
            "train_s": statistics.median(r.cmd_s["train"] for r in reps),
            "features_s": statistics.median(r.features_s for r in reps),
            "setup_s": (statistics.median(self.import_samples)
                        + statistics.median(r.setup_s for r in reps)),
            "peak_rss_mb": peak_rss_mb,
            "out_mb": statistics.median(r.out_bytes for r in reps) / 1e6,
        }
        detail = {"test_accuracy": reps[0].accuracy, "final_peak_rss_mb": max_rss_mb(),
                  "reps": [{"cmd_s": r.cmd_s, "wall_s": r.wall_s,
                            "spikes_per_image": r.spikes_per_image} for r in reps],
                  "artifacts": reps[0].hashes}
        return metrics, detail

    def run_traced(self) -> tuple[dict, dict]:
        plain, out = self.rep(Tracer(), traced=False)
        shutil.rmtree(out)
        runs = []
        for _ in range(2):
            if runs:
                shutil.rmtree(out)
            tracer = Tracer()
            rep, out = self.rep(tracer, traced=True)
            runs.append((rep, tracer, layer_metrics(tracer)))
        self.check_same("artifact hashes, traced vs untraced", plain.hashes, runs[0][0].hashes)
        self.check_same("artifact hashes between traced repetitions",
                        runs[0][0].hashes, runs[1][0].hashes)
        counts = [{k: m[k] for k in DETERMINISTIC} for _, _, m in runs]
        self.check_same("deterministic per-layer counts", counts[0], counts[1])
        self.check_ledger(plain.hashes, counts[0])

        metrics = {name: statistics.median(m[name] for _, _, m in runs)
                   for name in runs[0][2]}
        metrics.update(counts[0])
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r, _, _ in runs)
                                       - plain.wall_s)
        metrics["train.extract_features.t2_speedup"] = self.threads_probe(out)
        metrics["error_rate"] = self.failed / self.attempted
        metrics["test_accuracy"] = plain.accuracy
        shutil.rmtree(out)
        # [name, calls, total s, self s] by self time; the per-layer splits
        # (".l1", ".l2") carry total time only
        spans = [[name, st.calls, st.total, st.self]
                 for name, st in sorted(runs[-1][1].stats.items(),
                                        key=lambda kv: -kv[1].self) if st.calls]
        detail = {"untraced_wall_s": plain.wall_s,
                  "traced_wall_s": [r.wall_s for r, _, _ in runs],
                  "counts": dict(sorted(runs[-1][1].counts.items())),
                  "spans": spans, "artifacts": plain.hashes}
        return metrics, detail

    def threads_probe(self, out: Path) -> float:
        """``features`` at --threads 1 and 2 on a trained output directory;
        the feature matrices must be byte-identical."""
        seconds, fmats = [], []
        for threads in (1, 2):
            seconds.append(self.command("features", out, threads=threads))
            fmats.append({p.name: sha256(p) for p in sorted(out.glob("features-*.fmat"))})
        self.check_same("feature matrices at --threads 1 vs 2", *fmats)
        return seconds[0] / seconds[1]


class CommandFailed(RuntimeError):
    pass


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced repetition."""
    S, C = tr.stats, tr.counts

    def rate(span: str, n: float, scale: float) -> float:
        return S[span].total * scale / n if n else 0.0

    def mb_per_s(span: str, key: str) -> float:
        return C[key] / 1e6 / S[span].total if S[span].total else 0.0

    conv_calls = C["core.conv_accumulate.calls"]
    m = {f"cli.{c}.s": S[f"cli.{c}"].total for c in COMMANDS}
    m.update({
        "cli.self_s": sum(S[f"cli.{c}"].self for c in COMMANDS),
        "config.write_manifest.s": S["config.write_manifest"].total,
        "config.write_manifest.mb_hashed": C["config.write_manifest.bytes"] / 1e6,
        "encode.encode_dataset.ms_per_image":
            rate("encode.encode_dataset", C["encode.encode_dataset.images"], 1e3),
        "encode.events_per_image": (C["encode.encode_dataset.events"]
                                    / max(1, C["encode.encode_dataset.images"])),
        "encode.write_cache.s": S["encode.write_cache"].total,
        "encode.cache_mb": C["encode.write_cache.bytes"] / 1e6,
        "encode.read_cache.ms_per_image":
            rate("encode.read_cache", C["encode.read_cache.images"], 1e3),
        "core.conv_accumulate.calls": conv_calls,
        "core.conv_accumulate.empty_ratio":
            C["core.conv_accumulate.empty"] / conv_calls if conv_calls else 0.0,
        "core.global_max_potential.ms_per_image":
            rate("core.global_max_potential", S["core.global_max_potential"].calls, 1e3),
        "core.stdp_competition.winners": C["core.stdp_competition.winners"],
        "core.stdp_update.calls": S["core.stdp_update"].calls,
        "core.depress_map.calls": S["core.depress_map"].calls,
        "core.conv_spikes_per_image": (C["core.infer_image.spikes"]
                                       / max(1, C["core.infer_image.images"])),
        "train.run_forgetting.s": S["train.run_forgetting"].total,
        "train.extract_features.ms_per_image":
            rate("train.extract_features", C["train.extract_features.images"], 1e3),
        "heads.fcn_train_epoch.us_per_row":
            rate("heads.fcn_train_epoch", C["heads.fcn_train_epoch.rows"], 1e6),
        "heads.fcn_predict.s": S["heads.fcn_predict"].total,
        "heads.export_features.mb_per_s":
            mb_per_s("heads.export_features", "heads.export_features.bytes"),
        "heads.import_features.mb_per_s":
            mb_per_s("heads.import_features", "heads.import_features.bytes"),
        "heads.fmat_mb": C["heads.export_features.bytes"] / 1e6,
    })
    for layer in ("l1", "l2"):
        m[f"core.conv_accumulate.{layer}.us_per_call"] = rate(
            f"core.conv_accumulate.{layer}", S[f"core.conv_accumulate.{layer}"].calls, 1e6)
        m[f"train.train_conv_layer.{layer}.ms_per_image"] = rate(
            f"train.train_conv_layer.{layer}", C[f"train.train_image.{layer}"], 1e3)
    for fn in ("fire_and_inhibit", "max_pool", "stdp_competition"):
        m[f"core.{fn}.us_per_call"] = rate(f"core.{fn}", S[f"core.{fn}"].calls, 1e6)
    return m


def check_declared(problems: list[str]) -> None:
    """The printed metrics and units must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[key]} != ours:
            problems.append(f"BENCHMARK.json {key} differs from {key} in bench/run.py")


def main(argv=None) -> int:
    args = parse_args(argv)
    # tensordot goes through OpenBLAS, whose thread pool would otherwise size
    # itself to the machine; pin it before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for needed in (ROOT / "src" / "spikecnn" / "cli.py", ROOT / "tests" / "synth_digits.py"):
        if not needed.is_file():
            fail_setup(f"{needed.relative_to(ROOT)} not found; run from a full checkout")

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = Bench(args, scratch)
    check_declared(bench.problems)
    metrics: dict = {}
    detail: dict = {}
    try:
        bench.setup()
        if args.trace:
            metrics, detail = bench.run_traced()
        else:
            metrics, detail = bench.run_untraced()
    except CommandFailed as exc:
        bench.problems.append(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "import_samples_s": getattr(bench, "import_samples", []),
        "corpus_s": getattr(bench, "corpus_s", 0.0),
        "problems": bench.problems,
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    for problem in dict.fromkeys(bench.problems):
        print(f"bench: check failed: {problem}", file=sys.stderr)
    correct = not bench.problems and bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""No CLI command imports scipy.

Importing ``scipy.special`` costs about half a second and 26 MB of resident
memory, and ``scipy.signal`` over a second and some 70 MB, more than the
whole compute of ``eval`` or ``classify`` on the bench corpus.  The FCN
head's sigmoid calls libm's exp through ``math`` (the bits of
``scipy.special.expit``), and ``encode`` filters in numpy.  Each case runs
in a fresh interpreter and reports which scipy modules ended up in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikecnn
from spikecnn.cli import main
from synth_digits import write_idx_dataset

SRC = Path(spikecnn.__file__).resolve().parents[1]
SCIPY = ("scipy.signal", "scipy.special")

_PROBE = """
import json, sys
from spikecnn import cli, config
argv = json.loads(sys.argv[1])
if argv:
    code = cli.main(argv)
else:
    config.validate_config({})
    code = 0
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules],
                  "scipy": "scipy" in sys.modules}))
""" % (SCIPY,)


def probe(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["code"] == 0, done.stderr
    return report


def loaded_after(argv: list[str]) -> set[str]:
    return set(probe(argv)["loaded"])


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A config and an output directory that has run every stage once."""
    tmp = tmp_path_factory.mktemp("cold")
    cfg = {"seed": 1, "out_dir": str(tmp / "run"),
           "dataset": write_idx_dataset(tmp / "data", n_train=20, n_test=10, seed=3),
           "encoding": {"threshold": 30.0}, "layer": {"maps": 4},
           "plan": {"n_images": 20, "monitor_stride": 10}, "head": {"epochs": 1}}
    cfg_path = tmp / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    for cmd in ("encode", "train", "features", "classify", "eval"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
    return tmp, str(cfg_path)


def test_import_and_validate_load_no_scipy_submodule():
    assert loaded_after([]) == set()


@pytest.mark.parametrize("command,expected", [
    ("features", set()),
    ("classify", set()),
    ("eval", set()),
])
def test_command_loads_only_what_it_calls(prepared, command, expected):
    _, cfg_path = prepared
    report = probe([command, "--config", cfg_path])
    assert set(report["loaded"]) == expected and not report["scipy"]


def test_encode_loads_no_scipy_module(prepared):
    tmp, cfg_path = prepared
    # a fresh directory, so encode filters images instead of hitting its cache
    report = probe(["encode", "--config", cfg_path, "--out", str(tmp / "fresh")])
    assert (tmp / "fresh").is_dir()
    assert not report["scipy"] and report["loaded"] == []

"""Byte-exact golden tests for the CLI.

Each directory under ``golden/cases`` holds an ``invocation.json``, the input
documents it names, and the frozen ``expected.out``.  The test replays the
invocation in a fresh subprocess and compares stdout byte for byte.  After an
intentional output change, regenerate with ``python3 tests/golden/regen.py``
and review the diff.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

CASES = sorted(
    p for p in (Path(__file__).parent / "golden" / "cases").iterdir()
    if p.is_dir())


# Runs the CLI with numpy made unimportable: the package has no runtime
# dependency, so nothing it imports may reach for it.
WITHOUT_NUMPY = ("-c", "import runpy, sys; sys.modules['numpy'] = None; "
                       "runpy.run_module('logmonoid', run_name='__main__', alter_sys=True)")


def run_case(case_dir, launcher=("-m", "logmonoid"), options=()):
    spec = json.loads((case_dir / "invocation.json").read_text())
    cmd = [sys.executable, *launcher, spec["command"]]
    cmd += spec.get("options", []) + list(options)
    cmd += [str(case_dir / name) for name in spec["inputs"]]
    return subprocess.run(cmd, capture_output=True)


def test_corpus_is_present():
    assert len(CASES) >= 25


@pytest.mark.parametrize("case_dir", CASES, ids=lambda p: p.name)
def test_golden_case(case_dir):
    proc = run_case(case_dir)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (case_dir / "expected.out").read_bytes()
    assert proc.stdout == expected
    assert proc.stdout.endswith(b"\n")


@pytest.mark.parametrize("case_dir", CASES, ids=lambda p: p.name)
def test_golden_case_with_verify(case_dir):
    # --verify re-checks every result and reports on stderr only
    proc = run_case(case_dir, options=["--verify"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (case_dir / "expected.out").read_bytes()
    spec = json.loads((case_dir / "invocation.json").read_text())
    assert proc.stderr.count(b": ok\n") == len(spec["inputs"])


@pytest.mark.parametrize("name", ["pushout-kummer-fine", "fiber-sum", "resolve-a3"])
def test_golden_case_without_numpy(name):
    case_dir = Path(__file__).parent / "golden" / "cases" / name
    proc = run_case(case_dir, launcher=WITHOUT_NUMPY)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (case_dir / "expected.out").read_bytes()


def test_import_does_not_load_numpy():
    code = "import sys, logmonoid, logmonoid.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_verify_layer_loads_only_under_the_flag():
    code = "import sys, logmonoid.cli; print('logmonoid._verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    case_dir = Path(__file__).parent / "golden" / "cases" / "gp-cusp"
    traced = ("-X", "importtime", "-m", "logmonoid")
    plain = run_case(case_dir, launcher=traced)
    assert plain.returncode == 0
    assert b"logmonoid._verify" not in plain.stderr
    checked = run_case(case_dir, launcher=traced, options=["--verify"])
    assert checked.returncode == 0
    assert b"logmonoid._verify" in checked.stderr
    # verify: <command> <path>: <check names>: ok
    report = [line for line in checked.stderr.splitlines()
              if line.startswith(b"verify: ")]
    assert len(report) == 1
    assert re.fullmatch(rb"verify: gp \S+: \w+(, \w+)*: ok", report[0])

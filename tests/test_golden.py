"""Byte-exact golden tests for the CLI.

Each directory under ``golden/cases`` holds an ``invocation.json``, the input
documents it names, and the frozen ``expected.out``.  The test replays the
invocation in a fresh subprocess and compares stdout byte for byte.  After an
intentional output change, regenerate with ``python3 tests/golden/regen.py``
and review the diff.  The tests at the end pin the package's public names and
what a bare ``import logmonoid`` loads.
"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logmonoid

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


# ---------------------------------------------------------------------------
# the public surface

MODULES = ("errors", "exact_lattice", "monoid_core", "cone_complex",
           "log_ideal_blowup", "log_hom_analysis")

PUBLIC = frozenset("""
    AffineMonoid BlowupChart DifferentialPresentation DomainError Fan
    FgAbelianGroup InputError IntMatrix InternalCheckError LogMonoidError
    MonoidElement MonoidHom MonoidIdeal MonoidPresentation PrimeIdeal
    RationalCone SmithDecomposition SmoothnessVerdict blowup_charts blowup_fan
    blowup_is_idempotent cokernel differential_rank dual_cone faces
    fan_from_cones fiber_product free_monoid group_from_relations
    grothendieck_group hilbert_basis hom_cokernel hom_kernel integralize
    is_kummer kato_criterion kernel_basis minimal_nonneg_solutions
    multiplicity neat_chart_class predicates pushout relative_characteristic
    resolve saturate sharpen smith_normal_form solve_integer solve_nonneg spec
    stellar_subdivision units universal_differential_presentation
""".split())


def test_bare_import_loads_no_module_and_lists_every_name():
    code = ("import json, sys, logmonoid; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('logmonoid.')), "
            "sorted(n for n in dir(logmonoid) if not n.startswith('_'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, listed = json.loads(proc.stdout)
    assert loaded == []
    assert set(listed) == PUBLIC | set(MODULES) and len(listed) == 59


def test_every_public_name_is_its_module_object():
    assert len(PUBLIC) == 53
    assert set(logmonoid.__all__) == PUBLIC
    for module in MODULES:
        assert getattr(logmonoid, module) is \
            importlib.import_module(f"logmonoid.{module}")
    for name in PUBLIC:
        value = getattr(logmonoid, name)
        home = value.__module__
        assert home in {f"logmonoid.{module}" for module in MODULES}, name
        assert getattr(sys.modules[home], name) is value


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from logmonoid import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cone_complx'"):
        logmonoid.cone_complx
    assert not hasattr(logmonoid, "Cone")
    with pytest.raises(ImportError):
        exec("from logmonoid import Cone", {})


@pytest.mark.parametrize("door", [
    lambda: logmonoid.AffineMonoid(logmonoid.FgAbelianGroup(1), None),
    lambda: logmonoid.AffineMonoid.from_vectors(None),
    lambda: logmonoid.MonoidPresentation(2, None),
    lambda: logmonoid.MonoidIdeal(logmonoid.free_monoid(1), None),
    lambda: logmonoid.RationalCone.from_rays(None, 2),
    lambda: logmonoid.Fan(2, None),
    lambda: logmonoid.Fan(2, [1]),
    lambda: logmonoid.fan_from_cones(None, 2),
    lambda: logmonoid.exact_lattice.intmat([1, 2]),
    lambda: logmonoid.MonoidHom(logmonoid.free_monoid(1),
                                logmonoid.free_monoid(1), [1]),
    lambda: logmonoid.kernel_basis(None),
    lambda: logmonoid.FgAbelianGroup(1, None),
    lambda: logmonoid.MonoidElement((1,), None),
    # a value of the wrong kind where a group or monoid is expected
    lambda: logmonoid.AffineMonoid(None, []),
    lambda: logmonoid.MonoidHom(None, logmonoid.free_monoid(1), [[1]]),
    lambda: logmonoid.MonoidHom(logmonoid.free_monoid(1), None, [[1]]),
    lambda: logmonoid.MonoidIdeal(None, []),
    lambda: logmonoid.group_from_relations(2, None),
    lambda: logmonoid.exact_lattice.intmat_from_columns(None, 2),
], ids=["monoid", "monoid-from-vectors", "presentation", "ideal", "cone",
        "fan", "fan-cone", "fan-from-cones", "intmat", "hom", "kernel-basis",
        "group", "element", "monoid-ambient", "hom-source", "hom-target",
        "ideal-host", "group-from-relations", "intmat-from-columns"])
def test_checked_doors_refuse_a_non_sequence(door):
    with pytest.raises(logmonoid.InputError):
        door()

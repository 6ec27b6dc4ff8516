"""Behavioral tests for the command line interface.

Exit-code contract: 0 success, 1 usage / unreadable / ill-typed input,
2 domain precondition violated (the input parses but the operation is
mathematically undefined on it), 3 internal invariant failure.  Success
output is canonical JSON on stdout; warnings and verification notes go to
stderr only.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.log_hom_analysis as lha
import logmonoid.log_ideal_blowup as lib
import logmonoid.monoid_core as mc
from logmonoid import _verify, cli
from logmonoid.errors import InternalCheckError


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "logmonoid", *argv],
                          capture_output=True, text=True)


def write_doc(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


N1 = {"kind": "affine-monoid", "free_rank": 1, "torsion": [], "generators": [[1]]}
N2 = {"kind": "affine-monoid", "free_rank": 2, "torsion": [],
      "generators": [[1, 0], [0, 1]]}


# ---------------------------------------------------------------------------
# success paths


def test_gp_on_presentation(tmp_path):
    p = write_doc(tmp_path / "cusp.json", {
        "kind": "monoid-presentation", "ngens": 2,
        "relations": [[[2, 0], [0, 3]]]})
    proc = run_cli("gp", p)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "abelian-group"
    assert doc["free_rank"] == 1
    assert doc["invariant_factors"] == []
    a, b = (tuple(v) for v in doc["generator_images"])
    assert tuple(2 * x for x in a) == tuple(3 * x for x in b)
    assert proc.stderr == ""


def test_stdout_is_canonical_json(tmp_path):
    p = write_doc(tmp_path / "n2.json", N2)
    proc = run_cli("spec", p)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(doc, indent=2) + "\n"


def test_repeated_runs_are_byte_identical(tmp_path):
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[2, -1], [0, 1]]})
    outs = {run_cli("hilbert", p).stdout for _ in range(3)}
    assert len(outs) == 1


def test_multiple_files_concatenate(tmp_path):
    p1 = write_doc(tmp_path / "a.json", N1)
    p2 = write_doc(tmp_path / "b.json", N2)
    single1 = run_cli("rank", p1).stdout
    single2 = run_cli("rank", p2).stdout
    both = run_cli("rank", p1, p2)
    assert both.returncode == 0
    assert both.stdout == single1 + single2


def test_out_flag_matches_stdout(tmp_path):
    p = write_doc(tmp_path / "n2.json", N2)
    out_file = tmp_path / "result.json"
    via_stdout = run_cli("props", p)
    via_file = run_cli("props", "--out", str(out_file), p)
    assert via_file.returncode == 0
    assert via_file.stdout == ""
    assert out_file.read_text() == via_stdout.stdout


def test_verify_notes_on_stderr(tmp_path):
    p = write_doc(tmp_path / "n2.json", N2)
    proc = run_cli("spec", "--verify", p)
    assert proc.returncode == 0
    assert "verify: spec" in proc.stderr
    assert "ok" in proc.stderr
    # verification must not change the output bytes
    assert proc.stdout == run_cli("spec", p).stdout


def test_verify_checks_relations_modulo_torsion(tmp_path):
    # 2x = 0 and x + 3y = y present Z/4; both relations hold only mod 4
    p = write_doc(tmp_path / "z4.json", {
        "kind": "monoid-presentation", "ngens": 2,
        "relations": [[[2, 0], [0, 0]], [[1, 3], [0, 1]]]})
    for command in ("gp", "int"):
        proc = run_cli(command, "--verify", p)
        assert proc.returncode == 0, proc.stderr
        assert f"verify: {command}" in proc.stderr and "ok" in proc.stderr
        assert proc.stdout == run_cli(command, p).stdout


def test_verify_relations_rejects_a_violated_relation():
    group = xl.FgAbelianGroup(0, (4,))
    images = [mc.element_of(group, (2,)), mc.element_of(group, (3,))]
    _verify._verify_relations_hold(group, images, [((2, 0), (0, 0))], "z4")
    with pytest.raises(InternalCheckError):
        _verify._verify_relations_hold(group, images, [((1, 0), (0, 1))], "z4")


def test_multiplicity_beyond_the_digit_limit_is_exact(tmp_path):
    # rays (N,1,0), (0,N,1), (1,0,N) with N = 10^2000: the determinant
    # N^3 + 1 has 6,001 digits, more than str() converts by default
    n = 10 ** 2000
    p = write_doc(tmp_path / "cone.json", {
        "kind": "cone", "dim": 3, "rays": [[n, 1, 0], [0, n, 1], [1, 0, n]]})
    proc = run_cli("mult", p)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ('{\n  "kind": "multiplicity",\n  "multiplicity": 1'
                           + "0" * 5999 + "1\n}\n")


def test_nonprimitive_ray_warns_but_succeeds(tmp_path):
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[2, 0], [0, 3]]})
    proc = run_cli("dual", p)
    assert proc.returncode == 0
    assert "not primitive" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rays"] == [[0, 1], [1, 0]]


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "logmonoid" in proc.stdout


def test_version_exits_zero():
    proc = run_cli("--version")
    assert proc.returncode == 0


def test_blowup_builds_its_charts_once(count_calls, capsys):
    # idempotence is read off the charts already built: one blowup_charts
    # and one saturation per chart for the two charts of the plane
    import logmonoid.log_ideal_blowup as lib
    case = Path(__file__).parent / "golden" / "cases" / "blowup-plane"
    charts = count_calls(lib, "blowup_charts")
    saturations = count_calls(mc, "saturate")
    assert cli.main(["blowup", str(case / "ideal.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert (len(charts), len(saturations)) == (1, 2)


def test_fiber_searches_once(count_calls, capsys):
    # the handler builds the monoid from the pairs it prints, without a
    # second homogeneous search
    case = Path(__file__).parent / "golden" / "cases" / "fiber-sum"
    searches = count_calls(mc, "fiber_product_generators")
    assert cli.main(["fiber", str(case / "request.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert len(searches) == 1


def test_blowup_fan_asks_only_whether_the_host_is_toric(count_calls, capsys):
    # is_toric needs no sharpening, which predicates runs for is_free
    case = Path(__file__).parent / "golden" / "cases" / "blowup-fan-plane"
    sharpenings = count_calls(mc, "sharpen")
    assert cli.main(["blowup-fan", str(case / "ideal.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert sharpenings == []


def test_kummer_presents_no_group_kernel(count_calls, capsys):
    # both verdicts ask only whether the kernel is trivial, and read that
    # off the hom's decomposition without presenting the kernel
    case = Path(__file__).parent / "golden" / "cases" / "kummer-triple"
    kernels = count_calls(xl, "_kernel_of")
    assert cli.main(["kummer", str(case / "hom.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert kernels == []


def test_a_presentation_pushout_takes_no_smith_form(count_calls):
    # the target monoids keep the decomposition of their span check, and
    # presentation_of reads their relations off it, not a new decomposition
    case = Path(__file__).parent / "golden" / "cases" / "pushout-kummer-pres"
    doc = json.loads((case / "request.json").read_text())
    left, right = cli._hom_pair(doc, "request.json", pytest.fail,
                                shared="source")
    calls = count_calls(xl, "_snf_full")
    pres = mc.pushout(left, right, "presentation")
    assert calls == []
    assert cli._emit(cli.presentation_block(pres)) == \
        (case / "expected.out").read_text()


@pytest.mark.parametrize("case", ["hom-check-nodal", "kummer-triple"])
def test_every_hom_verdict_reads_one_decomposition(count_calls, case):
    # the door checks the matrix once, and every group verdict reads the
    # one Smith decomposition of [matrix columns | target relations]
    doc = json.loads((Path(__file__).parent / "golden" / "cases" / case /
                      "hom.json").read_text())
    doors = count_calls(xl, "_hom_matrix")
    decompositions = count_calls(xl, "_decompose_among")
    hom = cli.parse_hom(doc, case, pytest.fail)
    for p in (0, 2, 3):
        lha.kato_criterion(hom, p)
        lha.neat_chart_class(hom, p)
        lha.differential_rank(hom, p)
    lha.is_kummer(hom)
    lha.is_gp_injective(hom)
    lha.universal_differential_presentation(hom)
    cols = xl.mat_columns(hom.matrix)
    assert len(doors) == 1
    assert [args for args in decompositions if list(args[1]) == cols] == \
        [(hom.target.ambient, cols)]


def test_blowup_trusts_the_ideals_it_builds(count_calls, capsys):
    # reduced and pulled ideals keep generators known to lie in their host,
    # so only the divisibility tests decide a membership that is not zero
    # or a generator: 4, not the 6 of rebuilding them through the public
    # constructor
    case = Path(__file__).parent / "golden" / "cases" / "blowup-plane"
    decided = count_calls(mc, "_lattice_verdict")
    searches = count_calls(xl, "_minimal_solutions")
    assert cli.main(["blowup", str(case / "ideal.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert len(decided) == 4 and searches == []


def test_resolve_validates_a_parsed_fan_once(count_calls, capsys):
    # parse_fan validates the fan, and resolve trusts a built Fan
    case = Path(__file__).parent / "golden" / "cases" / "resolve-a3"
    validations = count_calls(cc.Fan, "validate")
    assert cli.main(["resolve", str(case / "fan.json")]) == 0
    assert capsys.readouterr().out == (case / "expected.out").read_text()
    assert len(validations) == 1


# ---------------------------------------------------------------------------
# exit 1: usage and ill-typed input


def test_missing_file_exits_1(tmp_path):
    proc = run_cli("gp", str(tmp_path / "nope.json"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error:" in proc.stderr


@pytest.mark.parametrize("content", [
    b"{not json",
    # beyond the parser's recursion limit
    b"[" * 100000 + b"]" * 100000,
    # beyond Python's int-to-str digit limit of 4,300
    b"1" * 5000,
    b"\xff\xfe",
], ids=["not-json", "nested-100000-deep", "integer-of-5000-digits",
        "not-utf8"])
def test_malformed_json_exits_1(tmp_path, content):
    p = tmp_path / "broken.json"
    p.write_bytes(content)
    proc = run_cli("gp", str(p))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_wrong_kind_exits_1(tmp_path):
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[1, 0]]})
    proc = run_cli("gp", str(p))
    assert proc.returncode == 1
    assert "expected" in proc.stderr


def test_missing_field_exits_1(tmp_path):
    p = write_doc(tmp_path / "bad.json",
                  {"kind": "affine-monoid", "free_rank": 2})
    proc = run_cli("spec", p)
    assert proc.returncode == 1


def test_non_hom_matrix_exits_1(tmp_path):
    p = write_doc(tmp_path / "hom.json", {
        "kind": "hom", "source": N1, "target": N1, "matrix": [[-1]]})
    proc = run_cli("hom-check", p)
    assert proc.returncode == 1
    assert "not a monoid homomorphism" in proc.stderr


def test_a_matrix_that_is_not_a_group_hom_exits_1(tmp_path):
    # Z/2 -> Z sending the generator to 1 respects no torsion order
    z2 = {"kind": "affine-monoid", "free_rank": 0, "torsion": [2],
          "generators": [[1]]}
    p = write_doc(tmp_path / "hom.json", {
        "kind": "hom", "source": z2, "target": N1, "matrix": [[1]]})
    proc = run_cli("hom-check", p)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {p}: not a monoid homomorphism: matrix is "
                           f"not a homomorphism of the ambient groups\n")


def test_a_negative_generator_count_exits_1_with_its_path(tmp_path):
    p = write_doc(tmp_path / "pres.json", {
        "kind": "monoid-presentation", "ngens": -1, "relations": []})
    proc = run_cli("int", p)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {p}.ngens: must be nonnegative\n"


def test_ideal_generator_outside_monoid_exits_1(tmp_path):
    sub = {"kind": "affine-monoid", "free_rank": 1, "torsion": [],
           "generators": [[2], [3]]}
    p = write_doc(tmp_path / "ideal.json",
                  {"kind": "ideal", "monoid": sub, "generators": [[1]]})
    proc = run_cli("blowup", p)
    assert proc.returncode == 1
    assert "not an ideal" in proc.stderr


def test_unknown_command_exits_1():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_no_arguments_exits_1():
    proc = subprocess.run([sys.executable, "-m", "logmonoid"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_pushout_legs_must_share_source(tmp_path):
    hom1 = {"kind": "hom", "source": N1, "target": N1, "matrix": [[2]]}
    hom2 = {"kind": "hom", "source": N2, "target": N2,
            "matrix": [[1, 0], [0, 1]]}
    p = write_doc(tmp_path / "req.json",
                  {"kind": "pushout-request", "left": hom1, "right": hom2})
    proc = run_cli("pushout", p)
    assert proc.returncode == 1
    assert "share their source" in proc.stderr


# ---------------------------------------------------------------------------
# exit 2: domain errors


def test_blowup_of_empty_ideal_exits_2(tmp_path):
    p = write_doc(tmp_path / "ideal.json",
                  {"kind": "ideal", "monoid": N2, "generators": []})
    proc = run_cli("blowup", p)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "domain error:" in proc.stderr


def test_hilbert_of_long_thin_cone(tmp_path):
    # multiplicity 10^5, three basis vectors
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[0, 1], [100000, -1]]})
    proc = run_cli("hilbert", p)
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(
        {"kind": "hilbert-basis", "count": 3,
         "vectors": [[0, 1], [1, 0], [100000, -1]]}, indent=2) + "\n"
    assert proc.stderr == ""


def test_hilbert_of_nonpointed_cone_exits_2(tmp_path):
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[1, 0], [-1, 0]]})
    proc = run_cli("hilbert", p)
    assert proc.returncode == 2


def test_mult_of_nonsimplicial_cone_exits_2(tmp_path):
    p = write_doc(tmp_path / "cone.json", {
        "kind": "cone", "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]})
    proc = run_cli("mult", p)
    assert proc.returncode == 2
    assert "simplicial" in proc.stderr


def test_composite_char_exits_2(tmp_path):
    p = write_doc(tmp_path / "hom.json", {
        "kind": "hom", "source": N1, "target": N1, "matrix": [[2]]})
    proc = run_cli("hom-check", "--char", "6", p)
    assert proc.returncode == 2
    assert "prime" in proc.stderr


def test_char_past_the_exact_primality_range_exits_2(tmp_path, capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the prime
    # bases 2 to 37
    p = write_doc(tmp_path / "hom.json", {
        "kind": "hom", "source": N1, "target": N1, "matrix": [[2]]})
    assert cli.main(["hom-check", "--char", "318665857834031151167461", p]) == 2
    assert "prime" in capsys.readouterr().err


def test_invalid_fan_exits_2(tmp_path):
    p = write_doc(tmp_path / "fan.json", {
        "kind": "fan", "dim": 2,
        "maximal_cones": [[[1, 0], [1, 2]], [[1, 1], [0, 1]]]})
    proc = run_cli("resolve", p)
    assert proc.returncode == 2
    assert "domain error:" in proc.stderr


@pytest.mark.parametrize("torsion", [None, True, 1.5, 7, "x", {}])
def test_non_list_torsion_exits_1(tmp_path, torsion):
    p = write_doc(tmp_path / "m.json", {
        "kind": "affine-monoid", "free_rank": 1, "torsion": torsion,
        "generators": [[1]]})
    proc = run_cli("sat", p)
    assert proc.returncode == 1, proc.stderr
    assert "m.json.torsion: expected a list of integers" in proc.stderr


# Every node of every golden input but its "kind", replaced by one value
# of each JSON type, must give a result, a malformed-input error or a
# domain error: never exit 3.
GOLDEN_CASES = sorted(
    p for p in (Path(__file__).parent / "golden" / "cases").iterdir()
    if p.is_dir())
_MUTANTS = (None, True, 1.5, "x", {}, 7, [], [7], [[]])


def _node_paths(node, path=()):
    if isinstance(node, dict):
        children = [(k, v) for k, v in node.items() if k != "kind"]
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


@pytest.mark.parametrize("case_dir", GOLDEN_CASES, ids=lambda p: p.name)
def test_type_mutations_of_golden_inputs_never_exit_3(case_dir, tmp_path,
                                                       capsys):
    spec = json.loads((case_dir / "invocation.json").read_text())
    docs = [json.loads((case_dir / name).read_text())
            for name in spec["inputs"]]
    for i, doc in enumerate(docs):
        for path in _node_paths(doc):
            for value in _MUTANTS:
                files = []
                for j, other in enumerate(docs):
                    mutated = _replaced(doc, path, value) if j == i else other
                    files.append(write_doc(tmp_path / f"in{j}.json", mutated))
                code = cli.main([spec["command"], *spec.get("options", []),
                                 *files])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (spec["inputs"][i], path, value, err)


# ---------------------------------------------------------------------------
# exit 3: internal check failures


def test_internal_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    # exercised in-process: no handler fails its own invariants on real
    # input, so a failing handler is injected
    p = write_doc(tmp_path / "n2.json", N2)

    def broken(doc, path, args, warn):
        raise InternalCheckError("injected invariant failure")

    monkeypatch.setitem(cli._HANDLERS, "spec", broken)
    code = cli.main(["spec", str(p)])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal check failed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("generators, sets, message", [
    # closed under intersection, but the ray of (1, 1) is not a face
    ([[1, 0], [1, 1], [0, 1]], [(), (1,), (0, 1, 2)], "not a face"),
    # the face of (1, 0) also holds (2, 0)
    ([[1, 0], [2, 0], [0, 1]], [(), (0,), (2,), (0, 1, 2)], "omits"),
    # faces, closed under intersection, but both rays of N^2 are missing
    ([[1, 0], [0, 1]], [(), (0, 1)], "missing"),
])
def test_spec_verify_checks_each_prime_against_the_cone(
        tmp_path, monkeypatch, capsys, generators, sets, message):
    p = write_doc(tmp_path / "m.json", {
        "kind": "affine-monoid", "free_rank": 2, "torsion": [],
        "generators": generators})
    monkeypatch.setattr(mc, "spec", lambda monoid: [
        mc.PrimeIdeal(complement_face=frozenset(s)) for s in sets])
    assert cli.main(["spec", str(p)]) == 0
    assert cli.main(["spec", "--verify", str(p)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dropped", [
    # faces, closed under intersection, but the proper faces holding
    # (0, 1, 0) are missing
    lambda face: face.span_dim < 3 and (0, 1, 0) in face.extreme_rays,
    # the cone itself is missing
    lambda face: face.span_dim == 3,
], ids=["ray-and-its-planes", "cone"])
def test_faces_verify_finds_a_missing_face(
        tmp_path, monkeypatch, capsys, dropped):
    p = write_doc(tmp_path / "c.json", {
        "kind": "cone", "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
    faces = cc.faces
    monkeypatch.setattr(cc, "faces", lambda cone: [
        f for f in faces(cone) if not dropped(f)])
    assert cli.main(["faces", str(p)]) == 0
    assert cli.main(["faces", "--verify", str(p)]) == 3
    assert "missing" in capsys.readouterr().err


def test_rank_verify_catches_a_sharpening_that_keeps_the_units(
        tmp_path, monkeypatch, capsys):
    # the half-line N x Z has characteristic rank 1; a sharpening that
    # keeps the units (none found) reports 2, which the check against
    # M^gp / M^x, with the units found by the solver, must refuse
    case = Path(__file__).parent / "golden" / "cases" / "rank-halfline"
    p = str(case / "halfline.json")
    assert cli.main(["rank", "--verify", p]) == 0
    capsys.readouterr()
    monkeypatch.setattr(mc, "units", lambda monoid: ())
    assert cli.main(["rank", "--verify", p]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "M^gp / M^x" in captured.err


@pytest.mark.parametrize("command, message", [
    ("rank", "M^gp / M^x"),
    ("sharpen", "still has units"),
])
def test_verify_catches_a_wrong_unit_group(monkeypatch, capsys, command,
                                           message):
    # the checks find the units by the solver, not by the incidence rule
    # they check, so a units that reports none of N x Z's units is refused
    case = Path(__file__).parent / "golden" / "cases" / "rank-halfline"
    p = str(case / "halfline.json")
    monkeypatch.setattr(mc, "units", lambda monoid: ())
    assert cli.main([command, "--verify", p]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_sharpen_verify_catches_an_unreported_unit(monkeypatch, capsys):
    case = Path(__file__).parent / "golden" / "cases" / "rank-halfline"
    p = str(case / "halfline.json")
    # reporting (-1, 0) alone still sharpens correctly, as it spans M^x
    units = mc.units
    monkeypatch.setattr(mc, "units", lambda monoid: units(monoid)[:1])
    assert cli.main(["sharpen", "--verify", p]) == 3
    assert "not reported" in capsys.readouterr().err


# Z^3 (+) Z/2 (+) Z/4 on five generators that are all units: the solver
# needed seconds per command to find that, the cone of free parts does not
ALL_UNITS = {"kind": "affine-monoid", "free_rank": 3, "torsion": [2, 4],
             "generators": [[-3, -2, -2, 1, 0], [-3, -3, 3, 1, 3],
                            [-2, 2, 3, 0, 1], [3, 3, -1, 0, 1],
                            [3, -3, 1, 0, 2]]}


@pytest.mark.parametrize("command, expected", [
    ("rank", {"kind": "characteristic-rank", "rank": 0}),
    ("sharpen", {"kind": "sharpen-result",
                 "units": sorted(ALL_UNITS["generators"]),
                 "monoid": {"kind": "affine-monoid", "free_rank": 0,
                            "torsion": [], "generators": []}}),
    ("props", {"kind": "predicates", "is_sharp": False, "is_saturated": True,
               "is_toric": False, "is_free": True}),
])
def test_all_units_monoid(tmp_path, command, expected):
    p = write_doc(tmp_path / "units.json", ALL_UNITS)
    proc = run_cli(command, p)
    assert proc.returncode == 0
    assert proc.stdout == json.dumps(expected, indent=2) + "\n"
    assert proc.stderr == ""


GOLDEN = Path(__file__).parent / "golden" / "cases"


def _golden_doc(case, name):
    return json.loads((GOLDEN / case / name).read_text())


# the cone over a square: four rays in dimension 3
NOT_SIMPLICIAL = {"kind": "cone", "dim": 3,
                  "rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]}


@pytest.mark.parametrize("command, doc, names", [
    ("gp", N2, "generates"),
    ("regular", NOT_SIMPLICIAL, "simplicial"),
])
def test_verify_names_the_checks_of_gp_and_regular(tmp_path, capsys, command,
                                                    doc, names):
    p = write_doc(tmp_path / "in.json", doc)
    assert cli.main([command, "--verify", p]) == 0
    assert capsys.readouterr().err == f"verify: {command} {p}: {names}: ok\n"


def _zero_matrix(mat):
    return xl.IntMatrix(tuple((0,) * mat.ncols for _ in mat.rows), mat.ncols)


@pytest.mark.parametrize("command, doc, owner, name, wrong, message", [
    ("dual", _golden_doc("dual-flag", "cone.json"), cc, "dual_cone",
     lambda dual, cone: cone,
     "dual differs from the cone the facet normals generate"),
    ("hilbert", _golden_doc("hilbert-flag", "cone.json"), cc, "hilbert_basis",
     lambda basis, cone: [*basis, cc.vadd(basis[0], basis[1])],
     "Hilbert basis element is reducible"),
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "resolve",
     lambda resolved, fan: fan, "resolution is not regular"),
    # the regular cone((2, 1), (-1, 0)) contains two cones of the resolution
    # and overlaps the third: the result is regular and covers the support,
    # and only the trusted constructor builds it
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "resolve",
     lambda resolved, fan: cc.Fan._built(2, (
         *resolved.maximal_cones,
         cc.RationalCone.from_rays([(2, 1), (-1, 0)], 2))),
     "resolution is not a fan"),
    # a regular fan on more than the input cone: cone((1, 3), (0, 1)) meets
    # the resolution in the ray (1, 3)
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "resolve",
     lambda resolved, fan: cc.Fan(dim=2, maximal_cones=(
         *resolved.maximal_cones,
         cc.RationalCone.from_rays([(1, 3), (0, 1)], 2))),
     "resolution leaves the input cones"),
    # a regular fan without cone((1, 1), (1, 2)): it keeps every input ray
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "resolve",
     lambda resolved, fan: cc.Fan(dim=2, maximal_cones=(
         resolved.maximal_cones[0], resolved.maximal_cones[2])),
     "resolution does not cover an input cone"),
    # the two rays of the input cone and nothing between them
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "resolve",
     lambda resolved, fan: cc.Fan(dim=2, maximal_cones=tuple(
         cc.RationalCone.from_rays([r], 2) for r in fan.rays())),
     "resolution does not cover an input cone"),
    # a 2D piece with one facet normal negated: regular by its rays, and
    # its rays still cover the input, but it is not the cone of its rays
    ("resolve", _golden_doc("resolve-a3", "fan.json"), cc, "_regular_pieces_2d",
     lambda pieces, cone: (pieces[0], dataclasses.replace(
         pieces[1], facet_normals=(cc.vneg(pieces[1].facet_normals[0]),
                                   *pieces[1].facet_normals[1:])),
         *pieces[2:]),
     "resolution cone differs from the cone of its rays"),
    # the same for a cone of span dimension 2 in Z^3, whose pieces are
    # lifted from its span coordinates
    ("resolve", {"kind": "cone", "dim": 3, "rays": [[1, 0, 0], [1, 3, 0]]},
     cc, "_regular_pieces_2d",
     lambda pieces, cone: (pieces[0], dataclasses.replace(
         pieces[1], facet_normals=(cc.vneg(pieces[1].facet_normals[0]),
                                   *pieces[1].facet_normals[1:])),
         *pieces[2:]),
     "resolution cone differs from the cone of its rays"),
    ("pushout", _golden_doc("pushout-kummer-fine", "request.json"), mc,
     "pushout_with_maps",
     lambda result, left, right: dataclasses.replace(
         result, right_matrix=_zero_matrix(result.right_matrix)),
     "pushout square does not commute"),
    ("fiber", _golden_doc("fiber-sum", "request.json"), mc,
     "fiber_product_generators",
     lambda pairs, left, right: [(m, right.source.zero) for m, _ in pairs],
     "fiber pair does not equalize the two legs"),
    # the ideal (x^2, y^2) of N^2: its fine charts are not saturated
    ("blowup", {"kind": "ideal", "monoid": N2, "generators": [[2, 0], [0, 2]]},
     lib, "blowup_charts",
     lambda charts, host, ideal: [dataclasses.replace(c, fs=c.fine)
                                  for c in charts],
     "fs chart is not saturated"),
    # doubled generators of N^2 span a subgroup of index 4
    ("gp", N2, cli, "parse_monoid",
     lambda monoid, doc, path, warn: mc.AffineMonoid._spanning(
         monoid.ambient,
         [monoid.add(g, g).as_vector() for g in monoid.generators]),
     "generator images do not generate the group"),
    ("regular", NOT_SIMPLICIAL, cc, "is_regular", lambda verdict, cone: True,
     "a cone that is not simplicial is regular"),
    # the cone of mult-flag and the fan of regular-a2-fan have multiplicity
    # 2; the Smith invariant factors of the rays do not read the patched
    # multiplicity, so they disagree
    ("mult", _golden_doc("mult-flag", "cone.json"), cc, "multiplicity",
     lambda mult, cone: mult + 1,
     "multiplicity differs from the Smith invariant factors"),
    ("regular", _golden_doc("mult-flag", "cone.json"), cc, "multiplicity",
     lambda mult, cone: 1,
     "regularity disagrees with the Smith invariant factors"),
    ("regular", _golden_doc("regular-a2-fan", "fan.json"), cc, "multiplicity",
     lambda mult, cone: 1,
     "fan regularity disagrees with the Smith invariant factors"),
    # the stellar loop and the regular check read the patched multiplicity:
    # the cone of multiplicity 5 comes back unresolved as one regular cone
    ("resolve", {"kind": "cone", "dim": 3,
                 "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 5]]}, cc, "multiplicity",
     lambda mult, cone: 1,
     "resolution is not regular by the Smith invariant factors"),
    # readings of the hom's one decomposition, against a second one: the
    # nodal N -> N^2, 1 |-> (2, 2), is injective, and so is 1 |-> 3 on N
    ("hom-check", _golden_doc("hom-check-nodal", "hom.json"), xl,
     "_kernel_of", lambda ker, source, dec: xl.FgAbelianGroup(0, (2,)),
     "group kernel differs from a second decomposition"),
    ("kummer", _golden_doc("kummer-triple", "hom.json"), xl, "_is_injective",
     lambda injective, source, dec: not injective,
     "injectivity differs from the kernel of a second decomposition"),
    ("neat", _golden_doc("neat-double", "hom.json"), lha, "gp_cokernel",
     lambda coker, hom: xl.FgAbelianGroup(coker.free_rank + 1,
                                          coker.invariant_factors),
     "group cokernel differs from a second decomposition"),
    ("diff-rank", _golden_doc("diff-rank-nodal", "hom.json"), lha,
     "gp_cokernel", lambda coker, hom: xl.FgAbelianGroup(coker.free_rank),
     "group cokernel differs from a second decomposition"),
    ("diff-rank", _golden_doc("diff-rank-nodal", "hom.json"), lha,
     "is_gp_injective", lambda injective, hom: not injective,
     "injectivity differs from the kernel of a second decomposition"),
    ("diff-rank", _golden_doc("diff-rank-nodal", "hom.json"), lha,
     "monoid_kernel_trivial", lambda trivial, hom: False,
     "a hom injective on groups has a nontrivial monoid kernel"),
    # the verdicts read off the groups, against the rules applied to the
    # groups of the second decomposition: 1 |-> 2 on N has cokernel Z/2,
    # so its chart class at p = 2 is fppf, and it is not smooth there
    ("neat --char 2", _golden_doc("neat-double", "hom.json"), lha,
     "neat_chart_class", lambda cls, hom: "etale" if cls == "fppf" else cls,
     "chart class differs from the torsion of a second decomposition"),
    ("hom-check", _golden_doc("hom-check-nodal", "hom.json"), lha,
     "kato_criterion",
     lambda verdict, hom: dataclasses.replace(
         verdict, is_smooth=not verdict.is_smooth),
     "smoothness verdict differs from the chart criterion"),
    ("diff-rank", _golden_doc("diff-rank-nodal", "hom.json"), lha,
     "differential_rank", lambda rank, hom: rank + 1,
     "differential rank differs from the cokernel of a second decomposition"),
    # <(1, 0), (1, 1)> in Z (+) Z/2 misses (0, 1) of its saturation, which
    # the lattice of relations (kernel rank 1) decides; flipped, the monoid
    # reads as saturated
    ("props", _golden_doc("props-kummer-monoid", "kummer.json"), mc,
     "_lattice_verdict",
     lambda verdict, lattice, vec: None if verdict is None else not verdict,
     "saturation verdict differs from the membership search"),
    # N^2 is toric: no torsion, saturated, and no generator is a unit
    ("props", N2, mc, "predicates",
     lambda pred, monoid: dataclasses.replace(pred, is_toric=False),
     "toric verdict differs from the torsion, the saturation and the units"),
], ids=["dual", "hilbert", "resolve", "resolve-fan", "resolve-refines",
        "resolve-covers", "resolve-rays", "resolve-canonical",
        "resolve-canonical-span", "pushout",
        "fiber", "blowup", "gp",
        "regular", "mult-smith", "regular-smith", "regular-fan-smith",
        "resolve-smith", "hom-check-kernel", "kummer-kernel",
        "neat-cokernel", "diff-rank-cokernel", "diff-rank-injective",
        "diff-rank-monoid-kernel", "neat-class", "hom-check-criterion",
        "diff-rank-rank", "props-saturated", "props-toric"])
def test_verify_catches_a_wrong_result(tmp_path, monkeypatch, capsys, command,
                                       doc, owner, name, wrong, message):
    p = write_doc(tmp_path / "in.json", doc)
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: wrong(
        real(*args, **kwargs), *args))
    # a command may carry options: "neat --char 2"
    assert cli.main([*command.split(), p]) == 0
    capsys.readouterr()
    assert cli.main([*command.split(), "--verify", p]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_unexpected_exception_exits_3(tmp_path, monkeypatch, capsys):
    p = write_doc(tmp_path / "n2.json", N2)

    def crash(doc, path, args, warn):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._HANDLERS, "props", crash)
    code = cli.main(["props", str(p)])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal error" in captured.err


# ---------------------------------------------------------------------------
# in-process equivalence (the module entry point is a thin wrapper)


def test_main_matches_subprocess(tmp_path, capsys):
    p = write_doc(tmp_path / "cone.json",
                  {"kind": "cone", "dim": 2, "rays": [[1, 0], [1, 2]]})
    code = cli.main(["faces", str(p)])
    captured = capsys.readouterr()
    proc = run_cli("faces", str(p))
    assert code == proc.returncode == 0
    assert captured.out == proc.stdout


def test_monoid_commands_accept_presentations(tmp_path):
    p = write_doc(tmp_path / "pres.json", {
        "kind": "monoid-presentation", "ngens": 2,
        "relations": [[[1, 1], [2, 1]]]})
    proc = run_cli("props", p)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "predicates"


def test_proper_span_warns(tmp_path):
    p = write_doc(tmp_path / "even.json", {
        "kind": "affine-monoid", "free_rank": 1, "torsion": [],
        "generators": [[2]]})
    proc = run_cli("props", p)
    assert proc.returncode == 0
    assert "proper subgroup" in proc.stderr


def _quotient_is_nontrivial(host, vecs):
    """The re-presentation test by a separate quotient of the host."""
    if vecs:
        quot, _ = xl.quotient_presentation(host, vecs)
        return not quot.is_trivial
    return host.lift_dim > 0


@st.composite
def _monoid_docs(draw):
    """An affine-monoid document with up to three generators, or none, in
    Z^r (+) torsion."""
    r = draw(st.integers(0, 2))
    torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4), (6,)]))
    n = r + len(torsion)
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return {"kind": "affine-monoid", "free_rank": r,
            "torsion": list(torsion),
            "generators": draw(st.lists(vec, max_size=3))}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_monoid_docs())
def test_span_warning_matches_quotient_test(doc):
    warnings = []
    cli.parse_monoid(doc, "m", warnings.append)
    host = xl.FgAbelianGroup(doc["free_rank"], tuple(doc["torsion"]))
    assert bool(warnings) == _quotient_is_nontrivial(
        host, [tuple(g) for g in doc["generators"]])


def test_nonprimitive_fan_ray_warns_with_its_cone(tmp_path):
    p = write_doc(tmp_path / "fan.json", {
        "kind": "fan", "dim": 2, "maximal_cones": [[[1, 0], [0, 1]],
                                                   [[0, 2], [-1, 0]]]})
    proc = run_cli("regular", p)
    assert proc.returncode == 0
    assert "maximal_cones[1]: ray [0, 2] is not primitive; scaled to [0, 1]" \
        in proc.stderr
    assert "maximal_cones[0]" not in proc.stderr

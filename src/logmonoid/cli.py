"""Command line front end.

Every command reads one or more JSON documents and prints one canonical JSON
document per input, in order.  Canonical means: fixed key order, two-space
indentation, a single trailing newline, and every list that denotes a *set*
of vectors (generators, rays, Hilbert basis elements, solution pairs) sorted
lexicographically.  Lists whose order is semantic — images per input
generator, matrix rows, relation columns — keep their computed order.  Equal
inputs therefore produce byte-identical outputs.

Exit codes:
  0  success
  1  usage error or malformed / ill-typed input document
  2  domain error: a well-formed input outside an operation's precondition
  3  internal consistency check failed (a bug in this package)

Warnings (non-primitive rays scaled down, generator spans re-presented) go
to stderr and never affect the output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cone_complex as cc
from . import exact_lattice as xl
from . import log_hom_analysis as lha
from . import log_ideal_blowup as lib
from . import monoid_core as mc
from .errors import DomainError, InputError, InternalCheckError

# ---------------------------------------------------------------------------
# document loading


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed, nested deeper than the recursion limit, or holding an
        # integer longer than the int-to-str digit limit
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level value must be a JSON object")
    if "kind" not in doc:
        raise InputError(f"{path}: document is missing its \"kind\" field")
    return doc


def _get(obj, key, ctx):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{ctx}: missing field {key!r}")
    return obj[key]


def _as_int(x, ctx):
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{ctx}: expected an integer, got {x!r}")
    return x


def _as_vector(x, length, ctx):
    if not isinstance(x, list):
        raise InputError(f"{ctx}: expected a list of integers, got {x!r}")
    vec = tuple(_as_int(v, ctx) for v in x)
    if length is not None and len(vec) != length:
        raise InputError(
            f"{ctx}: expected a vector of length {length}, got {list(vec)}")
    return vec


def _as_vector_list(x, length, ctx):
    if not isinstance(x, list):
        raise InputError(f"{ctx}: expected a list of vectors")
    return [_as_vector(v, length, f"{ctx}[{i}]") for i, v in enumerate(x)]


def _expect_kind(doc, kinds, ctx):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in kinds:
        wanted = " or ".join(sorted(kinds))
        raise InputError(f"{ctx}: expected a {wanted} document, got kind {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# parsers per document kind


def parse_presentation(doc, ctx):
    _expect_kind(doc, {"monoid-presentation"}, ctx)
    ngens = _as_int(_get(doc, "ngens", ctx), f"{ctx}.ngens")
    raw = _get(doc, "relations", ctx)
    if not isinstance(raw, list):
        raise InputError(f"{ctx}.relations: expected a list of [u, v] pairs")
    rels = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(
                f"{ctx}.relations[{i}]: expected a pair [u, v] of exponent vectors")
        u = _as_vector(pair[0], ngens, f"{ctx}.relations[{i}][0]")
        v = _as_vector(pair[1], ngens, f"{ctx}.relations[{i}][1]")
        rels.append((u, v))
    return mc.MonoidPresentation(ngens, tuple(rels))


def parse_monoid(doc, ctx, warn):
    _expect_kind(doc, {"affine-monoid"}, ctx)
    free_rank = _as_int(_get(doc, "free_rank", ctx), f"{ctx}.free_rank")
    if free_rank < 0:
        raise InputError(f"{ctx}.free_rank: must be nonnegative")
    torsion = _as_vector(_get(doc, "torsion", ctx), None, f"{ctx}.torsion")
    host = xl.FgAbelianGroup(free_rank, torsion)
    vecs = _as_vector_list(
        _get(doc, "generators", ctx), host.lift_dim, f"{ctx}.generators")
    monoid, images = mc.span_submonoid(host, vecs)
    # the images generate the ambient: it is the host iff no image moved
    if monoid.ambient != host or images != [host.reduce_vector(v) for v in vecs]:
        warn(f"{ctx}: generators span a proper subgroup of the written "
             f"ambient group; the monoid was re-presented inside its own "
             f"Grothendieck group")
    return monoid


def _monoid_input(doc, ctx, warn):
    """Affine monoid from either document kind (presentations are
    integralized first)."""
    kind = _expect_kind(doc, {"affine-monoid", "monoid-presentation"}, ctx)
    if kind == "monoid-presentation":
        return mc.integralize(parse_presentation(doc, ctx))
    return parse_monoid(doc, ctx, warn)


def _warn_nonprimitive(rays, ctx, warn):
    for r in rays:
        if any(r) and cc.primitive(r) != r:
            warn(f"{ctx}: ray {list(r)} is not primitive; "
                 f"scaled to {list(cc.primitive(r))}")


def _parse_rays(doc, ctx, warn):
    dim = _as_int(_get(doc, "dim", ctx), f"{ctx}.dim")
    if dim < 0:
        raise InputError(f"{ctx}.dim: must be nonnegative")
    rays = _as_vector_list(_get(doc, "rays", ctx), dim, f"{ctx}.rays")
    _warn_nonprimitive(rays, ctx, warn)
    return rays, dim


def parse_cone(doc, ctx, warn):
    _expect_kind(doc, {"cone"}, ctx)
    rays, dim = _parse_rays(doc, ctx, warn)
    return cc.RationalCone.from_rays(rays, dim)


def parse_fan(doc, ctx, warn):
    _expect_kind(doc, {"fan"}, ctx)
    dim = _as_int(_get(doc, "dim", ctx), f"{ctx}.dim")
    if dim < 0:
        raise InputError(f"{ctx}.dim: must be nonnegative")
    raw = _get(doc, "maximal_cones", ctx)
    if not isinstance(raw, list):
        raise InputError(f"{ctx}.maximal_cones: expected a list of ray lists")
    cones = []
    for i, rays in enumerate(raw):
        sub = f"{ctx}.maximal_cones[{i}]"
        vecs = _as_vector_list(rays, dim, sub)
        _warn_nonprimitive(vecs, sub, warn)
        cones.append(cc.RationalCone.from_rays(vecs, dim))
    return cc.Fan(dim, tuple(cones))


def parse_hom(doc, ctx, warn):
    _expect_kind(doc, {"hom"}, ctx)
    source = parse_monoid(_get(doc, "source", ctx), f"{ctx}.source", warn)
    target = parse_monoid(_get(doc, "target", ctx), f"{ctx}.target", warn)
    raw = _get(doc, "matrix", ctx)
    if not isinstance(raw, list):
        raise InputError(f"{ctx}.matrix: expected a list of rows")
    n_rows = target.ambient.lift_dim
    n_cols = source.ambient.lift_dim
    if len(raw) != n_rows:
        raise InputError(
            f"{ctx}.matrix: expected {n_rows} rows (target lift "
            f"coordinates), got {len(raw)}")
    rows = [_as_vector(r, n_cols, f"{ctx}.matrix[{i}]")
            for i, r in enumerate(raw)]
    try:
        return lha.MonoidHom(source, target, rows)
    except DomainError as exc:
        # an ill-typed document, not a precondition failure: the matrix does
        # not describe a homomorphism of the monoids the document declares
        raise InputError(f"{ctx}: not a monoid homomorphism: {exc}") from exc


def parse_ideal(doc, ctx, warn):
    _expect_kind(doc, {"ideal"}, ctx)
    host = parse_monoid(_get(doc, "monoid", ctx), f"{ctx}.monoid", warn)
    vecs = _as_vector_list(_get(doc, "generators", ctx),
                           host.ambient.lift_dim, f"{ctx}.generators")
    try:
        return lib.MonoidIdeal(host, tuple(vecs))
    except DomainError as exc:
        raise InputError(f"{ctx}: not an ideal of the given monoid: {exc}") from exc


def _hom_pair(doc, ctx, warn, shared):
    left = parse_hom(_get(doc, "left", ctx), f"{ctx}.left", warn)
    right = parse_hom(_get(doc, "right", ctx), f"{ctx}.right", warn)
    if shared == "source" and left.source != right.source:
        raise InputError(f"{ctx}: the two legs must share their source monoid")
    if shared == "target" and left.target != right.target:
        raise InputError(f"{ctx}: the two legs must share their target monoid")
    return left, right


# ---------------------------------------------------------------------------
# canonical emission: every value below is a package-built int or tuple of
# ints, and json.dumps writes a tuple exactly as it writes a list


def group_block(group):
    return {"free_rank": group.free_rank,
            "invariant_factors": group.invariant_factors}


def monoid_block(monoid):
    return {"kind": "affine-monoid",
            "free_rank": monoid.ambient.free_rank,
            "torsion": monoid.ambient.invariant_factors,
            "generators": sorted(monoid._vectors)}


def cone_block(cone):
    return {"kind": "cone",
            "dim": cone.dim,
            "rays": sorted(cone.generators)}


def fan_block(fan):
    return {"kind": "fan",
            "dim": fan.dim,
            "maximal_cones": [sorted(c.generators) for c in fan.maximal_cones]}


def presentation_block(pres):
    return {"kind": "monoid-presentation",
            "ngens": pres.ngens,
            "relations": pres.relations}


def _emit(doc):
    # an exact integer may have more digits than str() converts by default
    # (Python >= 3.10.7 has a limit); lift it for this dump only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, indent=2) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# command handlers: (doc, path, args, warn) -> (JSON-ready dict, facts), where
# facts are the arguments of the command's --verify checks

_HANDLERS = {}
_HELP = {}


def _command(name, help_text):
    """Registers the decorated handler as the command ``name``."""
    def register(handler):
        _HANDLERS[name], _HELP[name] = handler, help_text
        return handler
    return register


@_command("gp", "Grothendieck group of a presented or affine monoid")
def _h_gp(doc, path, args, warn):
    kind = _expect_kind(doc, {"monoid-presentation", "affine-monoid"}, path)
    if kind == "monoid-presentation":
        pres = parse_presentation(doc, path)
        group, images = mc.grothendieck_group(pres)
    else:
        monoid = parse_monoid(doc, path, warn)
        pres, group, images = None, monoid.ambient, monoid.generators
    out = {"kind": "abelian-group"}
    out.update(group_block(group))
    out["generator_images"] = [im.as_vector() for im in images]
    return out, (group, images, pres)


@_command("int", "integralization of a monoid presentation")
def _h_int(doc, path, args, warn):
    pres = parse_presentation(doc, path)
    monoid = mc.integralize(pres)
    return monoid_block(monoid), (pres, monoid)


@_command("sat", "saturation of a fine monoid")
def _h_sat(doc, path, args, warn):
    monoid = _monoid_input(doc, path, warn)
    sat = mc.saturate(monoid)
    return monoid_block(sat), (monoid, sat)


@_command("sharpen", "units and sharp quotient of a fine monoid")
def _h_sharpen(doc, path, args, warn):
    monoid = _monoid_input(doc, path, warn)
    sharp = mc.sharpen(monoid)
    us = mc.units(monoid)
    return {"kind": "sharpen-result",
            "units": sorted(u.as_vector() for u in us),
            "monoid": monoid_block(sharp)}, (monoid, sharp, us)


@_command("spec", "prime spectrum (faces) of a fine monoid")
def _h_spec(doc, path, args, warn):
    monoid = _monoid_input(doc, path, warn)
    primes = mc.spec(monoid)
    return {"kind": "spectrum",
            "count": len(primes),
            "primes": [{"complement_face": p.sorted_indices()}
                       for p in primes]}, (monoid, primes)


@_command("props", "sharp / saturated / toric / free predicates")
def _h_props(doc, path, args, warn):
    monoid = _monoid_input(doc, path, warn)
    pred = mc.predicates(monoid)
    return {"kind": "predicates",
            "is_sharp": pred.is_sharp,
            "is_saturated": pred.is_saturated,
            "is_toric": pred.is_toric,
            "is_free": pred.is_free}, (pred, monoid)


@_command("rank", "rank of the sharpened characteristic monoid")
def _h_rank(doc, path, args, warn):
    monoid = _monoid_input(doc, path, warn)
    rank = mc.characteristic_rank(monoid)
    return {"kind": "characteristic-rank", "rank": rank}, (monoid, rank)


@_command("pushout", "pushout of two homs out of a shared source")
def _h_pushout(doc, path, args, warn):
    _expect_kind(doc, {"pushout-request"}, path)
    left, right = _hom_pair(doc, path, warn, shared="source")
    if args.mode == "presentation":
        pres = mc.pushout(left, right, "presentation")
        return presentation_block(pres), (args.mode, left, right, pres)
    result = mc.pushout_with_maps(left, right)
    monoid = result.monoid if args.mode == "fine" else mc.saturate(result.monoid)
    out = {"kind": "pushout-result", "mode": args.mode}
    out["monoid"] = monoid_block(monoid)
    out["left_images"] = [im.as_vector() for im in result.left_images]
    out["right_images"] = [im.as_vector() for im in result.right_images]
    return out, (args.mode, left, right, result, monoid)


@_command("fiber", "fiber product of two homs into a shared target")
def _h_fiber(doc, path, args, warn):
    _expect_kind(doc, {"fiber-request"}, path)
    left, right = _hom_pair(doc, path, warn, shared="target")
    pairs = mc.fiber_product_generators(left, right)
    monoid = mc._fiber_monoid(left, right, pairs)
    return {"kind": "fiber-result",
            "pairs": sorted((m.as_vector(), n.as_vector()) for (m, n) in pairs),
            "monoid": monoid_block(monoid)}, (left, right, pairs)


@_command("dual", "dual cone")
def _h_dual(doc, path, args, warn):
    cone = parse_cone(doc, path, warn)
    dual = cc.dual_cone(cone)
    return cone_block(dual), (cone, dual)


@_command("faces", "face lattice of a cone")
def _h_faces(doc, path, args, warn):
    cone = parse_cone(doc, path, warn)
    face_list = cc.faces(cone)
    return {"kind": "face-list",
            "count": len(face_list),
            "faces": [{"dimension": f.span_dim,
                       "rays": sorted(f.generators)}
                      for f in face_list]}, (cone, face_list)


@_command("hilbert", "Hilbert basis of a pointed cone")
def _h_hilbert(doc, path, args, warn):
    cone = parse_cone(doc, path, warn)
    basis = cc.hilbert_basis(cone)
    return {"kind": "hilbert-basis",
            "count": len(basis),
            "vectors": sorted(basis)}, (cone, basis)


@_command("regular", "regularity of a cone or fan")
def _h_regular(doc, path, args, warn):
    kind = _expect_kind(doc, {"cone", "fan"}, path)
    if kind == "cone":
        cone = parse_cone(doc, path, warn)
        verdict = cc.is_regular(cone)
        facts = (verdict, cone)
    else:
        fan = parse_fan(doc, path, warn)
        verdict = fan.is_regular()
        facts = (verdict, None, fan)
    return {"kind": "regularity", "is_regular": bool(verdict)}, facts


@_command("mult", "multiplicity of a simplicial cone")
def _h_mult(doc, path, args, warn):
    cone = parse_cone(doc, path, warn)
    m = cc.multiplicity(cone)
    return {"kind": "multiplicity", "multiplicity": m}, (cone, m)


@_command("resolve", "subdivide a fan until it is regular")
def _h_resolve(doc, path, args, warn):
    kind = _expect_kind(doc, {"cone", "fan"}, path)
    if kind == "cone":
        cone = parse_cone(doc, path, warn)
        fan = cc.Fan(cone.dim, (cone,))
    else:
        fan = parse_fan(doc, path, warn)
    resolved = cc.resolve(fan)
    return fan_block(resolved), (fan, resolved)


@_command("blowup", "blowup charts of a monoid ideal")
def _h_blowup(doc, path, args, warn):
    ideal = parse_ideal(doc, path, warn)
    charts = lib.blowup_charts(ideal.host, ideal)
    idempotent = lib.charts_are_idempotent(charts, ideal)
    return {"kind": "blowup-charts",
            "count": len(charts),
            "idempotent": bool(idempotent),
            "charts": [{"center": chart.center.as_vector(),
                        "fine": monoid_block(chart.fine),
                        "fs": monoid_block(chart.fs)}
                       for chart in charts]}, (ideal, charts)


@_command("blowup-fan", "fan of the blowup of a toric monoid ideal")
def _h_blowup_fan(doc, path, args, warn):
    ideal = parse_ideal(doc, path, warn)
    fan = lib.blowup_fan(ideal.host, ideal)
    return fan_block(fan), (ideal, fan)


@_command("hom-check", "Kato smoothness / etaleness of a hom (monoid side only)")
def _h_hom_check(doc, path, args, warn):
    hom = parse_hom(doc, path, warn)
    verdict = lha.kato_criterion(hom, residue_char=args.char)
    return {"kind": "smoothness-verdict",
            "residue_char": verdict.residue_char,
            "monoid_side_only": True,
            "is_smooth": verdict.is_smooth,
            "is_etale": verdict.is_etale,
            "gp_kernel": group_block(verdict.gp_kernel),
            "gp_cokernel": group_block(verdict.gp_cokernel)}, (hom, verdict)


@_command("kummer", "Kummer verdict and relative characteristic of a hom")
def _h_kummer(doc, path, args, warn):
    hom = parse_hom(doc, path, warn)
    kummer, injective = lha.is_kummer(hom), lha.is_gp_injective(hom)
    relchar = lha.relative_characteristic(hom)
    return {"kind": "kummer-verdict",
            "is_kummer": kummer,
            "gp_injective": injective,
            "relative_characteristic": monoid_block(relchar)}, \
        (hom, kummer, injective)


@_command("neat", "how locally a neat chart exists: zariski / etale / fppf")
def _h_neat(doc, path, args, warn):
    hom = parse_hom(doc, path, warn)
    cls = lha.neat_chart_class(hom, residue_char=args.char)
    return {"kind": "neat-chart-class",
            "residue_char": args.char,
            "class": cls}, (hom, cls)


@_command("diff-rank", "rank of the universal log differential module")
def _h_diff_rank(doc, path, args, warn):
    hom = parse_hom(doc, path, warn)
    rank = lha.differential_rank(hom, residue_char=args.char)
    injective = lha.is_gp_injective(hom)
    kernel_trivial = lha.monoid_kernel_trivial(hom)
    return {"kind": "differential-rank",
            "residue_char": args.char,
            "rank": rank,
            "gp_injective": injective,
            "monoid_kernel_trivial": kernel_trivial}, \
        (hom, rank, injective, kernel_trivial)


@_command("diff-pres", "symbolic presentation of the log differential module")
def _h_diff_pres(doc, path, args, warn):
    hom = parse_hom(doc, path, warn)
    pres = lha.universal_differential_presentation(hom)
    return {"kind": "differential-presentation",
            "coefficient_ring": pres.coefficient_ring,
            "symbols": pres.symbols,
            "relations": pres.relation_columns,
            "module": group_block(pres.module)}, (pres,)


_WITH_MODE = {"pushout"}
_WITH_CHAR = {"hom-check", "neat", "diff-rank"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="logmonoid",
        description="exact computations on fine monoids, cones, fans, "
                    "monoid ideals and their homomorphisms")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + _version())
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, handler in _HANDLERS.items():
        sp = sub.add_parser(name, help=_HELP[name], description=_HELP[name])
        if name in _WITH_MODE:
            sp.add_argument("--mode", choices=("presentation", "fine", "fs"),
                            default="fine",
                            help="pushout flavour (default: fine)")
        if name in _WITH_CHAR:
            sp.add_argument("--char", type=int, default=0, metavar="P",
                            help="residue characteristic, 0 or a prime "
                                 "(default: 0)")
        sp.add_argument("--verify", action="store_true",
                        help="re-check the result against independent "
                             "predicates before printing")
        sp.add_argument("--out", metavar="FILE",
                        help="write the output to FILE instead of stdout")
        sp.add_argument("files", nargs="+", metavar="FILE",
                        help="input JSON document(s)")
    return parser


def _version():
    from . import __version__
    return __version__


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the documented usage code is 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    check = None
    if args.verify:
        from . import _verify
        check = getattr(_verify, "check_" + args.command.replace("-", "_"))
    try:
        outputs = []
        for path in args.files:
            doc = _load_doc(path)
            result, facts = _HANDLERS[args.command](doc, path, args, _warn)
            if check is not None:
                names = ", ".join(check(*facts))
                print(f"verify: {args.command} {path}: {names}: ok",
                      file=sys.stderr)
            outputs.append(_emit(result))
        text = "".join(outputs)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

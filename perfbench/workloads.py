"""The four workloads: inputs from a seed, one operation, and its check.

A workload hands out its timed inputs one pass at a time, for a fixed
number of passes (``max_passes``).  Every run times the same inputs: fixed
panels in fixed lists of coordinate images (signed permutations of
coordinates, lattice automorphisms under which the answer is the same up to
that change) for cone-resolve and monoid-hom, cones drawn once from a fixed
stream for hilbert-mult, the golden cases for cli-golden.  The seed chooses
which inputs go to which pass and their order within it.  No in-process
input repeats within a run (bar the few images of symmetric monoids in
monoid-hom, counted on the ``run`` line), and warm-up uses inputs no pass
times.  See NOTES.md for the ranges and why each workload exists.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

from oracles import (check_simplicial_basis, hj_hilbert_basis, in_cone,
                     minors_gcd)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PANELS = Path(__file__).resolve().parent / "data" / "panels.json"


def rng_for(seed, *stream):
    """An independent random stream per (seed, purpose)."""
    return random.Random(":".join(str(s) for s in (seed,) + stream))


def import_package():
    if not (SRC / "logmonoid" / "__init__.py").is_file():
        raise SystemExit(f"logmonoid sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import logmonoid.cone_complex as cc
    import logmonoid.exact_lattice as xl
    import logmonoid.log_hom_analysis as lha
    import logmonoid.log_ideal_blowup as lib
    import logmonoid.monoid_core as mc
    return cc, xl, mc, lha, lib


def program_env():
    """The environment for a child ``python -m logmonoid``: ``src`` first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def clear_multiplicity_cache(cc):
    """Empties the cache on ``cone_complex.multiplicity``, if it has one."""
    fn = cc.multiplicity
    for candidate in (fn, getattr(fn, "__wrapped__", None)):
        clear = getattr(candidate, "cache_clear", None)
        if clear is not None:
            clear()
            return


class Exhausted(Exception):
    """No fresh input is left for another pass."""


class Op:
    """One operation: its kind, its input and what its check needs."""

    __slots__ = ("kind", "data", "ref")

    def __init__(self, kind, data, ref=None):
        self.kind, self.data, self.ref = kind, data, ref


def digest(texts):
    """Short sha256 of a sequence of str or bytes."""
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() if isinstance(t, str) else t)
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# coordinate changes


def _signed_permutations(d):
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            yield tuple(perm), signs


SIGNED = {d: list(_signed_permutations(d)) for d in (1, 2, 3)}


def _apply_signed(perm, signs, vec):
    d = len(perm)
    return tuple(signs[i] * vec[perm[i]] for i in range(d)) + tuple(vec[d:])


# ---------------------------------------------------------------------------
# cli-golden


class CliGolden:
    """One cold ``python -m logmonoid`` process per golden case."""

    name = "cli-golden"
    subprocess_ops = True
    max_passes = 3

    def __init__(self, seed):
        self.seed = seed
        self.env = program_env()

    def setup(self):
        cases_dir = ROOT / "tests" / "golden" / "cases"
        cases = sorted(p for p in cases_dir.iterdir() if p.is_dir())
        if len(cases) < 25:
            raise SystemExit(f"expected 25 golden cases under {cases_dir}")
        self.cases = []
        for case in cases:
            spec = json.loads((case / "invocation.json").read_text())
            argv = [spec["command"], *spec.get("options", []),
                    *(str(case / name) for name in spec["inputs"])]
            self.cases.append(Op(case.name, argv, (case / "expected.out").read_bytes()))

    def warmup(self):
        subprocess.run([sys.executable, "-m", "logmonoid", "--version"],
                       env=self.env, cwd=ROOT, capture_output=True, check=True)

    def pass_ops(self, k):
        ops = list(self.cases)
        rng_for(self.seed, "pass", k).shuffle(ops)
        return ops

    def run(self, op):
        proc = subprocess.run([sys.executable, "-m", "logmonoid", *op.data],
                              env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        return proc.returncode, proc.stdout

    def inprocess(self):
        """Switches ``run`` to ``cli.main(argv)`` inside this process (the
        traced run of this workload)."""
        import_package()
        from logmonoid import cli
        self.cli = cli
        self.run = self._run_inprocess

    def _run_inprocess(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(op.data))
        return code, out.getvalue().encode()

    def check(self, op, output):
        code, stdout = output
        fails = []
        if code != 0:
            fails.append(f"{op.kind}: exit code {code}")
        if stdout != op.ref:
            fails.append(f"{op.kind}: stdout differs from expected.out")
        return fails

    def canon(self, op, output):
        return output[1]


# ---------------------------------------------------------------------------
# cone-resolve


class ConeResolve:
    """from_rays -> fan_from_cones(validate) -> resolve(validate)."""

    name = "cone-resolve"
    subprocess_ops = False
    # 2D cones have 8 same-work images: 7 are timed, warm-up takes the 8th
    # of three of them
    max_passes = 7

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.cc = import_package()[0]
        self.panel = json.loads(PANELS.read_text())["cone-resolve"]
        self.images = [self._image_list(idx, entry) for idx, entry in enumerate(self.panel)]

    def _image_list(self, idx, entry):
        """The distinct same-work images of a panel cone (coordinate changes
        that leave the size of its resolution alone, listed in the panel),
        chosen without the run seed: the panel coordinates first.  The first
        max_passes are timed; warm-up uses the next."""
        d = len(entry["rays"][0])
        perms = [0] + rng_for("images", idx).sample(entry["perms"][1:], len(entry["perms"]) - 1)
        images, keys = [], set()
        for i in perms:
            perm, signs = SIGNED[d][i]
            rays = [_apply_signed(perm, signs, r) for r in entry["rays"]]
            if tuple(sorted(rays)) not in keys:
                keys.add(tuple(sorted(rays)))
                images.append(rays)
        return images

    def warmup(self):
        """Three 2D panel cones, each in an image that no timed pass uses."""
        spare = [(entry, images[self.max_passes])
                 for entry, images in zip(self.panel, self.images)
                 if entry["family"] == "2d" and len(images) > self.max_passes]
        for entry, rays in spare[:3]:
            self.run(Op(entry["family"], rays))

    def pass_ops(self, k):
        """Pass k: image order[k] of every panel cone, where order is a seeded
        permutation per cone (the identity for seed 0).  Every run times the
        same images, none twice."""
        ops = []
        for idx, entry in enumerate(self.panel):
            order = list(range(self.max_passes))
            if self.seed != 0:
                rng_for(self.seed, "order", idx).shuffle(order)
            if order[k] >= len(self.images[idx]):
                raise Exhausted("a panel cone has fewer same-work images than passes")
            ops.append(Op(entry["family"], self.images[idx][order[k]], entry.get("k")))
        rng_for(self.seed, "pass", k).shuffle(ops)
        return ops

    def run(self, op):
        cc = self.cc
        d = len(op.data[0])
        cone = cc.RationalCone.from_rays(op.data, d)
        fan = cc.fan_from_cones([cone], d, validate=True)
        out = cc.resolve(fan, validate=True)
        return sorted(sorted(c.extreme_rays) for c in out.maximal_cones)

    def check(self, op, output):
        rays = op.data
        tag = f"{op.kind} {rays}"
        fails = []
        if op.ref is not None and len(output) != op.ref:
            fails.append(f"{tag}: {len(output)} cones, expected {op.ref}")
        for cone in output:
            if minors_gcd(cone) != 1:
                fails.append(f"{tag}: output cone {cone} is not regular")
            for r in cone:
                if not in_cone(rays, r):
                    fails.append(f"{tag}: output ray {r} outside the input cone")
        interior = tuple(sum(c) for c in zip(*rays))
        for v in list(rays) + [interior]:
            if any(v) and not any(in_cone(cone, v) for cone in output):
                fails.append(f"{tag}: {v} is no longer covered")
        return fails

    def canon(self, op, output):
        return json.dumps(output)


# ---------------------------------------------------------------------------
# hilbert-mult

STRATA_2D = 8       # log-uniform multiplicity grid over [1e2, 1e4]
STRATA_3D = 5       # log-uniform multiplicity grid over [1e2, 1e3]
JITTER = 0.02       # each multiplicity within 2% of its grid point


class HilbertMult:
    """from_rays -> multiplicity -> hilbert_basis on simplicial cones."""

    name = "hilbert-mult"
    subprocess_ops = False
    max_passes = 7

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()

    def setup(self):
        self.cc = import_package()[0]
        # The timed cones, drawn without the run seed so that every run times
        # the same ones: per pass one cone near every grid multiplicity, no
        # cone twice.
        rng = rng_for("hilbert-mult", "cones")
        self.pass_sets = [
            [self._cone_2d(rng, 2 + 2 * (i + 0.5) / STRATA_2D) for i in range(STRATA_2D)]
            + [self._cone_3d(rng, 2 + (i + 0.5) / STRATA_3D) for i in range(STRATA_3D)]
            for _ in range(self.max_passes)]

    def _cone_2d(self, rng, log_m):
        for _ in range(1000):
            m = round(10 ** log_m * (1 + rng.uniform(-JITTER, JITTER)))
            q = rng.randint(1, 4)
            if gcd(m, q) == 1 and q < m and (2, m, q) not in self.seen:
                self.seen.add((2, m, q))
                return Op("2d", ((0, 1), (m, -q)), (m, q))
        raise Exhausted("no fresh 2d cone near this multiplicity")

    def _cone_3d(self, rng, log_m):
        for _ in range(1000):
            m = round(10 ** log_m * (1 + rng.uniform(-JITTER, JITTER)))
            a, b = rng.randrange(m), rng.randrange(m)
            if gcd(gcd(a, b), m) == 1 and (3, m, a, b) not in self.seen:
                self.seen.add((3, m, a, b))
                return Op("3d", ((1, 0, 0), (0, 1, 0), (a, b, m)), (m,))
        raise Exhausted("no fresh 3d cone near this multiplicity")

    def warmup(self):
        rng = rng_for(self.seed, "warmup")
        for _ in range(2):
            self.run(self._cone_2d(rng, 1.5))
        self.run(self._cone_3d(rng, 1.5))

    def pass_ops(self, k):
        """Pass k: the cone set order[k], where order is a seeded permutation
        of the passes, in a seeded order."""
        order = list(range(self.max_passes))
        if self.seed != 0:
            rng_for(self.seed, "order").shuffle(order)
        ops = list(self.pass_sets[order[k]])
        rng_for(self.seed, "pass", k).shuffle(ops)
        return ops

    def run(self, op):
        cc = self.cc
        cone = cc.RationalCone.from_rays(op.data, len(op.data[0]))
        mult = cc.multiplicity(cone)
        basis = cc.hilbert_basis(cone)
        return int(mult), sorted(tuple(int(x) for x in h) for h in basis)

    def check(self, op, output):
        mult, basis = output
        m = op.ref[0]
        tag = f"{op.kind} {op.data}"
        fails = []
        if mult != m:
            fails.append(f"{tag}: multiplicity {mult}, expected {m}")
        if op.kind == "2d":
            if basis != hj_hilbert_basis(*op.ref):
                fails.append(f"{tag}: basis differs from the continued fraction")
        else:
            fails += [f"{tag}: {f}" for f in check_simplicial_basis(op.data, basis)]
        return fails

    def canon(self, op, output):
        return json.dumps(output)


# ---------------------------------------------------------------------------
# monoid-hom

MONOID_OPS = ("from_vectors", "saturate", "sharpen", "spec", "predicates",
              "hom", "kato", "kummer", "relchar", "udp",
              "pushout_fine", "pushout_fs", "fiber", "charts", "idem")
# which raw part of a panel instance each operation reads
PART = {"from_vectors": "monoid", "saturate": "monoid", "sharpen": "monoid",
        "spec": "monoid", "predicates": "monoid", "hom": "hom", "kato": "hom",
        "kummer": "hom", "relchar": "hom", "udp": "hom",
        "pushout_fine": "pushout", "pushout_fs": "pushout", "fiber": "fiber",
        "charts": "blowup", "idem": "blowup"}


# where the monoids of each raw part sit; each gets its own coordinate change
SLOTS = {"monoid": [()], "blowup": [()], "hom": [("target",)], "fiber": [("target",)],
         "pushout": [("left", "target"), ("right", "target")]}


def _slot(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _free_dims(part, raw):
    return [len(_slot(raw, p)["vecs"][0]) - len(_slot(raw, p)["tors"]) for p in SLOTS[part]]


def _transform_part(part, raw, changes):
    """A raw panel part with the free coordinates of its monoids changed by
    signed permutations, one per monoid; coefficient data is left alone."""
    out = json.loads(json.dumps(raw))
    for path, (perm, signs) in zip(SLOTS[part], changes):
        m = _slot(out, path)
        m["vecs"] = [list(_apply_signed(perm, signs, v)) for v in m["vecs"]]
    return out


class MonoidHom:
    """Monoid, hom, pushout, fiber and blowup algebra on a fixed panel."""

    name = "monoid-hom"
    subprocess_ops = False
    # Each panel part has a list of this many coordinate images, the same for
    # every seed; a run times every image once, one per pass, so all runs do
    # the same work.  A plane has 8 signed permutations, so a single 2D
    # monoid has at most 8 images (fewer if it is symmetric).
    max_passes = 8

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.cc, _, self.mc, self.lha, self.lib = import_package()
        self.panel = json.loads(PANELS.read_text())["monoid-hom"]
        self.image_lists = {}
        # images timed twice in a run: a part of a symmetric monoid has fewer
        # distinct images than passes
        self.repeats = 0

    def _candidates(self, rng, dims):
        """Coordinate changes of a part with monoids of these free ranks, in
        random order: all of them for one monoid, 200 draws for several."""
        if len(dims) == 1:
            return [[c] for c in rng.sample(SIGNED[dims[0]], len(SIGNED[dims[0]]))]
        return [[rng.choice(SIGNED[d]) for d in dims] for _ in range(200)]

    def _images(self, idx, part):
        """max_passes images of a panel part, chosen without the run seed: the
        panel coordinates first, then distinct others (repeated in turn when
        the part has fewer distinct images).  Made on first use, outside
        set-up and outside any timing."""
        if (idx, part) in self.image_lists:
            return self.image_lists[idx, part]
        raw = self.panel[idx][part]
        dims = _free_dims(part, raw)
        images = [_transform_part(part, raw, [SIGNED[d][0] for d in dims])]
        for changes in self._candidates(rng_for("images", idx, part), dims):
            if len(images) == self.max_passes:
                break
            image = _transform_part(part, raw, changes)
            if image not in images:
                images.append(image)
        self.repeats += self.max_passes - len(images)
        self.image_lists[idx, part] = [images[i % len(images)] for i in range(self.max_passes)]
        return self.image_lists[idx, part]

    def warmup(self):
        """Pushouts (fine and fs) of two instances, in coordinates that no
        timed input uses."""
        rng = rng_for(self.seed, "warmup")
        for idx in rng.sample(range(len(self.panel)), 2):
            raw = self.panel[idx]["pushout"]
            for changes in self._candidates(rng, _free_dims("pushout", raw)):
                image = _transform_part("pushout", raw, changes)
                if image not in self._images(idx, "pushout"):
                    for kind in ("pushout_fine", "pushout_fs"):
                        self.run(Op(kind, image))
                    break

    def pass_ops(self, k):
        """Pass k: image order[k] of every part, where order is a seeded
        permutation per part (the identity for seed 0, whose first pass is
        then the panel in its own coordinates)."""
        ops = []
        for idx, inst in enumerate(self.panel):
            for part in SLOTS:
                order = list(range(self.max_passes))
                if self.seed != 0:
                    rng_for(self.seed, "order", idx, part).shuffle(order)
                image = self._images(idx, part)[order[k]]
                for kind in (kind for kind in MONOID_OPS if PART[kind] == part):
                    ops.append(Op(kind, image, (inst["ref"][kind], order[k] == 0)))
        rng_for(self.seed, "pass", k).shuffle(ops)
        return ops

    # -- building inputs from raw data, as a library caller would ----------

    def _monoid(self, raw):
        return self.mc.AffineMonoid.from_vectors(
            [tuple(v) for v in raw["vecs"]], torsion_orders=tuple(raw["tors"]))

    def _hom(self, raw, target=None):
        mc = self.mc
        target = target if target is not None else self._monoid(raw["target"])
        amb = target.ambient
        cols = []
        for coeffs in raw["coeffs"]:
            acc = amb.zero()
            for c, g in zip(coeffs, target.generators):
                if c:
                    acc = amb.add(acc, amb.scale(c, g.as_vector()))
            cols.append(acc)
        rows = [[col[i] for col in cols] for i in range(amb.lift_dim)]
        return self.lha.MonoidHom(mc.free_monoid(len(cols)), target, rows)

    def _ideal(self, raw):
        host = self._monoid(raw)
        gens = [host.generators[i] for i in raw["pick"] if i < len(host.generators)]
        if raw["sum"] and len(host.generators) >= 2:
            gens.append(host.add(host.generators[0], host.generators[-1]))
        return host, self.lib.MonoidIdeal(host, tuple(gens))

    def run(self, op):
        mc, lha, lib = self.mc, self.lha, self.lib
        raw, kind = op.data, op.kind
        if kind == "from_vectors":
            return self._view(kind, self._monoid(raw))
        if kind in ("saturate", "sharpen", "spec", "predicates"):
            return self._view(kind, getattr(mc, kind)(self._monoid(raw)))
        if kind == "hom":
            return self._view(kind, self._hom(raw))
        if kind == "kato":
            return self._view(kind, lha.kato_criterion(self._hom(raw), raw["p"]))
        if kind == "kummer":
            return self._view(kind, lha.is_kummer(self._hom(raw)))
        if kind == "relchar":
            return self._view(kind, lha.relative_characteristic(self._hom(raw)))
        if kind == "udp":
            return self._view(kind, lha.universal_differential_presentation(self._hom(raw)))
        if kind in ("pushout_fine", "pushout_fs"):
            res = mc.pushout_with_maps(self._hom(raw["left"]), self._hom(raw["right"]))
            if kind == "pushout_fine":
                return self._view(kind, res)
            return self._view(kind, mc.saturate(res.monoid))
        if kind == "fiber":
            target = self._monoid(raw["target"])
            f = self._hom(raw["left"], target)
            g = self._hom(raw["right"], target)
            return self._view(kind, mc.fiber_product(f, g))
        host, ideal = self._ideal(raw)
        if kind == "charts":
            return self._view(kind, lib.blowup_charts(host, ideal))
        return self._view(kind, lib.blowup_is_idempotent(host, ideal))

    # -- public views: (exact, invariant under the coordinate change) ------

    @staticmethod
    def _group(g):
        return [int(g.free_rank), [int(f) for f in g.invariant_factors]]

    def _mon(self, m):
        gens = sorted([int(x) for x in g.as_vector()] for g in m.generators)
        return {"group": self._group(m.ambient), "gens": gens}, \
            [self._group(m.ambient), len(gens)]

    def _view(self, kind, r):
        if kind in ("from_vectors", "saturate", "sharpen", "relchar", "pushout_fs",
                    "fiber"):
            return self._mon(r)
        if kind == "spec":
            faces = [sorted(int(i) for i in p.complement_face) for p in r]
            return faces, sorted(faces)
        if kind == "predicates":
            flags = [bool(r.is_sharp), bool(r.is_saturated), bool(r.is_toric),
                     bool(r.is_free)]
            return flags, flags
        if kind == "hom":
            matrix = r.matrix.tolist() if hasattr(r.matrix, "tolist") else r.matrix
            rows = [[int(x) for x in row] for row in matrix]
            return rows, [len(rows), len(rows[0]) if rows else 0]
        if kind == "kato":
            inv = [bool(r.is_smooth), bool(r.is_etale), self._group(r.gp_kernel),
                   self._group(r.gp_cokernel)]
            return inv, inv
        if kind in ("kummer", "idem"):
            return bool(r), bool(r)
        if kind == "udp":
            exact = {"symbols": list(r.symbols),
                     "relations": [[int(x) for x in c] for c in r.relation_columns],
                     "module": self._group(r.module)}
            return exact, [len(r.symbols), len(r.relation_columns), exact["module"]]
        if kind == "pushout_fine":
            exact, inv = self._mon(r.monoid)
            exact = dict(exact, left=[[int(x) for x in e.as_vector()] for e in r.left_images],
                         right=[[int(x) for x in e.as_vector()] for e in r.right_images])
            return exact, inv + [len(r.left_images), len(r.right_images)]
        charts = [{"center": [int(x) for x in c.center.as_vector()],
                   "fine": self._mon(c.fine)[0], "fs": self._mon(c.fs)[0]}
                  for c in r]
        inv = sorted([len(c["fine"]["gens"]), len(c["fs"]["gens"]), c["fs"]["group"]]
                     for c in charts)
        return charts, inv

    def check(self, op, output):
        exact, inv = output
        (ref_inv, ref_exact), is_identity = op.ref
        fails = []
        inv = json.loads(json.dumps(inv))
        if inv != ref_inv:
            fails.append(f"{op.kind}: invariants {inv} differ from the frozen {ref_inv}")
        if is_identity and digest([json.dumps(exact)]) != ref_exact:
            fails.append(f"{op.kind}: output differs from the frozen reference")
        if op.kind == "idem" and exact is not True:
            fails.append("blowup is not idempotent")
        if op.kind == "kato" and exact[1] and not exact[0]:
            fails.append("etale verdict without smoothness")
        if op.kind == "predicates":
            sharp, saturated, toric, free = exact
            if (toric and not (sharp and saturated)) or (free and not saturated):
                fails.append(f"inconsistent predicates {exact}")
        return fails

    def canon(self, op, output):
        return json.dumps(output[0])


WORKLOADS = {w.name: w for w in (CliGolden, ConeResolve, MonoidHom, HilbertMult)}

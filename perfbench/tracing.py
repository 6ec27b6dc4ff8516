"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the boundary functions of each layer with
wrappers, by setting attributes on the logmonoid modules and classes.  Every
call inside the package goes through a module alias (``xl.``, ``mc.``,
``cc.``) or a module global, so the wrappers see internal calls too.  Each
call becomes a span (name, start, end, parent span, operation id) kept in
memory; self time is a span's duration minus the time its child spans cover.
"""

import importlib
import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# layer -> wrapped functions; "Cls.meth" names a method, "handler" every
# entry of the CLI's command table
BOUNDARIES = {
    "cli": ("build_parser", "_load_doc", "_emit", "handler"),
    "exact_lattice": ("_snf_full", "kernel_basis", "rank_of", "solve_rational",
                      "quotient_presentation", "group_from_relations",
                      "minimal_nonneg_solutions"),
    "monoid_core": ("contains", "AffineMonoid.__post_init__", "saturate",
                    "sharpen", "spec", "pushout_with_maps",
                    "fiber_product_generators"),
    "cone_complex": ("extreme_rays_of_halfspaces", "RationalCone.from_rays",
                     "intersect", "is_face_of", "multiplicity",
                     "_parallelepiped_points", "hilbert_basis", "Fan.validate",
                     "_stellar_pieces"),
    "log_ideal_blowup": ("MonoidIdeal.reduce", "blowup_charts",
                         "blowup_is_idempotent"),
    "log_hom_analysis": ("MonoidHom.__post_init__", "kato_criterion",
                         "is_kummer", "universal_differential_presentation"),
}

# size counters: name -> (unit, better)
SIZE_COUNTERS = {
    "exact_lattice._snf_full.max_cells": ("cells", "lower"),
    "exact_lattice.minimal_nonneg_solutions.solutions": ("count", "lower"),
    "cone_complex.extreme_rays_of_halfspaces.max_rays": ("count", "lower"),
    "cone_complex.Fan.validate.pairs": ("count", "lower"),
    "cone_complex._parallelepiped_points.points": ("count", "lower"),
    "cone_complex.hilbert_basis.yield": ("ratio", "higher"),
}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, fns in BOUNDARIES.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for name, (unit, better) in SIZE_COUNTERS.items():
        out.append((name, unit, better))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out.append(("cli.import_ms", "ms", "lower"))
    out.append(("cli.import_numpy_ms", "ms", "lower"))
    return out


def _shape(a):
    shape = getattr(a, "shape", None)
    if shape is not None:
        return tuple(shape)
    rows = list(a)
    return (len(rows), len(rows[0]) if rows else 0)


class Tracer:
    """Spans and size counters of one traced run."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index, op id)
        self.stack = []
        self.op = None
        self.missing = []
        self.sizes = defaultdict(int)
        self.hilbert_depth = 0
        self.hilbert_points = 0
        self.hilbert_elements = 0

    # -- span recording ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def op_span(self, op_id, kind, fn):
        """Runs ``fn()`` as the root span of one operation."""
        self.op = op_id
        return self._wrap(f"op.{kind}", fn)()

    # -- size counters ----------------------------------------------------

    def _after(self, name):
        sizes = self.sizes

        def snf(args, result):
            m, n = _shape(args[0])
            sizes["exact_lattice._snf_full.max_cells"] = max(
                sizes["exact_lattice._snf_full.max_cells"], m * n)

        def cd(args, result):
            sizes["exact_lattice.minimal_nonneg_solutions.solutions"] += len(result)

        def dd(args, result):
            sizes["cone_complex.extreme_rays_of_halfspaces.max_rays"] = max(
                sizes["cone_complex.extreme_rays_of_halfspaces.max_rays"],
                len(result[0]))

        def validate(args, result):
            n = len(args[0].maximal_cones)
            sizes["cone_complex.Fan.validate.pairs"] += n * (n - 1) // 2

        def points(args, result):
            sizes["cone_complex._parallelepiped_points.points"] += len(result)
            if self.hilbert_depth:
                self.hilbert_points += len(result)

        def hilbert(args, result):
            self.hilbert_elements += len(result)

        return {
            "exact_lattice._snf_full": snf,
            "exact_lattice.minimal_nonneg_solutions": cd,
            "cone_complex.extreme_rays_of_halfspaces": dd,
            "cone_complex.Fan.validate": validate,
            "cone_complex._parallelepiped_points": points,
            "cone_complex.hilbert_basis": hilbert,
        }.get(name)

    def _hilbert_entry(self, fn):
        """Marks calls inside hilbert_basis, whose parallelepiped points
        make the denominator of ``hilbert_basis.yield``."""
        def enter(*args, **kwargs):
            self.hilbert_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.hilbert_depth -= 1
        return enter

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, fns in BOUNDARIES.items():
            mod = importlib.import_module(f"logmonoid.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                after = self._after(name)
                if fn_name == "handler":
                    table = getattr(mod, "_HANDLERS", None)
                    if table is None:
                        self.missing.append(name)
                        continue
                    for key, handler in list(table.items()):
                        table[key] = self._wrap(name, handler)
                    continue
                owner, attr = mod, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(mod, cls_name, None)
                raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, after)))
                    continue
                if name == "cone_complex.hilbert_basis":
                    raw = self._hilbert_entry(raw)
                setattr(owner, attr, self._wrap(name, raw, after))

    # -- reporting --------------------------------------------------------

    def metrics(self):
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
        out = {}
        for layer, fns in BOUNDARIES.items():
            total = 0.0
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_s[key]
                total += self_s[key]
            out[f"{layer}.self_s"] = total
        for name in SIZE_COUNTERS:
            out[name] = self.sizes[name]
        out["cone_complex.hilbert_basis.yield"] = (
            self.hilbert_elements / self.hilbert_points if self.hilbert_points else 0.0)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, round(start, 7), round(end, 7),
                                     parent, op]) + "\n")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)")


def import_times(env, cwd, runs=3):
    """(program import ms, numpy import ms), medians over ``runs`` cold
    ``python -X importtime -m logmonoid --version`` processes.

    The program's import is the cumulative time of the top-level logmonoid
    modules; numpy counts wherever it is first imported (0 if never)."""
    program, numpy = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "logmonoid", "--version"],
            capture_output=True, text=True, env=env, cwd=cwd, check=True)
        prog_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and name.split(".")[0] == "logmonoid":
                prog_us += cumulative
            if name == "numpy":
                numpy_us = cumulative
        program.append(prog_us / 1000)
        numpy.append(numpy_us / 1000)
    return statistics.median(program), statistics.median(numpy)

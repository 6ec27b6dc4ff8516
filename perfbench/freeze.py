"""Regenerates perfbench/data/panels.json: the fixed input panels of the
cone-resolve and monoid-hom workloads, and the frozen reference results of
the monoid-hom panel.

    python3 perfbench/freeze.py

The panels are drawn from the ranges in NOTES.md with a fixed panel seed;
every draw that passes the validity filter (the one acceptance criterion 5
applies) is kept.  Rerun only on purpose: the references record what this
commit computes, and later runs are checked against them.
"""

import json
import random
import signal
import sys
import time

from workloads import (MONOID_OPS, PANELS, PART, SIGNED, MonoidHom, Op, _apply_signed,
                       digest, import_package)

PANEL_SEED = "logmonoid-perfbench-panel-1"
A_K = (3, 5, 9, 13, 17, 21, 25)
CONES_2D = 24           # rays in [-6, 6]^2, 2 or 3 of them (criterion 5)
CONES_3D = 8            # rays in [-3, 3]^3, 2 to 4 of them
MONOID_INSTANCES = 40


def cone_panel(rng, cc):
    panel = [{"family": "A_k", "k": k, "rays": [[1, 0], [1, k]]} for k in A_K]
    for d, wanted, box in ((2, CONES_2D, 6), (3, CONES_3D, 3)):
        done = 0
        while done < wanted:
            rays = [[rng.randint(-box, box) for _ in range(d)]
                    for _ in range(rng.randint(2, d + 1))]
            rays = [r for r in rays if any(r)]
            if not rays:
                continue
            cone = cc.RationalCone.from_rays(rays, d)
            if cone.is_zero or not cone.is_strongly_convex:
                continue
            panel.append({"family": f"{d}d", "rays": rays})
            done += 1
    for entry in panel:
        entry["perms"] = same_work_images(cc, entry["rays"])
    return panel


def same_work_images(cc, rays):
    """Indices into SIGNED[d] of the coordinate changes under which the
    resolution has as many cones as that of the cone as drawn.  Resolution
    triangulates from the lexicographically least ray, so a change of
    coordinates can change the subdivision and its cost several-fold."""
    d = len(rays[0])
    sizes = []
    for perm, signs in SIGNED[d]:
        image = [_apply_signed(perm, signs, r) for r in rays]
        fan = cc.fan_from_cones([cc.RationalCone.from_rays(image, d)], d)
        sizes.append(len(cc.resolve(fan).maximal_cones))
    return [i for i, n in enumerate(sizes) if n == sizes[0]]


def raw_monoid(rng, torsion=True, dims=(2, 3), top=4):
    """``dims`` free coordinates, 1-4 generators in [0, top]^d, (1,-1,..)
    with probability 0.3 (criterion 6), and with probability 0.5 one torsion
    factor 2 or 3 with random residues."""
    d = rng.choice(dims)
    tors = [rng.choice((2, 3))] if torsion and rng.random() < 0.5 else []
    while True:
        vecs = [[rng.randint(0, top) for _ in range(d)] + [rng.randrange(f) for f in tors]
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            vecs.append([1, -1] + [0] * (d - 2 + len(tors)))
        vecs = [v for v in vecs if any(v)]
        if vecs:
            return {"vecs": vecs, "tors": tors}


def coeffs(rng, target, sources, top):
    return [[rng.randint(0, top) for _ in target["vecs"]] for _ in range(sources)]


def monoid_instance(rng):
    hom_target = raw_monoid(rng)
    s = rng.randint(1, 2)
    left, right = raw_monoid(rng), raw_monoid(rng)
    fiber_target = raw_monoid(rng, dims=(2,), top=3)
    host = raw_monoid(rng, torsion=False, top=3)
    n = len(host["vecs"])
    return {
        "monoid": raw_monoid(rng),
        "hom": {"target": hom_target, "coeffs": coeffs(rng, hom_target, rng.randint(1, 3), 2),
                "p": rng.choice((0, 2, 3, 5))},
        "pushout": {"left": {"target": left, "coeffs": coeffs(rng, left, s, 1)},
                    "right": {"target": right, "coeffs": coeffs(rng, right, s, 1)}},
        "fiber": {"target": fiber_target,
                  "left": {"coeffs": coeffs(rng, fiber_target, rng.randint(1, 2), 1)},
                  "right": {"coeffs": coeffs(rng, fiber_target, rng.randint(1, 2), 1)}},
        "blowup": dict(host, pick=sorted(rng.sample(range(n), rng.randint(1, min(3, n)))),
                       sum=n >= 2 and rng.random() < 0.4),
    }


def main():
    rng = random.Random(PANEL_SEED)
    wl = MonoidHom(0)
    wl.cc, _, wl.mc, wl.lha, wl.lib = import_package()
    cones = cone_panel(rng, wl.cc)
    instances = []
    slowest = (0.0, None)

    def too_slow(*_):
        raise TimeoutError("a panel operation ran past 20 s; see NOTES.md")

    signal.signal(signal.SIGALRM, too_slow)
    for idx in range(MONOID_INSTANCES):
        inst = monoid_instance(rng)
        inst["ref"] = {}
        for kind in MONOID_OPS:
            start = time.perf_counter()
            signal.alarm(20)
            try:
                exact, inv = wl.run(Op(kind, inst[PART[kind]]))
            except TimeoutError:
                print(f"instance {idx} {kind}: {json.dumps(inst[PART[kind]])}", file=sys.stderr)
                raise
            finally:
                signal.alarm(0)
            took = time.perf_counter() - start
            if took > 1:
                print(f"slow: instance {idx} {kind} {took:.2f} s", file=sys.stderr, flush=True)
            slowest = max(slowest, (took, (idx, kind)))
            inst["ref"][kind] = [json.loads(json.dumps(inv)), digest([json.dumps(exact)])]
        instances.append(inst)
    PANELS.parent.mkdir(exist_ok=True)
    PANELS.write_text(json.dumps({"cone-resolve": cones, "monoid-hom": instances},
                                 separators=(",", ":")) + "\n")
    print(f"wrote {PANELS}: {len(cones)} cones, {len(instances)} monoid instances; "
          f"slowest monoid op {slowest[0]:.3f} s at {slowest[1]}", file=sys.stderr)


if __name__ == "__main__":
    main()

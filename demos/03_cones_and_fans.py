"""Rational cones: duality, Hilbert bases, and resolution of fans.

Run with:  python3 demos/03_cones_and_fans.py
"""

import logmonoid.cone_complex as cc
from logmonoid.errors import DomainError


def main():
    print("== Duality and faces ==")
    flag = cc.RationalCone.from_rays([(2, -1), (0, 1)], 2)
    dual = cc.dual_cone(flag)
    print(f"cone((2,-1), (0,1)) has dual cone{sorted(dual.generators)}")
    for face in cc.faces(flag):
        print(f"  face of dimension {face.span_dim}: "
              f"rays {sorted(face.extreme_rays)}")
    print()

    print("== Gordan: the Hilbert basis ==")
    basis = sorted(cc.hilbert_basis(flag))
    print(f"Hilbert basis: {basis}")
    print(f"multiplicity:  {cc.multiplicity(flag)}  "
          f"(regular iff 1: {cc.is_regular(flag)})")
    tall = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2000)], 3)
    print(f"cone((1,0,0), (0,1,0), (1,1,2000)): multiplicity "
          f"{cc.multiplicity(tall)}, Hilbert basis of "
          f"{len(cc.hilbert_basis(tall))} elements")
    print()

    print("== Resolving the A_3 singularity ==")
    a3 = cc.fan_from_cones([cc.RationalCone.from_rays([(1, 0), (1, 3)], 2)], 2)
    out = cc.resolve(a3)
    print(f"input fan: 1 cone of multiplicity 3; output fan is regular: "
          f"{out.is_regular()}")
    for cone in out.maximal_cones:
        print(f"  chart cone{sorted(cone.extreme_rays)} "
              f"multiplicity {cc.multiplicity(cone)}")
    print()

    print("== Subdivisions ==")
    square = cc.RationalCone.from_rays(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    fan = cc.fan_from_cones([square], 3)
    star = cc.stellar_subdivision(fan, (1, 1, 0))
    print(f"stellar subdivision of the square cone at (1,1,0): "
          f"{len(star.maximal_cones)} cones, regular: {star.is_regular()}")
    try:
        cc.Fan(2, (cc.RationalCone.from_rays([(1, 0), (1, 2)], 2),
                   cc.RationalCone.from_rays([(1, 1), (0, 1)], 2)))
    except DomainError as exc:
        print(f"Fan refuses cone((1,0), (1,2)) with cone((1,1), (0,1)): {exc}")


if __name__ == "__main__":
    main()

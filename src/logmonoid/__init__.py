"""logmonoid: exact computations for the combinatorial side of log geometry.

Fine monoids and their presentations, Grothendieck groups, saturation,
spectra, pushouts and fiber products; rational cones, fans, Hilbert bases
and resolution by stellar subdivision; monoid ideals and their blowups;
homomorphism analysis (Kato smoothness, Kummer covers, log differentials).
All arithmetic is exact over the integers.

Every public name is importable from here, and ``_EXPORTS`` is the one list
of them: a name's module is imported on the first access to it (PEP 562),
so ``import logmonoid`` alone loads none of the six modules.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "InputError", "InternalCheckError",
               "LogMonoidError"),
    "exact_lattice": ("FgAbelianGroup", "IntMatrix", "SmithDecomposition",
                      "cokernel", "group_from_relations", "hom_cokernel",
                      "hom_kernel", "kernel_basis", "minimal_nonneg_solutions",
                      "smith_normal_form", "solve_integer", "solve_nonneg"),
    "monoid_core": ("AffineMonoid", "MonoidElement", "MonoidPresentation",
                    "PrimeIdeal", "fiber_product", "free_monoid",
                    "grothendieck_group", "integralize", "predicates",
                    "pushout", "saturate", "sharpen", "spec", "units"),
    "cone_complex": ("Fan", "RationalCone", "dual_cone", "faces",
                     "fan_from_cones", "hilbert_basis", "multiplicity",
                     "resolve", "stellar_subdivision"),
    "log_ideal_blowup": ("BlowupChart", "MonoidIdeal", "blowup_charts",
                         "blowup_fan", "blowup_is_idempotent"),
    "log_hom_analysis": ("DifferentialPresentation", "MonoidHom",
                         "SmoothnessVerdict", "differential_rank", "is_kummer",
                         "kato_criterion", "neat_chart_class",
                         "relative_characteristic",
                         "universal_differential_presentation"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())

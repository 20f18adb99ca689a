"""Exact tools for the coupled Painlevé-III systems of types B4(1),
D4(1) and D5(2): Bäcklund transformation groups, existence classification
of rational solutions, explicit construction, and verification.

Importing the package loads none of its modules: each export loads its
module on first use (PEP 562).  `classify` stays the function, also after
`import sasano.classify`."""

import sys as _sys

_SUBMODULES = ("backlund", "exactmath", "systems", "verify")
_EXPORTS = {
    "exactmath": "INFINITY LaurentSeries Polynomial RF RationalFunction ZERO_POINT finite_point "
                 "laurent_expand rat rat_str rational_roots residue",
    "systems": "Chart ChartMismatch NormalizationFailed ParameterTuple SolutionTuple System "
               "UndefinedAction is_solution solve_last_alpha",
    "backlund": "Generator GeneratorWord act_params act_solution act_word equivalence_map "
                "invert_word parse_word shift_word word",
    "classify": "ClassificationResult NotStandardForm classify condition_holds "
                "construct_rational_solution lattice_coordinates normalize_to_standard "
                "seed_solution",
    "verify": "IntegratorFailed InvariantReport PoleOnPath invariant_report numeric_crosscheck "
              "pole_free_interval verify_solution",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name not in _SUBMODULES:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(_sys)):
    """The package module, which keeps an export when the import system
    binds the submodule of the same name (`classify`) over it."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, type(_sys))):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package

"""Exact tools for the coupled Painlevé-III systems of types B4(1),
D4(1) and D5(2): Bäcklund transformation groups, existence classification
of rational solutions, explicit construction, and verification."""

from .exactmath import (
    INFINITY,
    LaurentSeries,
    Polynomial,
    RF,
    RationalFunction,
    ZERO_POINT,
    finite_point,
    laurent_expand,
    rat,
    rat_str,
    rational_roots,
    residue,
)
from .systems import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    SolutionTuple,
    System,
    hamiltonian,
    hamiltonian_constant_oracle,
    is_solution,
    residual,
    solve_last_alpha,
)
from .backlund import (
    Generator,
    GeneratorWord,
    NormalizationFailed,
    UndefinedAction,
    act_params,
    act_solution,
    act_word,
    equivalence_map,
    invert_word,
    parse_word,
    shift_word,
    word,
)
from .classify import (
    ClassificationResult,
    NotStandardForm,
    classify,
    condition_holds,
    construct_rational_solution,
    lattice_coordinates,
    normalize_to_standard,
    seed_solution,
)
from .verify import (
    IntegratorFailed,
    InvariantReport,
    PoleOnPath,
    invariant_report,
    numeric_crosscheck,
    pole_free_interval,
    verify_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]

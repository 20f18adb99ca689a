"""The numeric cross-check's comparison loop.

`numeric_crosscheck` compares the exact solution with the integrated
states at its samples in one loop over float coefficient lists.  The
reference below is the comparison as it stood before: `float_function`
per component, a clamp and `max` over a generator.  Both must return
equal deviations (==, a NaN matching a NaN) on the same states.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import from_lattice, push_word, random_standard_form
from sasano import (
    Chart,
    IntegratorFailed,
    RF,
    System,
    construct_rational_solution,
    numeric_crosscheck,
    pole_free_interval,
    seed_solution,
)
from sasano import verify
from sasano.backlund import PRIMITIVES
from sasano.exactmath import float_function, rat
from sasano.systems import float_rhs

T = RF.t()


def reference_crosscheck(params, sol, t0, t1, steps=64, initial_offset=None):
    """`numeric_crosscheck` past its input checks, with the sample
    comparison it made before that became one loop."""
    t0, t1 = rat(t0), rat(t1)
    start = [float(c.evaluate(t0)) for c in sol.components()]
    if initial_offset is not None:
        start = [v + float(o) for v, o in zip(start, initial_offset)]
    n0, n1 = t0.numerator * t1.denominator, t1.numerator * t0.denominator
    den = t0.denominator * t1.denominator * (steps - 1)
    samples = [(n0 * (steps - 1) + (n1 - n0) * i) / den for i in range(steps)]
    rhs = float_rhs(params.system, Chart.AFFINE, [float(a) for a in params.alphas])
    states = [start] + verify._dop853(rhs, samples[0], start, samples[1:])
    exact = [float_function(c) for c in sol.components()]

    def clamp(v: float) -> float:
        return min(max(v, -1e6), 1e6)

    return max(abs(clamp(n) - clamp(c(t)))
               for t, state in zip(samples, states)
               for n, c in zip(state, exact))


def _outcome(check, *args, **kw):
    try:
        return check(*args, **kw)
    except IntegratorFailed as exc:
        return str(exc)


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


def _fixture(system, kind):
    if kind == "seed":
        p = random_standard_form(system, random.Random(7))
        return p, seed_solution(p)
    p = from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5))
    return p, construct_rational_solution(p).solution


@pytest.mark.parametrize("kind", ["seed", "n1"])
@pytest.mark.parametrize("system", list(System))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(letters=st.lists(st.integers(0, 10), max_size=2),
       offset=st.lists(st.floats(-1e-2, 1e-2), min_size=4, max_size=4))
def test_comparison_matches_the_reference(system, kind, letters, offset):
    # fixtures pushed through short words, from their exact start and a
    # perturbed one, which may make the integrator fail the same way
    p, sol = _fixture(system, kind)
    names = PRIMITIVES[system]
    p, sol = push_word(p, sol, [names[i % len(names)] for i in letters])
    if sol.chart is not Chart.AFFINE:
        return
    t0, t1 = pole_free_interval(sol)
    for initial_offset in (None, offset):
        new = _outcome(numeric_crosscheck, p, sol, t0, t1, initial_offset=initial_offset)
        ref = _outcome(reference_crosscheck, p, sol, t0, t1, initial_offset=initial_offset)
        assert _same(new, ref)


def _power(k):
    power = RF.ONE
    for _ in range(k):
        power = power * T
    return power


# near t = 10**8 both are about constant, 10**300 and 2, while their
# terms pass the float range: Horner on the float coefficients made them
# inf (10**300 * t**3) and NaN (inf / inf), the keys below.  `float_function`
# carries the exponents as integers and returns both finite, so an inf or
# a NaN reaches the comparison from the states alone
_PAST_FLOAT_RANGE = {"inf": 10 ** 300 * _power(3) / (_power(3) + 1),
                     "nan": 2 * _power(40) / (_power(40) + 1)}


@pytest.mark.parametrize("index", [0, 1, 3])
@pytest.mark.parametrize("kind", ["inf", "nan"])
@pytest.mark.parametrize("state", ["finite", "inf", "nan first", "nan later"])
def test_comparison_matches_the_reference_past_float_range(monkeypatch, index, kind, state):
    # the integrator is replaced by fixed states, so that any float value
    # reaches the comparison; max() lets a NaN win only as its first element
    p = from_lattice(System.B4, F(3, 2), F(1, 3), 1, F(2, 5))
    sol = construct_rational_solution(p).solution
    comps = list(sol.components())
    comps[index] = _PAST_FLOAT_RANGE[kind]
    sol = sol.replace(**dict(zip("xyzw", comps)))
    fill = {"finite": 0.5, "inf": float("inf"), "nan first": 0.5, "nan later": float("nan")}[state]

    def fixed(f, t, y, stops):
        states = [[fill, -fill, 2.0, 1e7] for _ in stops]
        if state == "nan later":
            states[-1] = [0.5] * 4
        return states

    monkeypatch.setattr(verify, "_dop853", fixed)
    offset = [float("nan"), 0, 0, 0] if state == "nan first" else None
    t0, t1 = 10 ** 8, 10 ** 8 + 1
    new = numeric_crosscheck(p, sol, t0, t1, initial_offset=offset)
    assert _same(new, reference_crosscheck(p, sol, t0, t1, initial_offset=offset))


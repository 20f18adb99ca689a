"""verify._dopri5 against a reference copy of its earlier step loop.

The reference below is the integrator as it stood before each stage
became one comprehension: every stage sum taken with sum(map(mul, ...))
over the transposed stage slopes, zero weights included.  The current
loop must make the same right-hand-side calls and return equal states
(==), and where a flow blows up it must fail at the same t.
"""

import math
import random
from fractions import Fraction as F
from itertools import accumulate
from operator import mul

from hypothesis import given, settings, strategies as st

from conftest import random_standard_form
from sasano import Chart, System, seed_solution
from sasano.systems import vector_field
from sasano.verify import IntegratorFailed, _dopri5

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def reference_dopri5(f, t: float, y, stops, rtol: float, atol: float) -> list:
    y = tuple(y)
    k0 = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k1 = f(t + h0, tuple(v + h0 * k for v, k in zip(y, k0)))
    d2 = _rms([(b - a) / s for a, b, s in zip(k0, k1, scale)]) / h0
    h_abs = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
             else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h_abs)

    out = []
    for stop in stops:
        while t < stop:
            if h_abs < 10 * (math.nextafter(t, math.inf) - t):
                raise IntegratorFailed(
                    f"integrator failed at t = {t:.6g}: step size below float spacing")
            clipped = h_abs >= stop - t
            h = stop - t if clipped else h_abs
            ks = [k0]
            for c, a in zip(_DP_C[1:], _DP_A[1:]):
                # zip(*ks) runs over components: the stage slopes of each
                state = tuple(v + h * sum(map(mul, a, col)) for v, col in zip(y, zip(*ks)))
                ks.append(f(t + c * h, state))
            y_new = tuple(v + h * sum(map(mul, _DP_B, col)) for v, col in zip(y, zip(*ks)))
            t_new = stop if clipped else t + h
            ks.append(f(t_new, y_new))
            error = _rms([h * sum(map(mul, _DP_E, col)) / (atol + max(abs(a), abs(b)) * rtol)
                          for a, b, col in zip(y, y_new, zip(*ks))])
            if error < 1:  # accept; NaN and inf reject
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** -0.2)
                h_abs = max(h_abs, h * factor) if clipped else h * factor
                t, y, k0 = t_new, y_new, ks[-1]
            else:
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.2)
        out.append(y)
    return out


def _same(a, b) -> bool:
    """Equal float sequences, where a NaN matches a NaN."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(u == v or (u != u and v != v) for u, v in zip(a, b))


# Some drawn flows grow fast without blowing up: the step size stays above
# float spacing, and a run to the last stop takes millions of steps.  Both
# integrators stop at the same number of right-hand-side calls, so such a
# run is compared call by call up to there.
_CALL_BUDGET = 20_000


class _BudgetSpent(Exception):
    pass


def _run(integrator, f, t, y, stops):
    """(calls, states or the failure's message) of one run; calls lists
    every (t, state) the integrator handed to f, at most _CALL_BUDGET."""
    calls = []

    def logged(s, v):
        if len(calls) == _CALL_BUDGET:
            raise _BudgetSpent(f"{_CALL_BUDGET} calls spent at t = {s!r}")
        calls.append((s, list(v)))
        return f(s, v)

    try:
        result = integrator(logged, t, y, stops, rtol=1e-12, atol=1e-12)
    except (IntegratorFailed, _BudgetSpent) as exc:
        result = str(exc)
    return calls, result


def _assert_same_run(f, t, y, stops):
    ref_calls, ref = _run(reference_dopri5, f, t, y, stops)
    calls, new = _run(_dopri5, f, t, y, stops)
    assert len(calls) == len(ref_calls)
    for (s, v), (s_ref, v_ref) in zip(calls, ref_calls):
        assert s == s_ref and _same(v, v_ref)
    if isinstance(ref, str):
        assert new == ref  # the same t, as the calls were the same
    else:
        assert not isinstance(new, str) and len(new) == len(ref)
        assert all(_same(state, state_ref) for state, state_ref in zip(new, ref))


_coeff = st.floats(-4, 4, allow_nan=False, allow_infinity=False)


@st.composite
def polynomial_flows(draw):
    """y' = f(t, y): each component a sum of terms c t^p y_i y_j, of
    degree at most two in y, so that some flows blow up."""
    dim = draw(st.sampled_from([1, 2, 4]))
    index = st.integers(-1, dim - 1)  # -1: no factor
    term = st.tuples(_coeff, st.integers(0, 1), index, index)
    rows = draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=dim, max_size=dim))

    def f(t, y):
        return [sum(c * t ** p * (y[i] if i >= 0 else 1.0) * (y[j] if j >= 0 else 1.0)
                    for c, p, i, j in row)
                for row in rows]

    y0 = draw(st.lists(_coeff, min_size=dim, max_size=dim))
    return f, y0


@settings(max_examples=60, deadline=None)
@given(polynomial_flows(), st.sampled_from([0.0, 1.0]),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
def test_matches_the_reference_on_polynomial_flows(flow, t0, gaps):
    f, y0 = flow
    _assert_same_run(f, t0, y0, list(accumulate(gaps, initial=t0))[1:])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([System.B4, System.D4, System.D5]), st.integers(0, 10 ** 6),
       st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       st.lists(st.floats(0.05, 0.5), min_size=1, max_size=4))
def test_matches_the_reference_on_the_affine_charts(system, seed, offsets, gaps):
    # t X' = RHS at the float alphas of a seed solution, from near its
    # value at t = 1 when the seed lies in the affine chart
    q = random_standard_form(system, random.Random(seed))
    sol = seed_solution(q)
    start = ([float(c.evaluate(F(1))) for c in sol.components()]
             if sol.chart is Chart.AFFINE else [0.0] * 4)
    field = vector_field(system, Chart.AFFINE, [float(a) for a in q.alphas])
    stops = list(accumulate(gaps, initial=1.0))[1:]
    _assert_same_run(lambda t, v: [r / t for r in field(t, *v)], 1.0,
                     [v + o for v, o in zip(start, offsets)], stops)


def test_matches_the_reference_where_the_flow_blows_up():
    # y' = y**2 from y(0) = 1 leaves every float before t = 1
    _assert_same_run(lambda t, v: [v[0] * v[0]], 0.0, [1.0], [0.5, 2.0])

"""verify._dop853 against a plain loop transcribed from the published method.

The reference below is Dormand and Prince's 8(5,3) pair with its dense
output as in Hairer's code DOP853 (Hairer, Norsett and Wanner, Solving
ODEs I, II.5-II.6), with its decimals as printed there: every stage sum
taken with `sum` over the stages in order, zero weights left out, around
the step-size control of `verify`.  The integrator must make the same
right-hand-side calls and return equal states (==), and where a flow blows
up it must fail at the same t.  Dense output leaves the steps where they
were when the stops change, and its states follow closed-form flows.
"""

import math
import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_standard_form
from sasano import Chart, System, seed_solution
from sasano import verify
from sasano.systems import vector_field
from sasano.verify import IntegratorFailed, _dop853

# c_i, a_ij, the error weights and the dense output's d_ij, by stage number
_C = {2: 0.526001519587677318785587544488e-01, 3: 0.789002279381515978178381316732e-01,
      4: 0.118350341907227396726757197510, 5: 0.281649658092772603273242802490,
      6: 0.333333333333333333333333333333, 7: 0.25, 8: 0.307692307692307692307692307692,
      9: 0.651282051282051282051282051282, 10: 0.6, 11: 0.857142857142857142857142857142, 12: 1.0,
      13: 1.0, 14: 0.1, 15: 0.2, 16: 0.777777777777777777777777777778}
_A = {
    2: {1: 5.26001519587677318785587544488e-2},
    3: {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    4: {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    5: {1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
        4: 9.24834003261792003115737966543e-1},
    6: {1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
        5: 1.25467687566822425016691814123e-1},
    7: {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
        5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    8: {1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
        5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
        7: 8.27378916381402288758473766002e-3},
    9: {1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
        5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
        7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1},
    10: {1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
         5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
         7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
         9: -2.03312017085086261358222928593e-2},
    11: {1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
         5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
         7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
         9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022},
    12: {1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
         5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
         7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
         9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
         11: 6.43392746015763530355970484046e-1},
    13: {1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
         7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
         9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
         11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2},
    14: {1: 5.61675022830479523392909219681e-2, 7: 2.53500210216624811088794765333e-1,
         8: -2.46239037470802489917441475441e-1, 9: -1.24191423263816360469010140626e-1,
         10: 1.5329179827876569731206322685e-1, 11: 8.20105229563468988491666602057e-3,
         12: 7.56789766054569976138603589584e-3, 13: -8.298e-3},
    15: {1: 3.18346481635021405060768473261e-2, 6: 2.83009096723667755288322961402e-2,
         7: 5.35419883074385676223797384372e-2, 8: -5.49237485713909884646569340306e-2,
         11: -1.08347328697249322858509316994e-4, 12: 3.82571090835658412954920192323e-4,
         13: -3.40465008687404560802977114492e-4, 14: 1.41312443674632500278074618366e-1},
    16: {1: -4.28896301583791923408573538692e-1, 6: -4.69762141536116384314449447206,
         7: 7.68342119606259904184240953878, 8: 4.06898981839711007970213554331,
         9: 3.56727187455281109270669543021e-1, 13: -1.39902416515901462129418009734e-3,
         14: 2.9475147891527723389556272149, 15: -9.15095847217987001081870187138},
}
_E5 = {1: 0.1312004499419488073250102996e-1, 6: -0.1225156446376204440720569753e+1,
       7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e+1,
       9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
       11: 0.8192320648511571246570742613e-1, 12: -0.2235530786388629525884427845e-1}
_BHH = {1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547,
        12: 0.220588235294117647058823529412e-1}
_D = (
    {1: -0.84289382761090128651353491142e+1, 6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1, 8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1, 10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1, 12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1, 14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1, 16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2, 6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3, 8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2, 10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2, 12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2, 14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1, 16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2, 6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3, 8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2, 10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1, 12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1, 14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2, 16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2, 6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3, 8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2, 10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3, 12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2, 14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2, 16: -0.14972683625798562581422125276e+3},
)

_B = _A[13]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _state(y, h, weights, ks):
    """y + h * (the weighted sum of the stage slopes ks[j]), per component."""
    return [v + h * sum(a * ks[j][i] for j, a in weights.items()) for i, v in enumerate(y)]


def reference_dop853(f, t: float, y, stops, rtol: float, atol: float) -> list:
    y = list(y)
    k = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k_h0 = f(t + h0, [v + h0 * p for v, p in zip(y, k)])
    d2 = _rms([(b - a) / s for a, b, s in zip(k, k_h0, scale)]) / h0
    h_abs = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
             else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h_abs)

    budget = steps_left = max(10_000, 200 * len(stops))
    out, end = [], stops[-1]
    while t < end:
        if h_abs < 10 * (math.nextafter(t, math.inf) - t):
            raise IntegratorFailed(
                f"integrator failed at t = {t:.6g}: step size below float spacing")
        if steps_left == 0:
            raise IntegratorFailed(
                f"integrator failed at t = {t:.6g}: budget of {budget} steps spent")
        steps_left -= 1
        h, t_new = h_abs, t + h_abs
        if t_new >= end:  # only the last stop clips a step
            h, t_new = end - t, end
        ks = {1: k}
        for s in range(2, 13):
            ks[s] = f(t + _C[s] * h, _state(y, h, _A[s], ks))
        d = [sum(b * ks[j][i] for j, b in _B.items()) for i in range(len(y))]
        y_new = [v + h * di for v, di in zip(y, d)]
        sk = [atol + max(abs(v), abs(n)) * rtol for v, n in zip(y, y_new)]
        err5 = err3 = 0.0
        for i in range(len(y)):
            e5 = sum(e * ks[j][i] for j, e in _E5.items()) / sk[i]
            e3 = d[i]  # less the third-order solution's weights, one by one
            for j, b in _BHH.items():
                e3 -= b * ks[j][i]
            e3 /= sk[i]
            err5 += e5 * e5
            err3 += e3 * e3
        error = 0.0 if err5 == err3 == 0 else h * err5 / math.sqrt((err5 + 0.01 * err3) * len(y))
        if error < 1:  # accept; NaN and inf reject
            ks[13] = f(t_new, y_new)
            inside = [s for s in stops if t < s < t_new]
            if inside:
                for s in (14, 15, 16):
                    ks[s] = f(t + _C[s] * h, _state(y, h, _A[s], ks))
            for s in inside:
                x = (s - t) / h
                state = []
                for i, (v, n) in enumerate(zip(y, y_new)):
                    f0 = n - v
                    f1 = h * ks[1][i] - f0
                    f2 = 2 * f0 - h * (ks[13][i] + ks[1][i])
                    f3, f4, f5, f6 = (h * sum(c * ks[j][i] for j, c in row.items()) for row in _D)
                    state.append(v + x * (f0 + (1 - x) * (f1 + x * (f2 + (1 - x) * (
                        f3 + x * (f4 + (1 - x) * (f5 + x * f6)))))))
                out.append(state)
            if t_new in stops:
                out.append(y_new)
            factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** (-1 / 8))
            h_abs = h * factor
            t, y, k = t_new, y_new, ks[13]
        else:
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** (-1 / 8))
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
        result = integrator(logged, t, y, stops)
    except (IntegratorFailed, _BudgetSpent) as exc:
        result = str(exc)
    return calls, result


def _assert_same_run(f, t, y, stops):
    ref_calls, ref = _run(lambda *a: reference_dop853(*a, rtol=1e-12, atol=1e-12), f, t, y, stops)
    calls, new = _run(_dop853, f, t, y, stops)
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


_STEP = verify._dop853_step


def _accepted_steps(monkeypatch, f, t, y, stops):
    """(states, the (t, h, y_new) of every accepted step) of one run."""
    steps = []

    def recorded(f, t, h, y, k1):
        y_new, error, stages = _STEP(f, t, h, y, k1)
        if error < 1:
            steps.append((t, h, y_new))
        return y_new, error, stages

    monkeypatch.setattr(verify, "_dop853_step", recorded)
    return _dop853(f, t, y, stops), steps


def _van_der_pol(t, v):
    return [v[1], (1 - v[0] * v[0]) * v[1] - v[0]]


def _field(system):
    field = vector_field(system, Chart.AFFINE, [float(a) for a in
                                                random_standard_form(system, random.Random(3)).alphas])
    return lambda t, v: [r / t for r in field(t, *v)]


@pytest.mark.parametrize("f, start", [(_van_der_pol, [2.0, 0.0]),
                                      (_field(System.B4), [0.5, -0.25, 0.75, 0.125]),
                                      (_field(System.D4), [0.5, -0.25, 0.75, 0.125])])
def test_stops_move_no_step(monkeypatch, f, start):
    # the same window sampled at 64 stops and at every ninth of them: the
    # accepted steps are the same, and so are the states at the shared stops
    stops = [1 + i / 63 for i in range(1, 64)]
    states, steps = _accepted_steps(monkeypatch, f, 1.0, start, stops)
    few_states, few_steps = _accepted_steps(monkeypatch, f, 1.0, start, stops[8::9])
    assert len(steps) > 2 and steps == few_steps
    assert few_states == states[8::9]


@pytest.mark.parametrize("f, y0, exact, window", [
    (lambda t, v: [v[0] * v[0]], [0.5], lambda t: [1 / (2 - t)], (0.0, 1.5)),
    (lambda t, v: [-t * v[0]], [1.0], lambda t: [math.exp(-t * t / 2)], (0.0, 3.0)),
    (lambda t, v: [v[1], -v[0]], [0.0, 1.0], lambda t: [math.sin(t), math.cos(t)], (0.0, 10.0)),
])
def test_dense_output_follows_closed_form_flows(f, y0, exact, window):
    # y' = y**2 is 1/(2 - t) from 1/2, y' = -t y is exp(-t**2 / 2), and
    # (sin, cos) turns through 1.6 periods; 64 samples, both ends included
    t0, t1 = window
    stops = [t0 + (t1 - t0) * i / 63 for i in range(1, 64)]
    states = _dop853(f, t0, y0, stops)
    assert len(states) == 63
    assert max(abs(v - e) for t, state in zip(stops, states)
               for v, e in zip(state, exact(t))) <= 1e-9

"""Closed-form bounds against independent oracles.

Every closed form is checked against a high-precision quadrature of its
defining integral, a dense float grid, or central finite differences;
monotonicity laws are sampled over random admissible pairs.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from wrightbound import bounds
from wrightbound.bounds import (
    DEFAULT_A,
    A,
    AdmissibilityError,
    BoundParams,
    L,
    L_limit_infinite_M,
    _arc_critical_points,
    _L_jets,
    breakpoints,
    d_enclosure,
    d_pair,
    dL_dm,
    envelope,
    envelope_tilde,
    r,
    sigma_closed_form,
    sigma_enclosure,
    z_eval,
)
from wrightbound.interval import CertificationError, Interval, hull, imax
from wrightbound.separation import m_k

mpmath.mp.dps = 40

P = BoundParams
pt = Interval.point
A_STAR = DEFAULT_A


def _mp_ratio(a, x):
    return a * x / (1 + x)


def _quad_L(a, M, m):
    """Oracle: L = integral of r(z_plus(s)) over [-1, 0]."""
    a, M, m = map(mpmath.mpf, (a, M, m))
    rM, rm = _mp_ratio(a, M), _mp_ratio(a, m)
    ap = (1 + M - rM / (2 * rm)) / a
    bp = (1 + M + rM / (2 * rm)) / a

    def z(s):
        if s <= ap:
            return M
        if s <= bp:
            return M + (a / 2) * rm * (s - ap) ** 2
        return rM * s

    knots = sorted({-1, 0} | {float(x) for x in (ap, bp) if -1 < x < 0})
    return mpmath.quad(lambda s: _mp_ratio(a, z(s)), knots)


def _quad_sigma(a, m, Za):
    """Oracle: Sigma = integral of r(z_tilde(s)) over [-1, 0]."""
    a, m, Za = map(mpmath.mpf, (a, m, Za))
    rm_plain = m / (1 + m)
    at = (1 + m - rm_plain / (2 * Za)) / a
    bt = (1 + m + rm_plain / (2 * Za)) / a

    def z(s):
        if s <= at:
            return m
        if s <= bt:
            return m + (a * a / 2) * Za * (s - at) ** 2
        return a * rm_plain * s

    knots = sorted({-1, 0} | {float(x) for x in (at, bt) if -1 < x < 0})
    return mpmath.quad(lambda s: _mp_ratio(a, z(s)), knots)


def _admissible_pairs(count, seed, m_lo=-0.25, m_hi=-0.01):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.uniform(m_lo, m_hi)
        top = A(pt(m), A_STAR).lo * 0.999
        M = rng.uniform(-m, top)
        out.append((M, m))
    return out


def _d_admissible_pairs(count, seed):
    """Pairs inside the curvature bound's domain (beta_minus > 0 needs
    M < -m/(0.5+m))."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.uniform(-0.25, -0.01)
        top = 0.98 * min(A(pt(m), A_STAR).lo, -m / (0.5 + m))
        if top <= -m:
            continue
        M = rng.uniform(-m, top)
        out.append((M, m))
    return out


# -- r and A -------------------------------------------------------------


def test_r_exact_rational_points():
    v = r(pt(1.0), A_STAR)
    assert v.contains(-37.0 / 48.0) and v.width() < 1e-14
    v = r(pt(-0.5), -1.5)
    assert v.contains(1.5) and v.width() < 1e-14


def test_A_examples():
    v = A(pt(-0.25), A_STAR)
    assert 0.3769 < v.lo <= v.hi < 0.377
    v = A(pt(-1e-8), A_STAR)
    assert abs(v.mid()) < 1e-7
    assert A(pt(-0.25), A_STAR).lo > A(pt(-0.25), -1.5).hi


def test_A_against_high_precision_formula():
    for m in (-0.05, -0.12, -0.2343, -0.0093, -0.61):
        mm = mpmath.mpf(m)
        exact = (mpmath.mpf(A_STAR) * mm / (1 + mm) - 1
                 + (1 + mm) * mpmath.log1p(mm) / mm)
        enc = A(pt(m), A_STAR)
        assert enc.lo <= float(exact) <= enc.hi
        assert enc.width() < 1e-13


# -- breakpoints ---------------------------------------------------------


def test_breakpoint_limits_small_amplitude():
    p = P(A_STAR, pt(1e-9), pt(-1e-9))
    b = breakpoints(p)
    assert abs(b.alpha_plus.mid() - 1.5 / A_STAR) < 1e-6
    assert abs(b.beta_plus.mid() - 0.5 / A_STAR) < 1e-6
    assert abs(b.beta_minus.mid() + 0.5 / A_STAR) < 1e-6


def test_breakpoint_scaling_in_a():
    b1 = breakpoints(P(-0.75, pt(0.1), pt(-0.09)))
    b2 = breakpoints(P(-1.5, pt(0.1), pt(-0.09)))
    assert abs(b1.alpha_plus.mid() / b2.alpha_plus.mid() - 2.0) < 1e-12


def test_alpha_minus_beta_minus_gap_exact():
    for M, m in _admissible_pairs(20, 7):
        b = breakpoints(P(A_STAR, pt(M), pt(m)))
        gap = b.alpha_minus - b.beta_minus
        assert gap.contains(-1.0 / A_STAR)
        assert gap.width() < 1e-14


# -- envelopes -----------------------------------------------------------


def test_envelope_values_and_continuity():
    p = P(A_STAR, pt(0.1), pt(-0.1))
    z = envelope(p, "combined")
    b = breakpoints(p)
    assert z_eval(z, pt(-0.99)).contains(0.1)          # constant top
    assert z_eval(z, pt(1.2)).contains(-0.1)           # constant bottom
    for knot in (b.alpha_plus, b.beta_plus, b.beta_minus, b.alpha_minus):
        left = z_eval(z, pt(math.nextafter(knot.lo, -2.0)))
        right = z_eval(z, pt(math.nextafter(knot.hi, 2.0)))
        assert abs(left.mid() - right.mid()) < 1e-9   # continuity at knots


def test_envelope_combined_agrees_with_sides():
    # With beta_minus > 0 > beta_plus, the combined envelope coincides
    # with the upper one left of zero and the lower one right of zero.
    p = P(A_STAR, pt(0.12), pt(-0.11))
    zp = envelope(p, "plus")
    zm = envelope(p, "minus")
    zc = envelope(p, "combined")
    for s in np.linspace(-1.4, 0.0, 500):
        assert abs(z_eval(zc, pt(float(s))).mid()
                   - z_eval(zp, pt(float(s))).mid()) < 1e-12
    for s in np.linspace(0.0, 1.4, 500):
        assert abs(z_eval(zc, pt(float(s))).mid()
                   - z_eval(zm, pt(float(s))).mid()) < 1e-12


def test_envelope_interval_argument_hulls_branches():
    p = P(A_STAR, pt(0.1), pt(-0.1))
    z = envelope(p, "plus")
    wide = z_eval(z, Interval(-1.2, 0.5))
    assert wide.contains(0.1)
    assert wide.encloses(z_eval(z, pt(-0.3)))


# -- L -------------------------------------------------------------------


def test_L_remark_value():
    v = L(P(A_STAR, pt(0.0094), pt(-0.009)))
    assert v.contains(float(mpmath.mpf("-0.0092701897012682004924")))
    assert v.width() < 1e-9


def test_L_against_quadrature_200_pairs():
    for M, m in _admissible_pairs(200, 20260824):
        enc = L(P(A_STAR, pt(M), pt(m)))
        oracle = float(_quad_L(A_STAR, M, m))
        assert enc.lo - 1e-12 <= oracle <= enc.hi + 1e-12, (M, m)


def test_L_branch2_and_3_against_quadrature():
    # Large -m pushes alpha_plus (then beta_plus) below -1.
    for M, m in [(0.05, -0.5), (0.02, -0.55), (0.01, -0.6),
                 (0.3, -0.45), (0.37, -0.61)]:
        enc = L(P(A_STAR, pt(M), pt(m)))
        oracle = float(_quad_L(A_STAR, M, m))
        assert enc.lo - 1e-11 <= oracle <= enc.hi + 1e-11, (M, m)


def test_L_decreasing_in_M():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.uniform(-0.25, -0.02)
        top = A(pt(m), A_STAR).lo * 0.999
        M1 = rng.uniform(-m, top)
        M2 = rng.uniform(M1, top)
        if M2 <= M1:
            continue
        v1 = L(P(A_STAR, pt(M1), pt(m)))
        v2 = L(P(A_STAR, pt(M2), pt(m)))
        assert v2.lo <= v1.hi + 1e-14


def test_L_increasing_in_a():
    for M, m in _admissible_pairs(100, 11):
        v_steep = L(P(A_STAR, pt(M), pt(m)))
        v_mild = L(P(-1.5, pt(M), pt(m)))
        assert v_steep.lo <= v_mild.hi + 1e-14


def test_L_limit_value():
    v = L_limit_infinite_M(A_STAR)
    target = float(mpmath.mpf(-37) / 24 + mpmath.log(mpmath.mpf(61) / 24))
    assert v.contains(target)
    assert v.contains(-0.6088466328413015)
    assert v.width() < 1e-12


def test_L_inadmissible_raises():
    with pytest.raises(AdmissibilityError):
        # m > -1/9 and M far above A(m): beta_plus crosses zero.
        L(P(A_STAR, pt(0.9), pt(-0.01)))


# -- dL/dm ---------------------------------------------------------------


def test_dL_matches_central_differences():
    eps = 1e-6
    for M, m in [(0.2, -0.15), (0.1, -0.09), (0.3, -0.24), (0.041, -0.04)]:
        enc = dL_dm(P(A_STAR, pt(M), pt(m)))
        fd = (L(P(A_STAR, pt(M), pt(m + eps))).mid()
              - L(P(A_STAR, pt(M), pt(m - eps))).mid()) / (2 * eps)
        assert enc.lo - 1e-7 <= fd <= enc.hi + 1e-7, (M, m)


def test_dL_spec_example_positive():
    enc = dL_dm(P(A_STAR, pt(0.2), pt(-0.15)))
    assert 0.0 < enc.lo <= enc.hi < 0.91
    assert enc.width() < 1e-9


def _region_boxes(count, seed):
    """Seeded boxes of the 2.15b region -m <= M <= A(m),
    m in [-0.25, -0.009], from a mesh box (1e-3 x 4e-4) down to
    1e-7 x 4e-8, each with three interior points inside the region."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        scale = 10.0 ** rng.uniform(-4.0, 0.0)
        hM, hm = 1e-3 * scale, 4e-4 * scale
        m0 = rng.uniform(-0.25, -0.009 - hm)
        M0 = rng.uniform(-m0 - hM, A(pt(m0), A_STAR).lo)
        points = []
        for _ in range(50):
            M = rng.uniform(M0, M0 + hM)
            m = rng.uniform(m0, m0 + hm)
            if -m <= M <= A(pt(m), A_STAR).lo:
                points.append((M, m))
                if len(points) == 3:
                    out.append((Interval(M0, M0 + hM),
                                Interval(m0, m0 + hm), points))
                    break
    return out


def test_dL_box_contains_quadrature_central_differences():
    h = mpmath.mpf("1e-12")
    for Mb, mb, points in _region_boxes(200, 20261021):
        enc = dL_dm(P(A_STAR, Mb, mb))
        for M, m in points:
            fd = (_quad_L(A_STAR, M, mpmath.mpf(m) + h)
                  - _quad_L(A_STAR, M, mpmath.mpf(m) - h)) / (2 * h)
            # The difference quotient is accurate to about 1e-24.
            assert enc.lo - 1e-20 <= fd <= enc.hi + 1e-20, (Mb, mb, M, m)


def test_L_jet_values_reproduce_L():
    # L's one closed form, run in Jet arithmetic, has L's own values.
    rng = random.Random(29)
    for M, m in _admissible_pairs(100, 31, m_lo=-0.6):
        w = rng.choice([0.0, 1e-9, 1e-5, 1e-3])
        p = P(A_STAR, Interval(M, M + w), Interval(m - w, m))
        _, jets = _L_jets(p)
        assert hull(*(j.v for j in jets)) == L(p), (M, m, w)


# -- curvature bound D ---------------------------------------------------


def _grid_max_D(a, M, m, n=100_000):
    """Dense float-grid maximum of the defining rational composition."""
    rM, rm = a * M / (1 + M), a * m / (1 + m)
    ap = (1 + M - rM / (2 * rm)) / a
    bp = (1 + M + rM / (2 * rm)) / a
    bm = m * (1 + M) / (a * M) + 0.5 / a
    am = m * (1 + M) / (a * M) - 0.5 / a

    def z(s):
        return np.where(
            s <= ap, M,
            np.where(s <= bp, M + 0.5 * rm * a * (s - ap) ** 2,
                     np.where(s <= bm, rM * s,
                              np.where(s <= am,
                                       m + 0.5 * rM * a * (s - am) ** 2,
                                       m))))

    s = np.linspace(0.0, 1.0, n)
    vals = a * a * z(s - 1) / ((1 + z(s)) ** 2 * (1 + z(s - 1)))
    return float(np.max(vals))


def test_D_dense_grid_inside_bounds_100_pairs():
    for M, m in _d_admissible_pairs(100, 5):
        pair = d_pair(P(A_STAR, pt(M), pt(m)))
        lo, hi = pair.lower, pair.upper
        grid = _grid_max_D(A_STAR, M, m)
        assert lo - 1e-6 <= grid <= hi + 1e-12, (M, m)
        assert lo <= hi


def test_D_upper_without_certified_roots_stays_above_grid(monkeypatch):
    """When root isolation fails, the whole search window stands in for
    the rising arc's critical points: looser, still above the maximum."""
    forced = []

    def fail(coeffs, search):
        forced.append(search)
        raise CertificationError("forced")

    for M, m in _d_admissible_pairs(8, 7):
        p = P(A_STAR, pt(M), pt(m))
        certified = d_enclosure(p, "upper")
        monkeypatch.setattr(bounds, "verified_real_roots", fail)
        fallback = d_enclosure(p, "upper")
        monkeypatch.undo()
        assert _grid_max_D(A_STAR, M, m) <= fallback + 1e-12, (M, m)
        assert certified <= fallback, (M, m)
    assert len(forced) == 8


def _d_every_cell(p, mode):
    """Reference for d_enclosure: the same candidates and grid, with
    frazeta evaluated on every cell of the grid."""
    upper = mode == "upper"
    n_arc, n_tail = (32, 10) if upper else (4, 4)
    b = envelope(p, "combined")
    bk = b.breakpoints
    ia2 = pt(p.a).sqr()
    vals = []

    def consider(s):
        c = s.intersect(Interval(0.0, 1.0))
        if c is not None:
            zm1 = z_eval(b, c - 1.0)
            v = ia2 * zm1 / ((1.0 + z_eval(b, c)).sqr() * (1.0 + zm1))
            vals.append(v.hi if upper else v.lo)

    consider(imax(bk.alpha_plus, pt(-1.0)) + 1.0)
    consider(bk.beta_minus)
    if upper:
        consider(bk.beta_plus + 1.0)
    for s in _arc_critical_points(p, bk, upper):
        consider(s)
    am1 = bk.beta_plus + 1.0
    top = min(bk.alpha_minus.hi, 1.0)
    if am1.mid() <= bk.beta_minus.mid():
        segments = [(am1.lo, bk.beta_minus.hi, n_arc),
                    (bk.beta_minus.lo, top, n_tail)]
    else:
        segments = [(bk.beta_minus.lo, am1.hi, n_arc),
                    (am1.lo, top, n_tail)]
    for lo, hi, n in segments:
        if hi > lo:
            step = (hi - lo) / n
            for j in range(n):
                consider(Interval(lo + j * step, hi if j == n - 1
                                  else lo + (j + 1) * step))
    if upper:
        bracket = ia2 * p.M / ((1.0 + p.m).sqr() * (1.0 + p.M))
        return min(max(vals), bracket.hi)
    return max(vals)


def _rung_pairs(Ms, n=6):
    """The (M, m) pairs at which theta_n(m_k(M)) evaluates D's upper
    bound: m = m_k(M), M the iterates of theta_n from A(m)."""
    out = []
    for M in Ms:
        m = m_k(M)
        cur = A(pt(m), A_STAR).hi
        for _ in range(n):
            out.append((cur, m))
            cur = sigma_enclosure(P(A_STAR, pt(cur), pt(m)), "upper")
    return out


def test_D_equals_every_cell_reference():
    """Skipping cells by branch and bound returns the very float that
    evaluating every cell does, on seeded pairs and on staircase rungs
    (its start, dense middle and exit)."""
    pairs = _d_admissible_pairs(150, 21)
    pairs += _rung_pairs([0.377, 0.2, 0.0121, 0.00942])
    for M, m in pairs:
        p = P(A_STAR, pt(M), pt(m))
        for mode in ("upper", "lower"):
            assert d_enclosure(p, mode) == _d_every_cell(p, mode), \
                (M, m, mode)


@pytest.mark.parametrize("M, m", [(0.0097, -0.0095), (0.27, -0.2343)])
def test_D_upper_skips_most_cells(monkeypatch, M, m):
    """An upper bound costs at most half of the 46 frazeta evaluations
    (two z_eval calls each) that a visit of every cell makes."""
    calls = []

    def counting(b, s):
        calls.append(s)
        return z_eval(b, s)

    monkeypatch.setattr(bounds, "z_eval", counting)
    d_enclosure(P(A_STAR, pt(M), pt(m)), "upper")
    assert 0 < len(calls) <= 46


def test_D_analytic_bracket():
    a2 = A_STAR * A_STAR
    for M, m in _d_admissible_pairs(50, 6):
        pair = d_pair(P(A_STAR, pt(M), pt(m)))
        lo, hi = pair.lower, pair.upper
        assert lo >= a2 * M / (1 + M) - 1e-12
        assert hi <= a2 * M / ((1 + m) ** 2 * (1 + M)) + 1e-12


def test_D_small_amplitude_asymptotics():
    pair = d_pair(P(A_STAR, pt(1e-4), pt(-1e-4)))
    lo, hi = pair.lower, pair.upper
    a2 = A_STAR * A_STAR
    assert 0.97 * a2 <= lo / 1e-4 <= hi / 1e-4 <= 1.03 * a2


def test_D_reference_point():
    pair = d_pair(P(A_STAR, pt(0.0094), pt(-0.009)))
    lo, hi = pair.lower, pair.upper
    assert 0.0221 < lo <= hi < 0.0226
    assert hi - lo < 1e-6


def test_D_inadmissible_raises():
    with pytest.raises(AdmissibilityError):
        d_enclosure(P(A_STAR, pt(0.3), pt(-0.01)), "lower")


# -- Sigma ---------------------------------------------------------------


def _sigma_thresholds(m):
    """Za above t1: all three tilde knots right of -1 (first branch);
    between t0 and t1: alpha_tilde below -1 (second branch); below t0
    the closed form's own precondition beta_tilde < 0 fails."""
    neg_rm = -m / (1 + m)
    t0 = 0.5 * neg_rm / (1 + m)
    t1 = 0.5 * neg_rm / (-A_STAR - 1 - m)
    return t0, t1


def test_sigma_closed_form_branch1_against_quadrature():
    rng = random.Random(9)
    for _ in range(100):
        m = rng.uniform(-0.25, -0.02)
        _, t1 = _sigma_thresholds(m)
        Za = rng.uniform(1.02 * t1, max(1.1 * t1, 1.0))
        enc = sigma_closed_form(pt(m), pt(Za), A_STAR)
        oracle = float(_quad_sigma(A_STAR, m, Za))
        assert enc.lo - 1e-11 <= oracle <= enc.hi + 1e-11, (m, Za)


def test_sigma_closed_form_branch2_against_quadrature():
    # Synthetic curvature pushing alpha_tilde below -1 (not reached from
    # the certified D enclosure, but the formula must still be right).
    # The second branch's window (t0, t1) is nonempty only for
    # m > (-a-2)/2, roughly -0.229.
    rng = random.Random(29)
    for _ in range(50):
        m = rng.uniform(-0.22, -0.05)
        t0, t1 = _sigma_thresholds(m)
        Za = rng.uniform(t0 + 0.02 * (t1 - t0), t1 - 0.02 * (t1 - t0))
        enc = sigma_closed_form(pt(m), pt(Za), A_STAR)
        oracle = float(_quad_sigma(A_STAR, m, Za))
        assert enc.lo - 1e-11 <= oracle <= enc.hi + 1e-11, (m, Za)


def test_sigma_closed_form_increasing_in_Za():
    rng = random.Random(10)
    for _ in range(50):
        m = rng.uniform(-0.25, -0.02)
        t0, _ = _sigma_thresholds(m)
        z1 = rng.uniform(1.05 * t0, 1.0)
        z2 = rng.uniform(z1, 1.2)
        v1 = sigma_closed_form(pt(m), pt(z1), A_STAR)
        v2 = sigma_closed_form(pt(m), pt(z2), A_STAR)
        assert v1.lo <= v2.hi + 1e-14


def test_sigma_enclosure_brackets_midpoint_quadrature():
    for M, m in _d_admissible_pairs(40, 12):
        p = P(A_STAR, pt(M), pt(m))
        lo = sigma_enclosure(p, "lower")
        hi = sigma_enclosure(p, "upper")
        dp = d_pair(p)
        d_lo, d_hi = dp.lower, dp.upper
        z_mid = 0.5 * (d_lo + d_hi) / A_STAR ** 2
        oracle = float(_quad_sigma(A_STAR, m, z_mid))
        assert lo - 1e-10 <= oracle <= hi + 1e-10, (M, m)
        assert lo <= hi


def test_sigma_fixed_point_spot():
    p = P(A_STAR, pt(0.27), pt(-0.2343))
    lo = sigma_enclosure(p, "lower")
    hi = sigma_enclosure(p, "upper")
    assert lo > 0.27
    assert 0.29 <= lo <= hi <= 0.31


def test_sigma_increasing_in_M_decreasing_in_m():
    rng = random.Random(13)
    for _ in range(50):
        m = rng.uniform(-0.2, -0.05)
        top = 0.9 * min(A(pt(m), A_STAR).lo, -m / (0.5 + m))
        if top <= -m:
            continue
        M1 = rng.uniform(-m, top)
        M2 = rng.uniform(M1, top)
        s1 = sigma_enclosure(P(A_STAR, pt(M1), pt(m)), "upper")
        s2 = sigma_enclosure(P(A_STAR, pt(M2), pt(m)), "lower")
        assert s2 >= s1 - 1e-9
        m2 = rng.uniform(-0.2, m)
        try:
            s3 = sigma_enclosure(P(A_STAR, pt(M1), pt(m2)), "lower")
        except AdmissibilityError:
            continue
        assert s3 >= s1 - 1e-9


def test_beta_tilde_negative_on_domain():
    for M, m in _d_admissible_pairs(30, 14):
        p = P(A_STAR, pt(M), pt(m))
        d_lo = d_pair(p).lower
        tilde = envelope_tilde(p, pt(d_lo))
        assert tilde.beta_tilde.hi < 0.0

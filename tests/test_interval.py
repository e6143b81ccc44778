"""Interval kernel: containment, width control, root certification."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightbound.interval import (
    CertificationError,
    DomainError,
    EmptyIntervalError,
    Interval,
    hull,
    poly_eval,
    verified_real_roots,
)

mpmath.mp.dps = 50

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


def ivs(min_value=-1e12, max_value=1e12):
    base = st.floats(allow_nan=False, allow_infinity=False,
                     min_value=min_value, max_value=max_value)
    return st.tuples(base, base).map(lambda t: Interval(min(t), max(t)))


def test_constructor_validation():
    with pytest.raises(EmptyIntervalError):
        Interval(2.0, 1.0)
    with pytest.raises(EmptyIntervalError):
        Interval(math.nan, 1.0)
    with pytest.raises(EmptyIntervalError):
        Interval(0.0, math.inf)
    v = Interval(1.5)
    assert v.lo == v.hi == 1.5


def test_point_queries():
    v = Interval(1.0, 3.0)
    assert v.mid() == 2.0
    assert v.contains(1.0) and v.contains(3.0) and not v.contains(3.1)
    a, b = v.split()
    assert a.hi == b.lo == 2.0
    assert hull(a, b) == v


@given(ivs(), ivs())
def test_add_containment_exact(x, y):
    # Fraction oracle: exact endpoint sums must lie inside the result.
    z = x + y
    assert Fraction(z.lo) <= Fraction(x.lo) + Fraction(y.lo)
    assert Fraction(x.hi) + Fraction(y.hi) <= Fraction(z.hi)


@given(ivs(), ivs())
def test_mul_containment_exact(x, y):
    z = x * y
    prods = [Fraction(a) * Fraction(b)
             for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    assert Fraction(z.lo) <= min(prods)
    assert max(prods) <= Fraction(z.hi)


@given(ivs(), ivs(min_value=1e-6, max_value=1e12))
def test_div_containment_exact(x, y):
    z = x / y
    quots = [Fraction(a) / Fraction(b)
             for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    assert Fraction(z.lo) <= min(quots)
    assert max(quots) <= Fraction(z.hi)


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


@given(ivs(min_value=-50, max_value=50), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_inclusion_monotonicity(x, t0, t1):
    # A subinterval's image must land inside the containing image.
    lo = min(max(x.lo + t0 * (x.mid() - x.lo), x.lo), x.hi)
    hi = min(max(x.mid() + t1 * (x.hi - x.mid()), lo), x.hi)
    sub = Interval(lo, hi)
    y = Interval(0.5, 2.0)
    assert (x + y).encloses(sub + y)
    assert (x * y).encloses(sub * y)
    assert (x - y).encloses(sub - y)
    assert x.sqr().encloses(sub.sqr())
    assert x.atan().encloses(sub.atan())


def _mp_contained(v, fn, x):
    exact = fn(mpmath.mpf(x))
    return mpmath.mpf(v.lo) <= exact <= mpmath.mpf(v.hi)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_ln_containment(x):
    assert _mp_contained(Interval.point(x).ln(), mpmath.log, x)


@given(st.floats(min_value=-0.999999, max_value=1e12))
def test_ln1p_containment(x):
    v = Interval.point(x).ln1p()
    exact = mpmath.log1p(mpmath.mpf(x))
    assert mpmath.mpf(v.lo) <= exact <= mpmath.mpf(v.hi)


@given(st.floats(min_value=0, max_value=1e300))
def test_sqrt_containment(x):
    assert _mp_contained(Interval.point(x).sqrt(), mpmath.sqrt, x)


@given(finite)
def test_atan_containment(x):
    assert _mp_contained(Interval.point(x).atan(), mpmath.atan, x)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_point_width_under_4ulp(x):
    # Elementary functions on point inputs stay within 4 ulp total width.
    for v in (Interval.point(x).ln() if x != 1.0 else None,
              Interval.point(x).sqrt(),
              Interval.point(x).atan()):
        if v is None:
            continue
        ref = max(abs(v.lo), abs(v.hi), 1e-300)
        assert v.hi - v.lo <= 4 * math.ulp(ref) + 1e-320


def test_sqr_tight_through_zero():
    v = Interval(-2.0, 3.0).sqr()
    assert v.lo == 0.0
    assert v.hi >= 9.0
    assert v.hi <= 9.0 + 4 * math.ulp(9.0)


def test_abs():
    assert Interval(-3.0, -1.0).abs() == Interval(1.0, 3.0)
    assert Interval(-1.0, 2.0).abs() == Interval(0.0, 2.0)
    assert Interval(1.0, 2.0).abs() == Interval(1.0, 2.0)


def test_scalar_mixing():
    v = Interval(1.0, 2.0)
    assert (1 + v).contains(2.5)
    assert (2 * v).contains(3.0)
    assert (1 - v).contains(-0.5)
    assert (1 / v).contains(0.75)


# -- root isolation ------------------------------------------------------


def test_roots_known_cubic():
    # 24u^3 + 25u^2 - 1 = (u + 1)(24u^2 + u - 1)
    roots = verified_real_roots([24.0, 25.0, 0.0, -1.0], Interval(-2.0, 1.0))
    assert len(roots) == 3
    expect = [-1.0, (-1 - math.sqrt(97)) / 48, (-1 + math.sqrt(97)) / 48]
    expect.sort()
    for r, e in zip(roots, expect):
        assert isinstance(r, Interval)
        assert abs(r.mid() - e) < 1e-12


def test_roots_search_window():
    roots = verified_real_roots([24.0, 25.0, 0.0, -1.0],
                                Interval(-1.1, -0.9))
    assert len(roots) == 1
    assert roots[0].contains(-1.0)


def test_roots_random_integer_quartics():
    rng = random.Random(20260824)
    for _ in range(50):
        rs = rng.sample(range(-8, 9), 4)
        # Expand prod (x - r_i) with exact integer arithmetic.
        cs = [1]
        for r in rs:
            cs = [a - r * b for a, b in zip(cs + [0], [0] + cs)]
        found = verified_real_roots([float(c) for c in cs],
                                    Interval(-10.0, 10.0))
        assert len(found) == len(set(rs))
        for r in sorted(set(rs)):
            assert any(f.contains(float(r)) for f in found)


def test_roots_on_the_window_edges():
    # (x + 2)(x - 1)(x - 3): roots on both edges of [1, 3], and on the
    # lower edge of [-2, 0.5].
    cs = [1.0, -2.0, -5.0, 6.0]
    found = verified_real_roots(cs, Interval(1.0, 3.0))
    assert len(found) == 2
    assert found[0].contains(1.0) and found[1].contains(3.0)
    found = verified_real_roots(cs, Interval(-2.0, 0.5))
    assert len(found) == 1 and found[0].contains(-2.0)


def test_roots_on_split_points_counted_once():
    # Bisecting [-10, 10] splits at 0, then +-5, then +-2.5: every root of
    # x (x + 5)(x - 5)(x - 2.5) lies on a split point.
    cs = [1.0, -2.5, -25.0, 62.5, 0.0]
    found = verified_real_roots(cs, Interval(-10.0, 10.0))
    assert len(found) == 4
    for f, r in zip(found, (-5.0, 0.0, 2.5, 5.0)):
        assert f.contains(r) and f.width() < 1e-12
    assert all(a.hi < b.lo
               for a, b in zip(found, found[1:]))


def test_roots_beside_a_near_double_complex_pair():
    # Roots 3 +- 3.6e-7i: the exact local maximum near 3 is about
    # -5.2e-14, within Horner's rounding of zero at the nearby split
    # points, where the sign now comes from exact rational arithmetic.
    cs = [1.0, -9.743089373426228, 33.29141711841637, -44.6850896279901,
          16.49592790073109]
    found = verified_real_roots(cs, Interval(-1.0, 4.0))
    mpmath_roots = mpmath.polyroots(cs, maxsteps=200, extraprec=200)
    real = sorted(r for r in mpmath_roots if mpmath.im(r) == 0)
    assert len(found) == len(real) == 2
    for f, r in zip(found, real):
        assert mpmath.mpf(f.lo) <= r <= mpmath.mpf(f.hi)
    assert abs(found[0].mid() - 0.5793378) < 1e-7
    assert abs(found[1].mid() - 3.1637516) < 1e-7


def test_roots_no_real_roots():
    assert verified_real_roots([1.0, 0.0, 1.0], Interval(-5.0, 5.0)) == []


def test_roots_double_root_raises():
    # (x - 1)^2 resists simple-root certification.
    with pytest.raises(CertificationError):
        verified_real_roots([1.0, -2.0, 1.0], Interval(0.0, 2.0))


def test_poly_eval_horner():
    v = poly_eval([1.0, -2.0, 1.0], Interval.point(3.0))
    assert v.contains(4.0)
    assert v.width() < 1e-14

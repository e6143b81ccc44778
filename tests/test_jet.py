"""Second-order interval jets against mpmath derivatives.

Each operation is applied to jets of smooth two-variable functions with
nonzero second derivatives, and every component of the result (value,
d/dM, d/dm, d2/dMdm, d2/dm2) must contain the mpmath derivative of the
same composite at seeded points.
"""

import random

import mpmath
import pytest

from wrightbound.interval import DomainError, Interval
from wrightbound.jet import Jet

ORDERS = {"v": (0, 0), "dM": (1, 0), "dm": (0, 1), "dMm": (1, 1),
          "dmm": (0, 2)}


def _u(M, m):
    # Positive for M > 0 and m in [-0.5, 0).
    return M + 2 * m * M + m * m


def _w(M, m):
    return 2 + M * m - m * m


def _jets(M, m):
    jM, jm = Jet.variables(Interval.point(M), Interval.point(m))
    return _u(jM, jm), _w(jM, jm)


OPS = {
    "add": (lambda u, w: u + w, lambda u, w: u + w),
    "sub": (lambda u, w: u - w, lambda u, w: u - w),
    "mul": (lambda u, w: u * w, lambda u, w: u * w),
    "div": (lambda u, w: u / w, lambda u, w: u / w),
    "rdiv": (lambda u, w: w / u, lambda u, w: w / u),
    "scalar": (lambda u, w: 2.5 - u * 1.5 + 3.0 / w - u / 4.0,
               lambda u, w: 2.5 - u * 1.5 + 3.0 / w - u / 4.0),
    "sqr": (lambda u, w: u.sqr(), lambda u, w: u ** 2),
    "sqrt": (lambda u, w: u.sqrt(), lambda u, w: mpmath.sqrt(u)),
    "ln": (lambda u, w: u.ln(), lambda u, w: mpmath.log(u)),
    "ln1p": (lambda u, w: (-u / w).ln1p(), lambda u, w: mpmath.log1p(-u / w)),
    "abs": (lambda u, w: (-u).abs() * w.abs(),
            lambda u, w: abs(-u) * abs(w)),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_jet_op_contains_mpmath_derivatives(op):
    jet_fn, mp_fn = OPS[op]
    rng = random.Random(f"jet-{op}")
    with mpmath.workdps(40):
        for _ in range(20):
            M, m = rng.uniform(0.05, 0.5), rng.uniform(-0.5, -0.05)
            got = jet_fn(*_jets(M, m))

            def f(x, y):
                return mp_fn(_u(x, y), _w(x, y))

            for name, order in ORDERS.items():
                want = mpmath.diff(f, (mpmath.mpf(M), mpmath.mpf(m)), order)
                enc = getattr(got, name)
                assert enc.lo <= want <= enc.hi, (op, name, M, m, enc, want)


def test_jet_over_a_box_contains_pointwise_derivatives():
    rng = random.Random(17)
    box_M, box_m = Interval(0.2, 0.23), Interval(-0.3, -0.28)
    jM, jm = Jet.variables(box_M, box_m)
    got = (_u(jM, jm) / _w(jM, jm)).ln()
    with mpmath.workdps(40):
        for _ in range(20):
            M = rng.uniform(box_M.lo, box_M.hi)
            m = rng.uniform(box_m.lo, box_m.hi)
            for name, order in ORDERS.items():
                want = mpmath.diff(lambda x, y: mpmath.log(_u(x, y) / _w(x, y)),
                                   (mpmath.mpf(M), mpmath.mpf(m)), order)
                enc = getattr(got, name)
                assert enc.lo <= want <= enc.hi, (name, M, m)


def test_jet_abs_needs_a_sign():
    jM, jm = Jet.variables(Interval(-0.1, 0.1), Interval(-0.2, -0.1))
    with pytest.raises(DomainError):
        jM.abs()
    assert (jm.abs().dm.lo, jm.abs().dm.hi) == (-1.0, -1.0)


def test_jet_domain_errors():
    jM, _ = Jet.variables(Interval(-0.1, 0.1), Interval(-0.2, -0.1))
    for op in (lambda x: x.ln(), lambda x: x.sqrt(), lambda x: 1.0 / x):
        with pytest.raises(DomainError):
            op(jM)

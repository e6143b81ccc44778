"""High-precision reference values, computed apart from the program.

Everything here is plain mpmath: the comparison function r, the area
bound A in closed form, the upper envelope z_plus, L as a quadrature of
r(z_plus) over [-1, 0], the five-step recursion behind m_k, and dL/dm
by central differences of that quadrature.  None of it imports
wrightbound, so a check built on it cannot inherit a fault of the
program.
"""

import mpmath

A_STAR = mpmath.mpf(-37) / 24
DPS = 30


def _mpf(x):
    return mpmath.mpf(x)


def r(x, a=A_STAR):
    return a * x / (1 + x)


def A(m, a=A_STAR):
    """Area bound A_a(m) = a m/(1+m) - 1 + (1+m) log(1+m)/m."""
    with mpmath.workdps(DPS):
        m = _mpf(m)
        return a * m / (1 + m) - 1 + (1 + m) * mpmath.log1p(m) / m


def _z_plus(M, m, a):
    """Upper envelope: M, then a downward parabola, then the line r(M) s."""
    t = (M / (1 + M)) / (m / (1 + m)) / 2
    alpha = (1 + M - t) / a
    beta = (1 + M + t) / a
    curv = r(m, a) * a
    rM = r(M, a)

    def z(s):
        if s <= alpha:
            return M
        if s <= beta:
            return M + curv * (s - alpha) ** 2 / 2
        return rM * s

    knots = sorted(k for k in (alpha, beta) if -1 < k < 0)
    return z, [_mpf(-1)] + knots + [_mpf(0)]


def L(M, m, a=A_STAR):
    """L_a(M, m): the integral of r(z_plus) over [-1, 0]."""
    with mpmath.workdps(DPS):
        M, m = _mpf(M), _mpf(m)
        z, knots = _z_plus(M, m, a)
        return mpmath.quad(lambda s: r(z(s), a), knots)


def m_k(M, k=5, a=A_STAR):
    """The exact recursion m_0 = -M, m_{j+1} = L(M, m_j), k steps."""
    with mpmath.workdps(DPS):
        m = -_mpf(M)
        for _ in range(k):
            m = L(M, m, a)
        return m


def dL_dm(M, m, a=A_STAR, h=1e-9):
    """Central difference of the L quadrature in m."""
    with mpmath.workdps(DPS):
        h = _mpf(h)
        return (L(M, _mpf(m) + h, a) - L(M, _mpf(m) - h, a)) / (2 * h)

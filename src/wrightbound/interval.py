"""Directed-rounding interval arithmetic on IEEE binary64 endpoints.

Every operation returns an interval that contains the exact mathematical
result for all inputs drawn from the operand intervals.  Outward rounding
is done in software with math.nextafter: one ulp step per endpoint for
the basic arithmetic operations and for sqrt (which libm rounds
correctly), two ulp steps per endpoint for log, log1p and atan (whose
libm implementations are faithful but not correctly rounded).
"""

import math
from fractions import Fraction


class IntervalError(ValueError):
    """Base class for interval kernel failures."""


class EmptyIntervalError(IntervalError):
    """Raised when endpoints are non-finite or inverted."""


class DomainError(IntervalError):
    """Raised when an operand leaves the domain of an operation."""


class CertificationError(IntervalError):
    """Raised when root isolation cannot be certified."""


_INF = math.inf


def _dn(x):
    """Round a lower endpoint one ulp toward -inf."""
    return math.nextafter(x, -_INF)


def _up(x):
    """Round an upper endpoint one ulp toward +inf."""
    return math.nextafter(x, _INF)


def _dn2(x):
    return math.nextafter(math.nextafter(x, -_INF), -_INF)


def _up2(x):
    return math.nextafter(math.nextafter(x, _INF), _INF)


class Interval:
    """Closed interval [lo, hi] with finite binary64 endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise EmptyIntervalError(f"invalid endpoints [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x):
        return cls(x, x)

    # -- queries ---------------------------------------------------------

    def mid(self):
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def width(self):
        return _up(self.hi - self.lo)

    def contains(self, x):
        return self.lo <= x <= self.hi

    def encloses(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def interior_contains(self, other):
        return self.lo < other.lo and other.hi < self.hi

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def split(self):
        m = self.mid()
        return Interval(self.lo, m), Interval(m, self.hi)

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        r = Interval.__new__(Interval)
        r.lo = -self.hi
        r.hi = -self.lo
        return r

    def __add__(self, other):
        r = Interval.__new__(Interval)
        if isinstance(other, Interval):
            r.lo = _dn(self.lo + other.lo)
            r.hi = _up(self.hi + other.hi)
        else:
            other = float(other)
            r.lo = _dn(self.lo + other)
            r.hi = _up(self.hi + other)
        return r

    __radd__ = __add__

    def __sub__(self, other):
        r = Interval.__new__(Interval)
        if isinstance(other, Interval):
            r.lo = _dn(self.lo - other.hi)
            r.hi = _up(self.hi - other.lo)
        else:
            other = float(other)
            r.lo = _dn(self.lo - other)
            r.hi = _up(self.hi - other)
        return r

    def __rsub__(self, other):
        other = float(other)
        r = Interval.__new__(Interval)
        r.lo = _dn(other - self.hi)
        r.hi = _up(other - self.lo)
        return r

    def __mul__(self, other):
        r = Interval.__new__(Interval)
        if isinstance(other, Interval):
            a = self.lo * other.lo
            b = self.lo * other.hi
            c = self.hi * other.lo
            d = self.hi * other.hi
            r.lo = _dn(min(a, b, c, d))
            r.hi = _up(max(a, b, c, d))
        else:
            other = float(other)
            a = self.lo * other
            b = self.hi * other
            if a <= b:
                r.lo = _dn(a)
                r.hi = _up(b)
            else:
                r.lo = _dn(b)
                r.hi = _up(a)
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(float(other))
        if other.lo <= 0.0 <= other.hi:
            raise DomainError(f"division by {other!r} containing zero")
        a = self.lo / other.lo
        b = self.lo / other.hi
        c = self.hi / other.lo
        d = self.hi / other.hi
        r = Interval.__new__(Interval)
        r.lo = _dn(min(a, b, c, d))
        r.hi = _up(max(a, b, c, d))
        return r

    def __rtruediv__(self, other):
        return Interval.point(float(other)).__truediv__(self)

    # -- elementary functions -------------------------------------------

    def sqr(self):
        """Tight enclosure of x**2 (no dependency blow-up at zero)."""
        a = self.lo * self.lo
        b = self.hi * self.hi
        r = Interval.__new__(Interval)
        if self.lo <= 0.0 <= self.hi:
            r.lo = 0.0
            r.hi = _up(max(a, b))
        else:
            # Squares are nonnegative, so clamping at zero stays sound
            # even when the rounded-down product underflows below it.
            r.lo = max(_dn(min(a, b)), 0.0)
            r.hi = _up(max(a, b))
        return r

    def abs(self):
        if self.lo >= 0.0:
            return self
        r = Interval.__new__(Interval)
        if self.hi <= 0.0:
            r.lo = -self.hi
            r.hi = -self.lo
        else:
            r.lo = 0.0
            r.hi = max(-self.lo, self.hi)
        return r

    __abs__ = abs

    def sqrt(self):
        if self.lo < 0.0:
            raise DomainError(f"sqrt of {self!r}")
        r = Interval.__new__(Interval)
        r.lo = max(0.0, _dn(math.sqrt(self.lo)))
        r.hi = _up(math.sqrt(self.hi))
        return r

    def ln(self):
        if self.lo <= 0.0:
            raise DomainError(f"log of {self!r}")
        r = Interval.__new__(Interval)
        r.lo = _dn2(math.log(self.lo))
        r.hi = _up2(math.log(self.hi))
        return r

    def ln1p(self):
        """Enclosure of log(1 + x), accurate for x near zero."""
        if self.lo <= -1.0:
            raise DomainError(f"log1p of {self!r}")
        r = Interval.__new__(Interval)
        r.lo = _dn2(math.log1p(self.lo))
        r.hi = _up2(math.log1p(self.hi))
        return r

    def atan(self):
        r = Interval.__new__(Interval)
        r.lo = _dn2(math.atan(self.lo))
        r.hi = _up2(math.atan(self.hi))
        return r


def hull(*intervals):
    """Smallest interval containing every argument."""
    if not intervals:
        raise EmptyIntervalError("hull of nothing")
    lo = min(v.lo for v in intervals)
    hi = max(v.hi for v in intervals)
    r = Interval.__new__(Interval)
    r.lo = lo
    r.hi = hi
    return r


def imax(a, b):
    r = Interval.__new__(Interval)
    r.lo = max(a.lo, b.lo)
    r.hi = max(a.hi, b.hi)
    return r


# -- verified polynomial root isolation ---------------------------------


def poly_eval(coeffs, x):
    """Interval Horner evaluation; coeffs are highest degree first."""
    acc = Interval.point(float(coeffs[0]))
    for c in coeffs[1:]:
        acc = acc * x + float(c)
    return acc


def poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [float(c) * (n - i) for i, c in enumerate(coeffs[:-1])]


# Interval Newton steps taken on one candidate box.
_NEWTON_STEPS = 60


def _newton_certify(coeffs, deriv, box):
    """Try to prove box holds exactly one simple root, then tighten it.

    Returns the tightened interval, or None if the interval Newton
    operator never contracts into the interior of the candidate box.
    """
    certified = False
    for _ in range(_NEWTON_STEPS):
        m = box.mid()
        fm = poly_eval(coeffs, Interval.point(m))
        df = poly_eval(deriv, box)
        if df.lo <= 0.0 <= df.hi:
            return box if certified else None
        step = Interval(m, m) - fm / df
        if not certified:
            if box.interior_contains(step):
                certified = True
            else:
                return None
        nxt = step.intersect(box)
        if nxt is None or nxt.width() >= box.width():
            return box
        box = nxt
    return box if certified else None


# A piece that still needs splitting at this depth, 2**-60 of its
# window, is taken to hold a multiple or clustered root.
_MAX_DEPTH = 60


def _signed(v):
    return v.lo > 0.0 or v.hi < 0.0


def _value_at(coeffs, x):
    """Enclosure of p(x) at a float x, signed unless p(x) is 0 or subnormal.

    Where interval Horner straddles zero, p(x) is evaluated exactly in
    rationals (coeffs and x are binary64, so exactly representable), and
    its nearest float is widened by one ulp each way.
    """
    v = poly_eval(coeffs, Interval.point(x))
    if _signed(v):
        return v
    exact = Fraction(0)
    for c in coeffs:
        exact = exact * Fraction(x) + Fraction(c)
    f = float(exact)
    return Interval(_dn(f), _up(f))


def _float_root(coeffs, lo, hi, rising):
    """Plain-float bisection to the one root of a polynomial that rises
    (or falls) across [lo, hi]."""
    x = 0.5 * (lo + hi)
    while lo < x < hi:
        f = 0.0
        for c in coeffs:
            f = f * x + c
        if (f < 0.0) == rising:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    return x


def verified_real_roots(coeffs, search):
    """Isolate every real root of a polynomial inside search.

    coeffs lists binary64 coefficients from highest degree to constant
    (degree at most 4).  Returns one Interval per root, each holding
    exactly one simple root, sorted by position; no root in search is
    missed.  The window is bisected.  A piece is dropped when its
    interval value excludes zero.  A piece on which p' excludes zero
    holds at most one root, and holds none if p has one strict sign at
    both its ends; otherwise interval Newton certifies a box around a
    float seed.  The value of p at a piece's ends and centre takes its
    sign from exact rational arithmetic where Horner's form cannot
    decide it, so a polynomial that only comes within rounding of zero
    is not mistaken for one with a root there.  Raises
    CertificationError when a piece still needs splitting at depth
    _MAX_DEPTH, or a seed resists certification (a multiple or
    clustered root).

    Each enclosure is the Newton box clipped to search.  The Newton test
    runs on the unclipped box, since a root on an edge of search is
    never interior to a box clipped there; so when the box straddles an
    edge, its root may lie just outside search.
    """
    cs = [float(c) for c in coeffs]
    while cs and cs[0] == 0.0:
        cs = cs[1:]
    if len(cs) > 5:
        raise ValueError("degree above 4 is not supported")
    if len(cs) <= 1:
        return []
    deriv = poly_deriv(cs)
    scale = max(abs(search.lo), abs(search.hi), 1.0)
    boxes = []

    def known(piece):
        # p' has no zero on a monotone piece nor on the Newton candidate
        # of a certified box.  When the two meet, p is strictly monotone
        # on their union, so the box's root is the only root of both: a
        # root is counted once even when it sits on a split point.
        return any(piece.lo <= b.hi and b.lo <= piece.hi for b in boxes)

    stack = [(search, 0)]
    while stack:
        piece, depth = stack.pop()
        if _signed(poly_eval(cs, piece)):
            continue
        d = poly_eval(deriv, piece)
        if _signed(d):
            ends = hull(_value_at(cs, piece.lo), _value_at(cs, piece.hi))
            if known(piece) or _signed(ends):
                continue
            # x lies in the piece and in the Newton candidate, so as in
            # known() the box's root is the only root the piece can hold.
            x = _float_root(cs, piece.lo, piece.hi, d.lo > 0.0)
            h = max(1e-13, 1e-12 * abs(x))
            while (box := _newton_certify(
                    cs, deriv, Interval(x - h, x + h))) is None:
                h *= 8.0
                if h > 2.0 * scale:
                    raise CertificationError(
                        f"could not certify a root near {x!r} of {cs!r}")
            if not known(box):
                boxes.append(box)
            continue
        # The mean-value form p(c) + p'(piece) (piece - c) is tight near a
        # critical point, where Horner's form is not: without it, pieces
        # around a cluster of roots multiply into the thousands.
        c = piece.mid()
        if _signed(_value_at(cs, c) + d * (piece - c)):
            continue
        left, right = piece.split()
        if depth >= _MAX_DEPTH or left.hi in (piece.lo, piece.hi):
            raise CertificationError(
                f"root of {cs!r} near {piece!r} is not simple")
        stack.append((right, depth + 1))
        stack.append((left, depth + 1))

    clipped = (b.intersect(search) for b in sorted(boxes, key=lambda b: b.lo))
    return [c for c in clipped if c is not None]

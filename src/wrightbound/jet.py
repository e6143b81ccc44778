"""Second-order interval jets in the two variables (M, m).

A Jet holds enclosures of a function's value and of its partial
derivatives d/dM, d/dm, d2/dMdm and d2/dm2 over a box.  Operations
combine their operands' components by the sum, product and quotient
rules and the chain rule (forward differentiation in the manner of
Rall), in outward-rounded interval arithmetic.  So each component
encloses the true one at every point of the box, provided every
operation is defined and smooth on the whole box; where one is not
(a logarithm or a quotient whose argument may reach zero, an absolute
value whose argument may change sign) the operation raises DomainError.

d2/dM2 is not carried: the centred form of d/dm needs only the
gradient of d/dm, that is d2/dMdm and d2/dm2.
"""

from .interval import DomainError, Interval

_ZERO = Interval.point(0.0)
_ONE = Interval.point(1.0)
_TWO = Interval.point(2.0)


class Jet:
    """Value, d/dM, d/dm, d2/dMdm and d2/dm2, each an Interval."""

    __slots__ = ("v", "dM", "dm", "dMm", "dmm")

    def __init__(self, v, dM, dm, dMm, dmm):
        self.v = v
        self.dM = dM
        self.dm = dm
        self.dMm = dMm
        self.dmm = dmm

    @classmethod
    def variables(cls, M, m):
        """The jets of the coordinate functions M and m over the box."""
        return (cls(M, _ONE, _ZERO, _ZERO, _ZERO),
                cls(m, _ZERO, _ONE, _ZERO, _ZERO))

    # Branch tests read the value's endpoints, as they would an Interval's.
    @property
    def lo(self):
        return self.v.lo

    @property
    def hi(self):
        return self.v.hi

    def __repr__(self):
        return (f"Jet({self.v!r}, dM={self.dM!r}, dm={self.dm!r}, "
                f"dMm={self.dMm!r}, dmm={self.dmm!r})")

    # -- arithmetic ------------------------------------------------------

    def __neg__(self):
        return Jet(-self.v, -self.dM, -self.dm, -self.dMm, -self.dmm)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.dM + other.dM,
                       self.dm + other.dm, self.dMm + other.dMm,
                       self.dmm + other.dmm)
        return Jet(self.v + other, self.dM, self.dm, self.dMm, self.dmm)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v - other.v, self.dM - other.dM,
                       self.dm - other.dm, self.dMm - other.dMm,
                       self.dmm - other.dmm)
        return Jet(self.v - other, self.dM, self.dm, self.dMm, self.dmm)

    def __rsub__(self, other):
        return Jet(other - self.v, -self.dM, -self.dm, -self.dMm, -self.dmm)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.dM * other, self.dm * other,
                       self.dMm * other, self.dmm * other)
        f, g = self, other
        return Jet(f.v * g.v,
                   f.dM * g.v + f.v * g.dM,
                   f.dm * g.v + f.v * g.dm,
                   f.dMm * g.v + f.dM * g.dm + f.dm * g.dM + f.v * g.dMm,
                   f.dmm * g.v + 2.0 * (f.dm * g.dm) + f.v * g.dmm)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v / other, self.dM / other, self.dm / other,
                       self.dMm / other, self.dmm / other)
        # q = f/g solves q*g = f; differentiate and solve for each
        # component of q in turn.
        f, g = self, other
        q = f.v / g.v
        qM = (f.dM - q * g.dM) / g.v
        qm = (f.dm - q * g.dm) / g.v
        return Jet(q, qM, qm,
                   (f.dMm - qM * g.dm - qm * g.dM - q * g.dMm) / g.v,
                   (f.dmm - 2.0 * (qm * g.dm) - q * g.dmm) / g.v)

    def __rtruediv__(self, other):
        c = Interval.point(float(other))
        return Jet(c, _ZERO, _ZERO, _ZERO, _ZERO) / self

    # -- elementary functions -------------------------------------------

    def chain(self, f, d1, d2):
        """phi(self), given enclosures f, d1 and d2 of phi, phi' and
        phi'' over the range of self's value."""
        return Jet(f, d1 * self.dM, d1 * self.dm,
                   d2 * (self.dM * self.dm) + d1 * self.dMm,
                   d2 * self.dm.sqr() + d1 * self.dmm)

    def sqr(self):
        return self.chain(self.v.sqr(), 2.0 * self.v, _TWO)

    def sqrt(self):
        s = self.v.sqrt()
        d1 = 0.5 / s
        return self.chain(s, d1, -0.5 * d1 / self.v)

    def ln(self):
        f = self.v.ln()
        d1 = 1.0 / self.v
        return self.chain(f, d1, -d1.sqr())

    def ln1p(self):
        f = self.v.ln1p()
        d1 = 1.0 / (1.0 + self.v)
        return self.chain(f, d1, -d1.sqr())

    def abs(self):
        """|x| where x keeps one sign on the box; it is not
        differentiable where x may be zero."""
        if self.v.lo > 0.0:
            return self
        if self.v.hi < 0.0:
            return -self
        raise DomainError(f"abs of a jet whose value {self.v!r} may "
                          "change sign")

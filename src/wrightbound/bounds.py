"""Closed-form bounding functions for the delayed feedback equation.

Everything here is built from the comparison function r(x) = a*x/(1+x)
with slope a < 0: the area bound A, the envelope breakpoints, the
piecewise envelopes z_plus / z_minus / z / z_tilde, the integral bound
L(M, m) with its partial derivative in m, and lower/upper enclosures of
the curvature maximum D (equivalently Z = D/a^2) and of the refined
integral bound Sigma.  All evaluations are containment-sound interval
computations; one-sided results state their direction explicitly.
"""

import math
from dataclasses import dataclass, field

from .interval import (
    CertificationError,
    DomainError,
    Interval,
    IntervalError,
    hull,
    imax,
    verified_real_roots,
)
from .jet import Jet

DEFAULT_A = -37.0 / 24.0


class AdmissibilityError(IntervalError):
    """Parameters leave the region where a closed form is valid."""


def _as_interval(x):
    return x if isinstance(x, Interval) else Interval.point(x)


@dataclass(frozen=True)
class BoundParams:
    """Slope a and the candidate extreme values (M, m) of a cycle."""

    a: float
    M: Interval
    m: Interval

    def __post_init__(self):
        object.__setattr__(self, "M", _as_interval(self.M))
        object.__setattr__(self, "m", _as_interval(self.m))
        if not (-2.0 < self.a < 0.0):
            raise AdmissibilityError(f"slope a={self.a!r} outside (-2, 0)")
        if self.M.lo <= 0.0:
            raise AdmissibilityError(f"M={self.M!r} must be positive")
        if self.m.lo <= -1.0 or self.m.hi >= 0.0:
            raise AdmissibilityError(f"m={self.m!r} must lie in (-1, 0)")


@dataclass(frozen=True)
class Breakpoints:
    """Envelope abscissas: alpha_plus < beta_plus < 0 < beta_minus < alpha_minus."""

    alpha_plus: Interval
    beta_plus: Interval
    beta_minus: Interval
    alpha_minus: Interval


@dataclass(frozen=True)
class EnclosurePair:
    """Certified two-sided bracket of a real value."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise IntervalError(
                f"bracket inverted: {self.lower!r} > {self.upper!r}")


def _ratio(x):
    """Tight enclosure of x/(1+x), monotone so endpoints suffice."""
    if x.lo <= -1.0:
        raise DomainError(f"x/(1+x) at {x!r}")
    lo = Interval.point(x.lo)
    hi = Interval.point(x.hi)
    return hull(lo / (1.0 + lo), hi / (1.0 + hi))


def r(x, a):
    """Enclosure of the comparison function a*x/(1+x)."""
    return _ratio(_as_interval(x)) * a


def A(m, a):
    """Area bound A_a(m): the largest admissible M for a given m < 0.

    Strictly decreasing in m, so endpoint evaluation is tight.
    """
    m = _as_interval(m)
    if m.lo <= -1.0 or m.hi >= 0.0:
        raise DomainError(f"A requires -1 < m < 0, got {m!r}")

    def at(t):
        v = Interval.point(t)
        return (v / (1.0 + v)) * a - 1.0 + (1.0 + v) * v.ln1p() / v

    return hull(at(m.lo), at(m.hi))


def _plus_breakpoints(a, M, rM, rm):
    """(alpha_plus, beta_plus) from M and the ratios rM = M/(1+M),
    rm = m/(1+m); M, rM and rm are all Intervals or all Jets."""
    t = 0.5 * (rM / rm)
    alpha_plus = (1.0 + M - t) / a
    beta_plus = (1.0 + M + t) / a
    return alpha_plus, beta_plus


def breakpoints_plus(p):
    """Enclosures of (alpha_plus, beta_plus) for the upper envelope."""
    return _plus_breakpoints(p.a, p.M, _ratio(p.M), _ratio(p.m))


def breakpoints_minus(p):
    """Enclosures of (beta_minus, alpha_minus) for the lower envelope."""
    mr = p.m / r(p.M, p.a)
    half = Interval.point(0.5) / p.a
    beta_minus = mr + half
    alpha_minus = mr - half
    return beta_minus, alpha_minus


def breakpoints(p):
    alpha_plus, beta_plus = breakpoints_plus(p)
    beta_minus, alpha_minus = breakpoints_minus(p)
    return Breakpoints(alpha_plus, beta_plus, beta_minus, alpha_minus)


@dataclass(frozen=True)
class PiecewiseBound:
    """One of the envelopes z_plus, z_minus, z (combined) or z_tilde.

    pieces holds (domain_lo, domain_hi, eval) triples whose domains use
    the outer endpoints of the breakpoint enclosures, so neighbouring
    pieces overlap wherever a breakpoint is uncertain; evaluation hulls
    every piece a point could belong to, which keeps it sound.
    """

    kind: str
    params: BoundParams
    breakpoints: Breakpoints | None
    alpha_tilde: Interval | None
    beta_tilde: Interval | None
    curvature: Interval
    pieces: tuple = field(repr=False)


def envelope(p, kind):
    """Build z_plus ("plus"), z_minus ("minus") or the combined z."""
    b = breakpoints(p)
    rM = r(p.M, p.a)
    rm = r(p.m, p.a)
    c_plus = rm * p.a
    c_minus = rM * p.a
    M, m = p.M, p.m
    ap, bp_ = b.alpha_plus, b.beta_plus
    bm, am = b.beta_minus, b.alpha_minus

    top = lambda s: M
    parab_top = lambda s: M + 0.5 * c_plus * (s - ap).sqr()
    line = lambda s: rM * s
    parab_bot = lambda s: m + 0.5 * c_minus * (s - am).sqr()
    bot = lambda s: m

    inf_ = math.inf
    if kind == "plus":
        pieces = ((-inf_, ap.hi, top), (ap.lo, bp_.hi, parab_top),
                  (bp_.lo, inf_, line))
        curvature = c_plus
    elif kind == "minus":
        pieces = ((-inf_, bm.hi, line), (bm.lo, am.hi, parab_bot),
                  (am.lo, inf_, bot))
        curvature = c_minus
    elif kind == "combined":
        pieces = ((-inf_, ap.hi, top), (ap.lo, bp_.hi, parab_top),
                  (bp_.lo, bm.hi, line), (bm.lo, am.hi, parab_bot),
                  (am.lo, inf_, bot))
        curvature = hull(c_plus, c_minus)
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")
    return PiecewiseBound(kind, p, b, None, None, curvature, pieces)


def envelope_tilde(p, curvature):
    """Build z_tilde from an enclosure of the curvature maximum D."""
    rm_plain = _ratio(p.m)
    Za = curvature / (Interval.point(p.a).sqr())
    t = 0.5 * (rm_plain / Za)
    alpha_tilde = (1.0 + p.m - t) / p.a
    beta_tilde = (1.0 + p.m + t) / p.a
    rm = r(p.m, p.a)
    m, at, bt = p.m, alpha_tilde, beta_tilde
    pieces = ((-math.inf, at.hi, lambda s: m),
              (at.lo, bt.hi, lambda s: m + 0.5 * curvature * (s - at).sqr()),
              (bt.lo, math.inf, lambda s: rm * s))
    return PiecewiseBound("tilde", p, None, alpha_tilde, beta_tilde,
                          curvature, pieces)


def z_eval(b, s):
    """Containment-sound envelope value over the interval s."""
    s = _as_interval(s)
    out = None
    for lo, hi, fn in b.pieces:
        if s.hi < lo or s.lo > hi:
            continue
        clip = Interval(max(s.lo, lo), min(s.hi, hi))
        v = fn(clip)
        out = v if out is None else hull(out, v)
    if out is None:
        raise IntervalError(f"envelope pieces failed to cover {s!r}")
    return out


# -- L and its derivative in m ------------------------------------------


def _require_beta_plus_negative(beta_plus, p):
    if beta_plus.hi >= 0.0:
        raise AdmissibilityError(
            f"beta_plus={beta_plus!r} not negative for {p!r}; "
            "need M <= A(m) or m < -1/9")


def _branches_touched(apl, bpl):
    """Which of L's three closed forms the box may need: alpha_plus >= -1;
    alpha_plus < -1 <= beta_plus; beta_plus < -1.  An uncertain test
    takes both sides."""
    return (apl.hi >= -1.0, apl.lo < -1.0 and bpl.hi >= -1.0,
            bpl.lo < -1.0)


def _L_branches(a, M, rM, rm, apl, bpl, touched):
    """L's closed form on each touched branch, in Interval or in Jet
    arithmetic alike."""
    B = ((1.0 + M) * rm * -2.0).sqrt()
    branches = []
    if touched[0]:
        lg = (M + 0.5 * rM.sqr() / rm).ln1p()
        i13 = a * rM - 1.0 - 0.5 * rM * (1.0 + rM) / rm + lg / rM
        i2 = rM / rm + ((rM + B) / (B - rM)).ln() / B
        branches.append(i13 + i2)
    if touched[1]:
        C = B / (rm * a)
        lg = (M + 0.5 * rM.sqr() / rm).ln1p()
        lin = -1.0 - M - 0.5 * rM / rm + lg / rM
        prod = (((apl + 1.0 - C) / (apl + 1.0 + C)).abs()
                * ((bpl - apl - C) / (bpl - apl + C)).abs())
        branches.append(lin + a * (bpl + 1.0) - prod.ln() / B)
    if touched[2]:
        branches.append(a + (rM * (-a)).ln1p() / rM)
    return branches


def L(p):
    """Enclosure of L_a(M, m), the integral of r(z_plus) over [-1, 0].

    Three closed-form branches keyed on the position of the breakpoints
    relative to -1; an uncertain branch test hulls both sides (sound
    because the integral is continuous across branch boundaries).
    """
    rM = _ratio(p.M)
    rm = _ratio(p.m)
    apl, bpl = _plus_breakpoints(p.a, p.M, rM, rm)
    _require_beta_plus_negative(bpl, p)
    return hull(*_L_branches(p.a, p.M, rM, rm, apl, bpl,
                             _branches_touched(apl, bpl)))


def L_limit_infinite_M(a):
    """Symbolic limit of L_a(M, m) as M grows without bound: a + ln(1-a)."""
    ia = Interval.point(a)
    return ia + (-ia).ln1p()


def _ratio_jet(x):
    """x/(1+x) over a jet: the value by _ratio's endpoint form, with
    derivative 1/(1+x)^2 and second derivative -2/(1+x)^3."""
    d1 = 1.0 / (1.0 + x.v).sqr()
    return x.chain(_ratio(x.v), d1, -2.0 * d1 / (1.0 + x.v))


def _L_jets(p, touched=None):
    """(touched, jets): the jets of L's closed forms over the box p, on
    the branches the box touches unless touched names them."""
    M, m = Jet.variables(p.M, p.m)
    rM = _ratio_jet(M)
    rm = _ratio_jet(m)
    apl, bpl = _plus_breakpoints(p.a, M, rM, rm)
    _require_beta_plus_negative(bpl, p)
    if touched is None:
        touched = _branches_touched(apl, bpl)
    return touched, _L_branches(p.a, M, rM, rm, apl, bpl, touched)


def dL_dm(p):
    """Enclosure of the partial derivative of L_a(M, m) in m.

    It is the d/dm part of the jet of L's closed form, so the derivative
    is derived from L rather than written out.  Over a box the naive
    jet hull is intersected with a centred (mean-value) form taken per
    branch: where branch k's jet evaluates, its formula g_k is smooth on
    the whole box, so for every point x of the box
    dg_k/dm(x) lies in dg_k/dm(c) + grad(dg_k/dm)(box) . (x - c),
    c the box centre.  L equals g_k on the part of the box in branch k's
    region, so the hull of these forms over the touched branches
    encloses dL/dm without any continuity argument.
    """
    touched, jets = _L_jets(p)
    naive = hull(*(j.dm for j in jets))
    # Each operation at the centre acts on a subset of its operand over
    # the box, so where the box's jets evaluate the centre's do too.
    cM, cm = p.M.mid(), p.m.mid()
    _, at_centre = _L_jets(BoundParams(p.a, cM, cm), touched)
    dM, dm = p.M - cM, p.m - cm
    centred = hull(*(c.dm + j.dMm * dM + j.dmm * dm
                     for c, j in zip(at_centre, jets)))
    return Interval(max(naive.lo, centred.lo), min(naive.hi, centred.hi))


# -- enclosures of the curvature maximum D ------------------------------


def _arc_critical_points(p, b, upper):
    """Candidate abscissas where the rising-arc composition is critical.

    The integrand restricted to the arc between max(-1, alpha_plus)+1
    and beta_minus is a smooth rational function of s whose stationary
    points solve a quartic; roots of the midpoint quartic are certified
    where possible and inflated in upper mode to absorb coefficient
    rounding.  When they resist certification, upper mode takes the
    whole search window as one candidate: interval evaluation over it
    bounds every critical point inside, more loosely.
    """
    a = p.a
    rMm = (r(p.M, a)).mid()
    rmm = (r(p.m, a)).mid()
    Mm = p.M.mid()
    bm_mid = b.alpha_plus.mid()
    co = [-0.5 * a * a * rMm * rmm * rmm,
          0.0,
          -2.0 * a * Mm * rmm * rMm,
          a * rmm * (1.0 + rMm * (1.0 + bm_mid)),
          -2.0 * a * Mm * Mm]
    u_lo = max(0.0, -1.0 - bm_mid)
    u_hi = min(b.beta_minus.mid() - 1.0 - bm_mid,
               b.beta_plus.mid() - bm_mid)
    if not u_hi > u_lo:
        return []
    search = Interval(u_lo, u_hi)
    try:
        enclosures = verified_real_roots(co, search)
    except CertificationError:
        if not upper:
            return []
        enclosures = [search]
    if upper:
        enclosures = [Interval(e.lo - 1e-6, e.hi + 1e-6) for e in enclosures]
    return [e + 1.0 + b.alpha_plus for e in enclosures]


def _cover_max(upper_end, n, best):
    """max(best, upper_end(j, j + 1) for j in range(n)), by branch and bound.

    upper_end(i, j) is the upper end of an enclosure over cells i..j-1 of
    a grid, or None where they lie outside the domain; it must be
    inclusion isotone, so that a range's value bounds each of its
    cells'.  A range whose value is at most best is skipped, any other
    is split at its middle index, and a single cell's value is taken.
    A range that raises IntervalError is split too; a single cell that
    raises still raises.
    """
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        try:
            v = upper_end(i, j)
        except IntervalError:
            if j - i == 1:
                raise
            v = math.inf
        if v is None or v <= best:
            continue
        if j - i == 1:
            best = v
        else:
            k = (i + j) // 2
            stack += ((k, j), (i, k))
    return best


def d_enclosure(p, mode):
    """Certified one-sided bound of D_a(M,m) = a^2 max_s frazeta(s).

    mode "lower" maximizes point and thin-interval candidates (any
    subinterval of [0,1] yields a valid lower bound); mode "upper"
    covers every region the maximum can occupy: the rising arc's
    quartic critical points, the plateau boundary and the breakpoints,
    and interval suprema over a fixed grid of cells on the remaining
    arcs, finally clipped by the analytic bracket a^2*M/((1+m)^2*(1+M)).

    Upper mode visits each grid by branch and bound over index ranges,
    after the candidates have set a running maximum: a range of cells is
    evaluated once, as the union of its cells, and skipped when its
    upper end is at most the running maximum (the cut-off test).
    Skipping is sound by containment: the union's enclosure bounds
    frazeta at every point of every cell in it.  It also returns the
    same float as evaluating every cell: each operation of frazeta
    (+ - * / and sqr on outward-rounded binary64 endpoints, z_eval's
    clipping and hull) is inclusion isotone, so a skipped cell's own
    upper end is at most the union's and cannot raise the maximum.
    """
    upper = mode == "upper"
    if mode not in ("lower", "upper"):
        raise ValueError(f"unknown mode {mode!r}")
    # Cells in the partition cover of the arc and of the tail past it.
    n_arc, n_tail = (32, 10) if upper else (4, 4)
    b = envelope(p, "combined")
    bk = b.breakpoints
    if bk.beta_plus.hi >= 0.0 or bk.beta_minus.lo <= 0.0:
        raise AdmissibilityError(
            f"need beta_plus < 0 < beta_minus, got {bk!r}")
    ia2 = Interval.point(p.a).sqr()
    unit = Interval(0.0, 1.0)

    def frazeta(s):
        zm1 = z_eval(b, s - 1.0)
        z0 = z_eval(b, s)
        return ia2 * zm1 / ((1.0 + z0).sqr() * (1.0 + zm1))

    def value(s):
        """The mode's end of frazeta over s in [0, 1], or None."""
        c = s.intersect(unit)
        if c is None:
            return None
        v = frazeta(c)
        return v.hi if upper else v.lo

    # Critical points first: in upper mode they hold the maximum in
    # nearly every call, and the higher the running maximum, the more
    # of the grid is skipped.
    candidates = _arc_critical_points(p, bk, upper)
    candidates += [imax(bk.alpha_plus, Interval.point(-1.0)) + 1.0,
                   bk.beta_minus]
    if upper:
        candidates.append(bk.beta_plus + 1.0)
    best = max((v for s in candidates if (v := value(s)) is not None),
               default=-math.inf)

    # Partition cover of [min(beta_minus, beta_plus+1), min(alpha_minus, 1)],
    # split at the interior breakpoint to keep the pieces tight.
    am1 = bk.beta_plus + 1.0
    top = min(bk.alpha_minus.hi, 1.0)
    if am1.mid() <= bk.beta_minus.mid():
        segments = [(am1.lo, bk.beta_minus.hi, n_arc),
                    (bk.beta_minus.lo, top, n_tail)]
    else:
        segments = [(bk.beta_minus.lo, am1.hi, n_arc),
                    (am1.lo, top, n_tail)]
    for lo, hi, n in segments:
        if not hi > lo:
            continue
        step = (hi - lo) / n

        def cells(i, j):
            return value(Interval(lo + i * step,
                                  hi if j == n else lo + j * step))

        if upper:
            best = _cover_max(cells, n, best)
            continue
        for j in range(n):
            v = cells(j, j + 1)
            if v is not None:
                best = max(best, v)

    if best == -math.inf:
        raise AdmissibilityError(f"no candidate region inside [0,1] for {p!r}")
    if upper:
        bracket = ia2 * p.M / ((1.0 + p.m).sqr() * (1.0 + p.M))
        return min(best, bracket.hi)
    return best


def d_pair(p):
    """Two-sided bracket of D_a(M, m)."""
    return EnclosurePair(d_enclosure(p, "lower"), d_enclosure(p, "upper"))


# -- Sigma ---------------------------------------------------------------


def sigma_closed_form(m, Za, a):
    """Enclosure of the integral of r(z_tilde) over [-1, 0].

    z_tilde depends on (m, D) only, with Za = D/a^2; the three branches
    mirror L with the parabola term integrating to arctangents because
    the tilde parabola opens upward.
    """
    m = _as_interval(m)
    Za = _as_interval(Za)
    if Za.lo <= 0.0:
        raise AdmissibilityError(f"Za={Za!r} must be positive")
    rm = _ratio(m)
    t = 0.5 * (rm / Za)
    ami = (1.0 + m - t) / a
    bmi = (1.0 + m + t) / a
    if bmi.hi >= 0.0:
        raise AdmissibilityError(
            f"beta_tilde={bmi!r} not negative (m={m!r}, Za={Za!r})")
    B = ((1.0 + m) * Za * 2.0).sqrt()

    branches = []
    if ami.hi >= -1.0:
        lg = (m + 0.5 * rm.sqr() / Za).ln1p()
        i13 = a * rm - 1.0 - 0.5 * rm * (1.0 + rm) / Za + lg / rm
        i2 = rm / Za - 2.0 * (rm / B).atan() / B
        branches.append(i13 + i2)
    if ami.lo < -1.0 and bmi.hi >= -1.0:
        lg = (m + 0.5 * rm.sqr() / Za).ln1p()
        lin = -1.0 - m - 0.5 * rm / Za + lg / rm
        k = (0.5 * Za / (1.0 + m)).sqrt()
        parab = (a * (bmi + 1.0)
                 + (2.0 / B) * ((-rm / B).atan()
                                - ((ami + 1.0) * k * a).atan()))
        branches.append(lin + parab)
    if bmi.lo < -1.0:
        branches.append(a + (rm * (-a)).ln1p() / rm)
    return hull(*branches)


def sigma_enclosure(p, mode):
    """Certified one-sided bound of Sigma_a(M, m).

    Sigma is increasing in the curvature D, so the lower bound feeds the
    lower D enclosure and takes the lower endpoint; upper symmetrically.
    """
    d = d_enclosure(p, mode)
    Za = Interval.point(d) / Interval.point(p.a).sqr()
    v = sigma_closed_form(p.m, Za, p.a)
    return v.hi if mode == "upper" else v.lo

"""Staircase separation of the upper and lower fixed-point curves.

m_k(M) iterates m_{j+1} = L(M, m_j) from m_0 = -M, rounding every step
DOWN, giving a certified lower bound of the curve m-hat(M).  theta_n(m)
iterates Sigma-upper from A(m), or from a caller's upper bound of
theta(m), rounding UP, giving a certified upper bound of theta(m).  The
staircase M_{j+1} = theta_n(m_k(M_j)) descends strictly while the curves
stay separated; reaching M_stop or the exit band m > -0.0093 certifies
that the two regions share no point over the swept M range.
"""

import math
import time
from dataclasses import dataclass, field

from .bounds import DEFAULT_A, A, BoundParams, L, sigma_enclosure
from .interval import Interval, IntervalError

M_EXIT = -0.0093
DEFAULT_MAX_ITERATIONS = 10 ** 6


class InternalConsistencyError(IntervalError):
    """A certified recursion moved the wrong way (rounding bug)."""


def m_k(M, k=5, a=DEFAULT_A):
    """Certified lower bound of m-hat(M) after k rounded-down steps.

    Iterates are nondecreasing.  A step whose enclosure of L does not
    lie above the current iterate stalls the recursion early: the
    previous iterate is still a valid bound, and near the fixed point
    the enclosure's width can put its lower end below it.  A step whose
    whole enclosure lies below the current iterate is a consistency
    failure.
    """
    if not 0.0094 <= M <= 0.377:
        raise ValueError(f"M={M!r} outside [0.0094, 0.377]")
    if k < 1:
        raise ValueError("k must be >= 1")
    cur = -M
    Mi = Interval.point(M)
    for _ in range(k):
        nxt = L(BoundParams(a, Mi, Interval.point(cur)))
        if nxt.lo <= cur:
            if cur > nxt.hi:
                raise InternalConsistencyError(
                    f"m_k step decreased at M={M!r}: {cur!r} -> {nxt!r}")
            break
        cur = nxt.lo
    return cur


def theta_n(m, n=6, a=DEFAULT_A, *, start=None):
    """Certified upper bound of theta(m) after at most n rounded-up steps.

    Cold (start None, or start >= A(m).hi): n Sigma-upper steps from
    A(m).hi.  Warm: Sigma-upper steps from start, a certified upper
    bound of theta(m) supplied by the caller, returning the first
    iterate strictly below start, or the n-th iterate if none is.

    Why every iterate is an upper bound of theta(m), warm or cold:
      - Sigma(M, m) is increasing in M, and theta(m) <= Sigma(theta(m),
        m).  So Sigma-upper maps any upper bound of theta(m) to another
        one.  The cold start rests on the same facts, with A(m) >=
        theta(m) as its first bound.
    Why the staircase may pass start = M_j on rung j (run_separation):
      - M_j = theta_n(m_{j-1}) >= theta(m_{j-1});
      - theta decreases in m, and m_j >= m_{j-1} is checked at run time
        before a warm start, so M_j >= theta(m_j).
      - The staircase's exclusion step already uses theta(m) <=
        theta(m_k(M_j)) for M in [M_{j+1}, M_j], so the warm start adds
        no assumption.
    """
    if not -0.25 <= m <= -0.0093:
        raise ValueError(f"m={m!r} outside [-0.25, -0.0093]")
    if n < 1:
        raise ValueError("n must be >= 1")
    mi = Interval.point(m)
    cur = A(mi, a).hi
    warm = start is not None and start < cur
    if warm:
        cur = start
    for _ in range(n):
        cur = sigma_enclosure(BoundParams(a, Interval.point(cur), mi),
                              "upper")
        if warm and cur < start:
            break
    return cur


@dataclass(frozen=True)
class SeparationConfig:
    M_start: float
    M_stop: float
    k: int = 5
    n: int = 6
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    a: float = DEFAULT_A

    def __post_init__(self):
        if not 0.0094 <= self.M_stop < self.M_start <= 0.377:
            raise ValueError(
                f"need 0.0094 <= M_stop < M_start <= 0.377, got "
                f"[{self.M_stop!r}, {self.M_start!r}]")
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("the iteration budget must be positive")

    def to_dict(self):
        return {
            "M_start": self.M_start, "M_stop": self.M_stop,
            "k": self.k, "n": self.n,
            "max_iterations": self.max_iterations, "a": self.a,
        }


@dataclass(frozen=True)
class SeparationReport:
    """One staircase run.

    min_step is the smallest descent M_j - M_{j+1} over the whole
    trajectory and min_step_at its M_j (both None when no rung
    descended); rungs_by_decade counts rungs by the decade of their
    M_j, keyed by its lower end 10^e as "1e<e>".
    """

    config: SeparationConfig
    iterations: int
    final_M: float
    final_m: float
    separated: bool
    elapsed: float
    trajectory_sample: list = field(repr=False)
    failure_reason: str | None = None
    min_step: float | None = None
    min_step_at: float | None = None
    rungs_by_decade: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "iterations": self.iterations,
            "final_M": self.final_M,
            "final_m": self.final_m,
            "separated": self.separated,
            "elapsed_seconds": self.elapsed,
            "failure_reason": self.failure_reason,
            "min_step": self.min_step,
            "min_step_at": self.min_step_at,
            "rungs_by_decade": self.rungs_by_decade,
            "trajectory_sample": self.trajectory_sample,
        }


def _decimate(values, cap=1000):
    if len(values) <= cap:
        return list(values)
    stride = (len(values) + cap - 1) // cap
    out = values[::stride]
    if out[-1] != values[-1]:
        out.append(values[-1])
    return out


def run_separation(cfg):
    """Run the staircase from M_start down to M_stop.

    Rung j computes m_j = m_k(M_j) and M_{j+1} = theta_n(m_j).  Every
    rung after the first whose m_j >= m_{j-1} warm-starts theta_n from
    M_j (see theta_n for why that is sound); the first rung, and any
    rung whose m_j fell, start cold from A(m_j).

    A rung whose m_k or theta_n leaves its domain (an IntervalError, or
    the ValueError of a window check) ends the run unseparated with
    failure_reason "domain_error"; final_M and final_m are then that
    rung's M and m, m being None when m_k itself failed.  An
    InternalConsistencyError ends it with "internal_consistency".
    """
    start = time.perf_counter()
    M = cfg.M_start
    trajectory = [M]
    separated = False
    reason = None
    iterations = 0
    prev_m = None
    min_step = min_step_at = None
    by_decade = {}
    while iterations < cfg.max_iterations:
        iterations += 1
        decade = f"1e{math.floor(math.log10(M))}"
        by_decade[decade] = by_decade.get(decade, 0) + 1
        last_m = None
        try:
            last_m = m_k(M, cfg.k, cfg.a)
            if last_m > M_EXIT:
                separated = True
                break
            warm = prev_m is not None and last_m >= prev_m
            M_next = theta_n(last_m, cfg.n, cfg.a,
                             start=M if warm else None)
        except InternalConsistencyError:
            reason = "internal_consistency"
            break
        except (IntervalError, ValueError):
            reason = "domain_error"
            break
        if M_next >= M:
            reason = "stalled"
            break
        if min_step is None or M - M_next < min_step:
            min_step, min_step_at = M - M_next, M
        prev_m = last_m
        M = M_next
        trajectory.append(M)
        if M < cfg.M_stop:
            separated = True
            break
    else:
        reason = "max_iterations"
    return SeparationReport(cfg, iterations, M, last_m, separated,
                            time.perf_counter() - start,
                            _decimate(trajectory), reason,
                            min_step, min_step_at, by_decade)


# -- curve sampling ------------------------------------------------------


@dataclass(frozen=True)
class CurveSample:
    x: float
    lower: float
    upper: float
    error: str | None = None


def _lhat_lower(m, k, a):
    """Largest tested M with m_k(M) >= m; a lower bound of L-hat(m)."""
    lo, hi = 0.0094, 0.377
    if m_k(lo, k, a) < m:
        raise ValueError(f"m={m!r} above the curve at M=0.0094")
    if m_k(hi, k, a) >= m:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if m_k(mid, k, a) >= m:
            lo = mid
        else:
            hi = mid
    return lo


def emit_curves(grid, which, k=5, n=6, a=DEFAULT_A):
    """Sample a named curve over grid; see CurveSample for row layout.

    Two-sided enclosures fill both columns; one-sided certified bounds
    fill their side and NaN the other.
    """
    if which not in ("A", "m_k", "theta_n", "Lhat_lower"):
        raise ValueError(f"unknown curve {which!r}")
    nan = float("nan")
    rows = []
    for x in grid:
        x = float(x)
        try:
            if which == "A":
                v = A(Interval.point(x), a)
                rows.append(CurveSample(x, v.lo, v.hi))
            elif which == "m_k":
                rows.append(CurveSample(x, m_k(x, k, a), nan))
            elif which == "theta_n":
                rows.append(CurveSample(x, nan, theta_n(x, n, a)))
            else:
                rows.append(CurveSample(x, _lhat_lower(x, k, a), nan))
        except (IntervalError, ValueError) as exc:
            rows.append(CurveSample(x, nan, nan, str(exc)))
    return rows

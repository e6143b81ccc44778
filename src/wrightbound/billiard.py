"""Curve-separation by rigorous one-sided iteration.

To prove q(t) > p(t) on [t_start, t_end] for a nondecreasing q and a
strictly increasing p, iterate t_{j+1} = p_inverse(q(t_j)) from t_start,
always rounding down to the lower endpoint of the enclosure.  Every
iterate then satisfies t_{j+1} <= true p_inverse(q(t_j)); if the
sequence still escapes past t_end, the curves are separated on the whole
interval.  Rounding down can only slow the escape, never fake it.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .interval import Interval, IntervalError

DEFAULT_MAX_STEPS = 10 ** 6


def identity_inverse(y):
    """p_inverse for p(t) = t."""
    return y


@dataclass(frozen=True)
class BilliardProblem:
    """One separation instance.

    q maps a float abscissa to an Interval enclosure of the upper curve;
    p_inverse maps an Interval to an Interval enclosure of the inverse
    of the lower curve.  Monotonicity of q and p on a superset of
    [t_start, t_end] is a caller-supplied assumption: run neither checks
    nor records it, and a separation it reports holds only where the
    assumption does.
    """

    q: Callable[[float], Interval]
    p_inverse: Callable[[Interval], Interval]
    t_start: float
    t_end: float
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError(
                f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class BilliardOutcome:
    separated: bool
    steps: int
    trajectory: list = field(repr=False)
    failure_reason: Optional[str] = None
    elapsed: float = 0.0

    def to_dict(self):
        return {
            "separated": self.separated,
            "steps": self.steps,
            "failure_reason": self.failure_reason,
            "elapsed_seconds": self.elapsed,
            "trajectory_first": self.trajectory[:3],
            "trajectory_last": self.trajectory[-3:],
        }


def run(problem):
    """Execute the separation iteration; see module docstring.

    A non-increasing step means separation is unproved (not disproved)
    and reports "stalled"; equality counts as a stall (exact endpoint
    comparison, no epsilon).
    """
    start = time.perf_counter()
    t = problem.t_start
    trajectory = [t]
    for _ in range(problem.max_steps):
        try:
            t_next = problem.p_inverse(problem.q(t)).lo
        except IntervalError:
            return BilliardOutcome(False, len(trajectory), trajectory,
                                   "domain_error",
                                   time.perf_counter() - start)
        if t_next <= t:
            return BilliardOutcome(False, len(trajectory), trajectory,
                                   "stalled", time.perf_counter() - start)
        t = t_next
        trajectory.append(t)
        if t > problem.t_end:
            return BilliardOutcome(True, len(trajectory), trajectory, None,
                                   time.perf_counter() - start)
    return BilliardOutcome(False, len(trajectory), trajectory, "max_steps",
                           time.perf_counter() - start)

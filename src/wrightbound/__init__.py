"""Validated numerics certifying delayed negative feedback stability.

The package machine-checks the chain of interval-arithmetic estimates
showing that the zero solution of x'(t) = f(x(t-1)) is globally
attracting whenever the feedback slope a = f'(0) satisfies
-37/24 <= a < 0.
"""

from .interval import (
    CertificationError,
    DomainError,
    Interval,
    IntervalError,
    hull,
    verified_real_roots,
)

__all__ = [
    "CertificationError",
    "DomainError",
    "Interval",
    "IntervalError",
    "hull",
    "verified_real_roots",
]

__version__ = "0.1.0"

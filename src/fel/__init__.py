"""Certified bounds for a family of Fourier-extremal constants.

Two dual test families bracket each constant: a lower family evaluated
exactly through closed-form antiderivatives, and an upper family whose
sup-norm is certified by a second-order branch-and-bound (cell bounds from
a closed-form curvature bound) with analytic tail majorants.  Every
certified number is a :class:`ErrBounded` value with its error radius.
Closed-form generic bounds, derivative-free searches, and desk-scale
number-theoretic consistency scans round out the toolkit; the ``fel`` CLI
ties it together.
"""

from .precision import ErrBounded, PrecisionContext, Unconverged
from .lower import LowerParams
from .upper import UpperParams

__version__ = "0.1.0"

__all__ = [
    "ErrBounded",
    "PrecisionContext",
    "Unconverged",
    "LowerParams",
    "UpperParams",
    "__version__",
]

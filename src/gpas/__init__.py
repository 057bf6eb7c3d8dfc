"""Exact-error Poisson-mean estimation and normalizing-constant ratios.

The package turns a stream of iid Poisson counts into an estimate whose
relative-error distribution is known exactly and free of the unknown mean
(:mod:`gpas.core`), supplies the special functions and seeded samplers that
power it (:mod:`gpas.numerics`), draws Poisson counts from descents over
nested Gibbs families for ratio estimation (:mod:`gpas.tpa`), validates the
whole stack against an exactly enumerable Ising model (:mod:`gpas.ising`),
and exposes everything through a reproducible CLI (:mod:`gpas.cli`).

Each public name is declared once, in the ``__all__`` of the module that
defines it (:mod:`gpas.core`, :mod:`gpas.errors`, :mod:`gpas.ising`,
:mod:`gpas.numerics` and :mod:`gpas.tpa`); the package re-exports every one
of them, and its ``__all__`` is their sorted union.  The version is
written once, as ``__version__``, which ``pyproject.toml`` reads for the
package metadata.
"""

from . import core, errors, ising, numerics, tpa
from .core import *
from .errors import *
from .ising import *
from .numerics import *
from .tpa import *

__version__ = "0.1.0"

__all__ = sorted(
    {*core.__all__, *errors.__all__, *ising.__all__, *numerics.__all__, *tpa.__all__}
)

"""Exact p-adic dynamics of the rational map f(x) = a*x/(x^2 + c*x + a).

Fixed-point classification, Siegel disks and basins, invariant spheres,
ergodicity on invariant spheres (with an independent residue-cycle oracle),
and 2-/3-periodic orbits, all in exact arithmetic.

The package re-exports the public names of its modules: each module's
``__all__`` is the one list of them, and ``padicdyn.__all__`` is their union.
"""

from . import errors, padic, dynamics, ergodicity, periodic, conjugation

__all__ = []
for _module in (errors, padic, dynamics, ergodicity, periodic, conjugation):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del _module

__version__ = "0.1.0"

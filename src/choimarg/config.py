"""Centralized numerical tolerances.

Cone membership (PSD, trace preservation, unitarity) is exact mathematics;
floating point needs explicit slack. Every tolerance used by the package is
collected here. An override passed as ``tol=`` does not reach every check:
it sets the solver gap, the Marginal band, the one validation of the
witness and the effect checks of ``effects_compatible``. ``Channel``,
``MarginalSpec`` and the state checks of ``state_steerable`` and
``bell_local`` always use ``DEFAULT``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances, overridable per call site.

    construction: max-entry Hermiticity deviation accepted when building operators.
    psd:          eigenvalue slack for positive-semidefiniteness checks.
    solver:       relative duality-gap target of the interior-point solver.
    band:         half-width of the Marginal band around zero feasibility slack.
    witness_psd:  eigenvalue slack a reported witness must satisfy.
    witness_residual: constraint residual a reported witness must satisfy.
    """

    construction: float = 1e-12
    psd: float = 1e-9
    solver: float = 1e-7
    band: float = 1e-7
    witness_psd: float = 1e-8
    witness_residual: float = 1e-6


DEFAULT = Tolerances()

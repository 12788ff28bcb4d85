"""Default numerical tolerances, overridable per call.

Cone membership (PSD, trace preservation, unitarity) is exact mathematics;
floating point needs explicit slack. An override passed as ``tol=`` does
not reach every check: it sets the solver gap, the Marginal band and the
effect checks of ``effects_compatible``. ``Channel``, ``MarginalSpec`` and
the state checks of ``state_steerable`` and ``bell_local`` always use
``DEFAULT``. The solver's gap target is ``min(solver, band / 10)``, 1e-8 at
the defaults, so a ``solver`` gap above ``band / 10`` does not bind.

Some tolerances are fixed and live with the code they govern: the witness
contract in :mod:`choimarg.sdp` (every reported witness is PSD to
``-WITNESS_PSD`` = -1e-8 and satisfies each row to ``WITNESS_RESIDUAL`` =
1e-6), the solver's residual target ``FEAS_TOL`` and its dependent-row
pivot ``DEPENDENT_PIVOT``, and the CHSH flag tolerance in
:mod:`choimarg.chsh`. No ``tol=`` reaches them.
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
    """

    construction: float = 1e-12
    psd: float = 1e-9
    solver: float = 1e-7
    band: float = 1e-7


DEFAULT = Tolerances()

"""Named input bundles for the CLI, one per worked example.

A preset expands to the inputs of a specific subcommand:

==================  =======================  ==========================================
name                commands                 inputs
==================  =======================  ==========================================
identity-pair       compat                   two qubit identity channels
depolarizing-pair   compat                   two fully depolarizing qubit channels
max-entangled       steer, bell              |psi+><psi+| with (id, Hadamard) resp. four
                                             identity channels
w-state             steer, bell              rho_W = Tr_2 |W><W| with identity channels
theta-family:<t>    bell                     |psi+><psi+| with the four scan unitaries
                                             at theta = t
==================  =======================  ==========================================
"""

from __future__ import annotations

import numpy as np

from .channels import (
    Channel,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    unitary_channel,
    w_state,
)
from .chsh import theta_family
from .linalg import partial_trace

__all__ = ["PRESET_NAMES", "describe_presets", "compat_preset", "steer_preset", "bell_preset"]

PRESET_NAMES = (
    "identity-pair",
    "depolarizing-pair",
    "max-entangled",
    "w-state",
    "theta-family:<theta>",
)

_DESCRIPTIONS = {
    "identity-pair": ("compat", "two qubit identity channels (incompatible: no broadcasting)"),
    "depolarizing-pair": ("compat", "two fully depolarizing qubit channels (compatible)"),
    "max-entangled": ("steer, bell", "maximally entangled qubit pair; steer uses (id, Hadamard)"),
    "w-state": ("steer, bell", "two-qubit marginal of the W state with identity channels"),
    "theta-family:<theta>": ("bell", "maximally entangled state with the four scan unitaries"),
}


def describe_presets() -> str:
    width = max(len(n) for n in PRESET_NAMES)
    lines = []
    for name in PRESET_NAMES:
        commands, text = _DESCRIPTIONS[name]
        lines.append(f"{name:<{width}}  [{commands}]  {text}")
    return "\n".join(lines)


def _theta_of(name: str) -> float | None:
    if not name.startswith("theta-family:"):
        return None
    try:
        theta = float(name.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"preset {name!r}: theta is not a number") from None
    if not 0 <= theta < np.inf:
        raise ValueError(f"preset {name!r}: theta must be finite and nonnegative")
    return theta


def _rho_w() -> np.ndarray:
    return partial_trace(w_state(), (2, 2, 2), {2})


def compat_preset(name: str) -> tuple[Channel, Channel]:
    if name == "identity-pair":
        return identity_channel(2), identity_channel(2)
    if name == "depolarizing-pair":
        return depolarizing_channel(2), depolarizing_channel(2)
    raise ValueError(f"preset {name!r} is not usable with 'compat'")


def steer_preset(name: str) -> tuple[np.ndarray, Channel, Channel]:
    if name == "w-state":
        return _rho_w(), identity_channel(2), identity_channel(2)
    if name == "max-entangled":
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        return max_entangled(2), identity_channel(2), unitary_channel(hadamard)
    raise ValueError(f"preset {name!r} is not usable with 'steer'")


def bell_preset(name: str) -> tuple[np.ndarray, Channel, Channel, Channel, Channel]:
    theta = _theta_of(name)
    if theta is not None:
        u1, u2, v1, v2 = theta_family(theta)
        return (
            max_entangled(2),
            unitary_channel(u1),
            unitary_channel(u2),
            unitary_channel(v1),
            unitary_channel(v2),
        )
    ident = identity_channel(2)
    if name == "w-state":
        return (_rho_w(), ident, ident, ident, ident)
    if name == "max-entangled":
        return (max_entangled(2), ident, ident, ident, ident)
    raise ValueError(f"preset {name!r} is not usable with 'bell'")

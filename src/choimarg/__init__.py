"""Feasibility tests for quantum channel pairs via Choi-matrix marginal problems.

The package decides three questions about channels, each reduced to the
existence of a multipartite PSD operator with prescribed partial traces:
compatibility of a channel pair, steerability of a bipartite state by a
channel pair, and Bell locality of a bipartite state under two channel
choices per wing. It also evaluates the channel CHSH functional with its
classical bound 2 and Tsirelson bound 2*sqrt(2).
"""

from .channels import (
    Channel,
    apply,
    choi_from_kraus,
    depolarizing_channel,
    identity_channel,
    max_entangled,
    measure_prepare,
    tensor,
    unitary_channel,
    w_state,
)
from .chsh import (
    CorrelationReport,
    chsh_scan,
    chsh_value,
    closed_form_chsh,
    correlation,
    theta_family,
)
from .marginals import (
    CompatReport,
    MarginalSpec,
    bell_local,
    channels_compatible,
    effects_compatible,
    marginal_feasibility,
    state_steerable,
)
from .sdp import Report

__all__ = [
    "Channel",
    "CompatReport",
    "CorrelationReport",
    "MarginalSpec",
    "Report",
    "apply",
    "bell_local",
    "channels_compatible",
    "choi_from_kraus",
    "chsh_scan",
    "chsh_value",
    "closed_form_chsh",
    "correlation",
    "depolarizing_channel",
    "effects_compatible",
    "identity_channel",
    "marginal_feasibility",
    "max_entangled",
    "measure_prepare",
    "state_steerable",
    "tensor",
    "theta_family",
    "unitary_channel",
    "w_state",
]

__version__ = "0.1.0"

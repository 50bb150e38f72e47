"""Simulator for a mediated multiparty quantum secret sharing protocol.

A fully quantum but untrusted server distributes GHZ states to a dealer and
n agents who are each limited to the Hadamard gate and Z-basis measurement.
The package provides an exact engine that plays batches of the protocol's
GHZ rounds as arrays, the dense state-vector engine it is tested against,
the participant state machines, the adversary models used in the security
analysis, and a CLI for running seeded Monte-Carlo experiments. Every
seeded draw comes from a numpy generator; ``streams`` makes those
generators and holds the package's own rules for drawing from them as
arrays, the same numbers for one session or many.
"""

from .adversary import (
    CollectiveAttackConfig,
    CollusionConfig,
    LeakageEstimate,
    MeasureResendConfig,
    attacked,
    estimate_leakage,
    run_collusion,
)
from .ghz import GhzSpec, HadamardPattern, prepare
from .protocol import (
    Mode,
    RoundBatch,
    RoundCase,
    RoundRecord,
    SessionConfig,
    SessionOutcome,
    Sessions,
    Verdict,
    run_rounds,
    run_session,
    run_sessions,
)
from .statevec import PureState, fidelity

__all__ = [
    "CollectiveAttackConfig",
    "CollusionConfig",
    "GhzSpec",
    "HadamardPattern",
    "LeakageEstimate",
    "MeasureResendConfig",
    "Mode",
    "PureState",
    "RoundBatch",
    "RoundCase",
    "RoundRecord",
    "SessionConfig",
    "SessionOutcome",
    "Sessions",
    "Verdict",
    "attacked",
    "estimate_leakage",
    "fidelity",
    "prepare",
    "run_collusion",
    "run_rounds",
    "run_session",
    "run_sessions",
]
__version__ = "0.1.0"

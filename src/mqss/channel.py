"""Qubit transmission with noise and interception.

The quantum channel is strictly one-way: there is no operation that returns
a qubit from a participant back to the server, which is what makes probe
insertion attacks that rely on retrieving a photon structurally impossible
in this model. The classical channel is a session's public log
(``SessionOutcome.log``).

The protocol's round driver (``protocol._play_rows``, behind
``play_rounds``, ``run_rounds`` and sessions) applies the same noise and
interceptors to whole chunks of rows, on the kernel ``protocol.round_engine``
picks for the config; a chunk with an interceptor plays every row on the
dense engine. ``QubitChannel`` and ``transmit`` model one link on its own,
on the dense engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .statevec import PAULI_X, PureState, apply_gate

# An interceptor sees the joint state in transit and may transform it. In a
# protocol round it spends one draw column whether or not it draws, and its
# generator's ``random()`` returns that draw once; a second draw raises.
Interceptor = Callable[[PureState, int, Any], PureState]


@dataclass(frozen=True)
class QubitChannel:
    """One-way qubit link with bit-flip noise rate ``epsilon``."""

    epsilon: float = 0.0
    interceptor: Optional[Interceptor] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


def transmit(
    channel: QubitChannel, state: PureState, particle: int, rng
) -> PureState:
    """Send one particle of the joint state through the channel.

    With probability ``epsilon`` the transmitted particle suffers a bit
    flip; afterwards the interceptor, if any, transforms the joint state.
    """
    if not 1 <= particle <= state.qubit_count:
        raise ValueError(
            f"particle index {particle} out of range 1..{state.qubit_count}"
        )
    if channel.epsilon > 0.0 and rng.random() < channel.epsilon:
        state = apply_gate(state, particle, PAULI_X)
    if channel.interceptor is not None:
        state = channel.interceptor(state, particle, rng)
    return state


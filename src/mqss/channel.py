"""Qubit transmission with noise and interception, plus the broadcast log.

The quantum channel is strictly one-way: there is no operation that returns
a qubit from a participant back to the server, which is what makes probe
insertion attacks that rely on retrieving a photon structurally impossible
in this model. Classical traffic goes over an authenticated broadcast log
that anyone, including the adversary, can read, but nobody can rewrite.

``protocol.run_round`` applies the same noise and interceptors in its own
round walk, on either engine; ``QubitChannel`` and ``transmit`` model one
link on its own, on the dense engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .statevec import PAULI_X, PureState, apply_gate

# An interceptor sees the joint state in transit and may transform it.
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


class ClassicalLog:
    """Append-only authenticated broadcast record.

    Messages can be read by every party (eavesdropping is free) but never
    modified or removed once appended.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassicalLog):
            return NotImplemented
        return self._entries == other._entries

    @property
    def entries(self) -> tuple[tuple[str, Any], ...]:
        return tuple(self._entries)


def broadcast(log: ClassicalLog, sender: str, message: Any) -> ClassicalLog:
    """Append a message visible to all parties; returns the same log."""
    log._entries.append((sender, message))
    return log

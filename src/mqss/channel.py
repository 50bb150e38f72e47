"""Qubit transmission with noise and interception, plus the broadcast log.

The quantum channel is strictly one-way: there is no operation that returns
a qubit from a participant back to the server, which is what makes probe
insertion attacks that rely on retrieving a photon structurally impossible
in this model. Classical traffic goes over an authenticated broadcast log
that anyone, including the adversary, can read, but nobody can rewrite.

The protocol's round driver (``protocol._play_rows``, behind
``play_rounds``, ``run_rounds`` and sessions) applies the same noise and
interceptors in its own round walk, on the engine ``protocol.round_engine``
picks for the config; ``QubitChannel`` and ``transmit`` model one link on
its own, on the dense engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

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


class _Acks(NamedTuple):
    """A run of per-round acknowledgements, kept as one log item."""

    sender: str
    rounds: range


class ClassicalLog:
    """Append-only authenticated broadcast record.

    Messages can be read by every party (eavesdropping is free) but never
    modified or removed once appended. A run of per-round acks
    (``acknowledge``) is stored as one item and read back as one
    ``(sender, {"round": i, "ack": True})`` entry per round; length and
    equality are those of that expanded view.
    """

    def __init__(self) -> None:
        self._items: list = []  # (sender, message) entries and _Acks runs

    def __len__(self) -> int:
        return sum(len(item.rounds) if isinstance(item, _Acks) else 1 for item in self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassicalLog):
            return NotImplemented
        return self.entries == other.entries

    @property
    def entries(self) -> tuple[tuple[str, Any], ...]:
        entries: list[tuple[str, Any]] = []
        for item in self._items:
            if isinstance(item, _Acks):
                entries.extend((item.sender, {"round": i, "ack": True}) for i in item.rounds)
            else:
                entries.append(item)
        return tuple(entries)


def broadcast(log: ClassicalLog, sender: str, message: Any) -> ClassicalLog:
    """Append a message visible to all parties; returns the same log."""
    log._items.append((sender, message))
    return log


def acknowledge(log: ClassicalLog, sender: str, rounds: int) -> ClassicalLog:
    """Append ``sender``'s acks of rounds 0 .. ``rounds`` - 1 as one run.

    Reads back as ``rounds`` broadcasts of ``{"round": i, "ack": True}``.
    """
    log._items.append(_Acks(sender, range(rounds)))
    return log

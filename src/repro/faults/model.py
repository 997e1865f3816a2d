"""Fault and fault-site value types.

The library uses the classical single stuck-at model on the standard site
set: every signal *stem* (the gate/PI/flop output itself) and, for signals
with fan-out greater than one, every *branch* (each individual load pin).
A branch of a fan-out-free signal is electrically the same line as its
stem, so no separate site is created for it.
"""

from __future__ import annotations

from dataclasses import dataclass

STEM = "stem"
BRANCH = "branch"


@dataclass(frozen=True, order=True)
class FaultSite:
    """A physical line that can be stuck.

    Attributes:
        signal: the driving signal name.
        kind: ``"stem"`` or ``"branch"``.
        sink: for a branch, the consuming element — a gate output name, a
            flop Q name (load kind ``dff``) or a PO name (load kind
            ``po``); empty for stems.
        pin: for a gate branch, the input pin position; 0 otherwise.
        load_kind: for a branch, the kind of the consuming element:
            ``"gate"``, ``"dff"`` or ``"po"``; empty for stems.
    """

    signal: str
    kind: str
    sink: str = ""
    pin: int = 0
    load_kind: str = ""

    def __str__(self) -> str:
        if self.kind == STEM:
            return self.signal
        return f"{self.signal}->{self.sink}[{self.pin}]"


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault: a site stuck at 0 or 1.

    Faults key every detection map, so the hash is computed once, in
    ``__post_init__``.  String hashes differ between processes (hash
    randomization), so the cached value must never travel: pickling
    rebuilds the fault from its fields, and the receiving process hashes
    it afresh.
    """

    site: FaultSite
    stuck_value: int

    def __post_init__(self) -> None:
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.stuck_value}")
        object.__setattr__(self, "_hash", hash((self.site, self.stuck_value)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Fault, (self.site, self.stuck_value))

    def __str__(self) -> str:
        return f"{self.site} SA{self.stuck_value}"

    @property
    def is_stem(self) -> bool:
        return self.site.kind == STEM

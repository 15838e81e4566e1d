"""Topology descriptors for the simulated delay-based PUF designs."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import kvfile


class Design(Enum):
    """Supported circuit families."""

    APUF = "APUF"
    PA_PUF = "PA_PUF"
    FF_PA_PUF = "FF_PA_PUF"


@dataclass(frozen=True)
class Netlist:
    """Describes one mux-chain topology.

    ``stages`` is the number of multiplexer stages, which equals the number
    of challenge bits the chain consumes.  ``ff_taps`` is a tuple of
    (tap_stage, target_stage) pairs: a feed-forward arbiter samples the line
    arrival times right after ``tap_stage`` and its three output bits drive
    the per-line mux selects of ``target_stage`` instead of the challenge
    bit.  Taps are only allowed on the FF_PA_PUF design.
    """

    design: Design
    stages: int
    ff_taps: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if not isinstance(self.design, Design):
            object.__setattr__(self, "design", Design(self.design))
        if self.stages < 1:
            raise ValueError(f"stage count must be >= 1, got {self.stages}")
        taps = tuple(sorted((int(a), int(b)) for a, b in self.ff_taps))
        object.__setattr__(self, "ff_taps", taps)
        if taps and self.design is not Design.FF_PA_PUF:
            raise ValueError(f"feed-forward taps are not allowed on {self.design.value}")
        targets = [t for _, t in taps]
        if len(set(targets)) != len(targets):
            raise ValueError("each target stage may be driven by at most one feed-forward arbiter")
        for tap, target in taps:
            if not 0 <= tap < target < self.stages:
                raise ValueError(f"invalid feed-forward tap ({tap}, {target}) for {self.stages} stages")

    @property
    def lines(self) -> int:
        """Number of parallel delay lines: 2 for APUF, 3 otherwise."""
        return 2 if self.design is Design.APUF else 3

    def describe(self) -> str:
        return f"design={self.design.value};stages={self.stages};taps={format_taps(self.ff_taps)}"

    @classmethod
    def parse(cls, text: str) -> "Netlist":
        schema = {"design": Design, "stages": int, "taps": (parse_taps, ())}
        fields = kvfile.parse(text.split(";"), schema, f"netlist {text!r}")
        return cls(fields["design"], fields["stages"], fields["taps"])


def format_taps(taps) -> str:
    """Feed-forward taps as text: ``16:32,32:48``, or ``none``."""
    return ",".join(f"{a}:{b}" for a, b in taps) or "none"


def parse_taps(text: str) -> tuple[tuple[int, int], ...]:
    """Inverse of ``format_taps``; an empty string also means no taps.

    A pair that is not two integers ``tap:target`` is a ``ValueError``
    naming the pair.
    """
    if text in ("", "none"):
        return ()
    taps = []
    for pair in text.split(","):
        tap, _, target = pair.partition(":")
        try:
            taps.append((int(tap), int(target)))
        except ValueError:
            raise ValueError(f"bad feed-forward tap {pair!r}: expected tap:target, e.g. 16:32") from None
    return tuple(taps)


def default_ff_taps(stages: int, count: int) -> tuple[tuple[int, int], ...]:
    """Evenly spaced feed-forward taps: count pairs spread over the chain.

    For 64 stages and count=2 this yields ((16, 32), (32, 48)).
    """
    if count < 0:
        raise ValueError(f"feed-forward tap count must be >= 0, got {count}")
    if count == 0:
        return ()
    if stages < count + 2:
        raise ValueError(f"cannot place {count} feed-forward taps on {stages} stages")
    taps = []
    for j in range(count):
        tap = ((j + 1) * stages) // (count + 2)
        target = ((j + 2) * stages) // (count + 2)
        taps.append((tap, target))
    return tuple(taps)

"""Static trace statistics.

These are the quantities the paper derives from instrumentation before
any timing simulation: atomic-instruction density, per-region access
mix, and PIM-offload candidate counts (used by Table III and the
analytical model's ``r_atomic`` input).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
import numpy as np

from repro.memlayout.regions import REGION_SHIFT, Region
from repro.trace.events import EV_ATOMIC, EV_BARRIER, EV_LOAD, EV_STORE, AtomicOp
from repro.trace.stream import Trace

_NUM_KINDS = 4
_OPS = tuple(AtomicOp)


@dataclass
class TraceStats:
    """Aggregate statistics of one trace."""

    total_instructions: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    barriers: int = 0
    region_accesses: dict[Region, int] = field(default_factory=dict)
    property_atomics: int = 0
    atomic_ops: Counter = field(default_factory=Counter)

    @property
    def memory_accesses(self) -> int:
        """Loads + stores + atomics."""
        return self.loads + self.stores + self.atomics

    @property
    def atomic_fraction(self) -> float:
        """Atomics as a fraction of all instructions (model's r_atomic)."""
        if self.total_instructions == 0:
            return 0.0
        return self.atomics / self.total_instructions

    @property
    def pim_candidate_fraction(self) -> float:
        """Property-region atomics as a fraction of all instructions."""
        if self.total_instructions == 0:
            return 0.0
        return self.property_atomics / self.total_instructions


def summarize_trace(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` with numpy over each thread's rows.

    Builds no tuples and no columnar memo.  Like
    :func:`~repro.memlayout.regions.region_of`, raises ``ValueError``
    for an access outside every region.
    """
    kinds = np.zeros(_NUM_KINDS, dtype=np.int64)
    regions = np.zeros(len(Region), dtype=np.int64)
    ops: Counter = Counter()
    instructions = 0
    property_atomics = 0
    for thread in trace.threads:
        rows = thread.rows()
        kind, addr, gap, op = rows[:, 0], rows[:, 1], rows[:, 3], rows[:, 4]
        kinds += np.bincount(kind, minlength=_NUM_KINDS)
        # Barriers carry work in their gap; memory events add themselves.
        instructions += int(gap.sum())
        access = kind != EV_BARRIER
        region = addr[access] >> REGION_SHIFT
        if region.size and (
            int(region.min()) < 0 or int(region.max()) >= len(Region)
        ):
            bad = region[(region < 0) | (region >= len(Region))][0]
            Region(int(bad))  # raises ValueError, as region_of does
        regions += np.bincount(region, minlength=len(Region))
        atomic = kind[access] == EV_ATOMIC
        property_atomics += int(
            np.count_nonzero(region[atomic] == Region.PROPERTY)
        )
        values, counts = np.unique(op[kind == EV_ATOMIC], return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            ops[_OPS[value] if 0 <= value < len(_OPS) else value] += count
    memory = int(kinds[EV_LOAD] + kinds[EV_STORE] + kinds[EV_ATOMIC])
    return TraceStats(
        total_instructions=instructions + memory,
        loads=int(kinds[EV_LOAD]),
        stores=int(kinds[EV_STORE]),
        atomics=int(kinds[EV_ATOMIC]),
        barriers=int(kinds[EV_BARRIER]),
        region_accesses={
            region: int(regions[region]) for region in Region
        },
        property_atomics=property_atomics,
        atomic_ops=ops,
    )

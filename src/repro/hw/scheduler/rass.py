"""RASS: reuse-aware schedule scheme with KV out-of-order execution (Fig. 15).

Under dynamic sparsity, different queries select overlapping K/V sets.  A
naive execution walks each query's keys in index order through a small KV
buffer, reloading shared vectors that were evicted between phases.  RASS
instead groups KV pairs into phases greedily:

1. rank pending KV ids by how many *unscheduled* queries need them (most
   shared first) and seed the phase with them;
2. then pull in KV ids that are *exclusive* to the remaining unscheduled
   queries so those queries finish instead of lingering;
3. repeat until every (query, kv) requirement is covered.

Out-of-order accumulation is what makes this legal: SU-FA's streaming
softmax state is permutation-invariant, so a query can consume its KV pairs
in whatever order the phases provide.

The hardware realization (an FSM walking an ID buffer indexed by query
bitmasks) is modeled by :func:`build_id_buffer` so the paper's worked
example (bitmask 1000 -> {5, 6}) is checkable.  Balancing work across
parallel lanes has its serving-tier counterpart in
:func:`repro.cluster.routing.route`, which sends each uncached request to
the worker process with the fewest requests in flight.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class ScheduleReport:
    """Outcome of a KV scheduling run.

    Attributes
    ----------
    phases:
        Per-phase lists of KV ids loaded in that phase.
    vector_loads:
        Total K *and* V vector loads (2 per KV pair load) - the Fig. 15
        metric ("24 vectors" naive vs "16 vectors" RASS).
    """

    phases: list[list[int]]
    vector_loads: int

    @property
    def kv_pair_loads(self) -> int:
        return self.vector_loads // 2


def _validate_requirements(requirements: list[set[int]]) -> None:
    if not requirements:
        raise ValueError("need at least one query")
    for i, req in enumerate(requirements):
        if not req:
            raise ValueError(f"query {i} selects no KV pairs")
        if any(kv < 0 for kv in req):
            raise ValueError("KV ids must be non-negative")


def naive_schedule(
    requirements: list[set[int]], capacity: int, retain_buffer: bool = False
) -> ScheduleReport:
    """Query-major execution through a ``capacity``-pair KV buffer.

    The default (``retain_buffer=False``) models the double-buffered
    streaming execution of Fig. 15's left panel: the next unfinished query's
    *complete* KV list is loaded fresh into the buffer (the previous phase's
    contents are consumed by the in-flight compute and not retained), while
    any other query's outstanding pairs that happen to be resident are served
    opportunistically.  On the paper's example this yields 12 pair loads
    (24 vectors).  Lists longer than ``capacity`` split into chunks.

    ``retain_buffer=True`` models a FIFO cache instead (pairs survive across
    queries until evicted), a stronger baseline that still loses to RASS.
    """
    _validate_requirements(requirements)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")

    if retain_buffer:
        buffer: OrderedDict[int, None] = OrderedDict()
        phases: list[list[int]] = []
        current: list[int] = []
        loads = 0
        for req in requirements:
            for kv in sorted(req):
                if kv in buffer:
                    buffer.move_to_end(kv)
                    continue
                if len(buffer) >= capacity:
                    buffer.popitem(last=False)
                    phases.append(current)
                    current = []
                buffer[kv] = None
                current.append(kv)
                loads += 1
        if current:
            phases.append(current)
        return ScheduleReport(phases=phases, vector_loads=2 * loads)

    outstanding = [set(req) for req in requirements]
    phases = []
    loads = 0
    for i, req in enumerate(requirements):
        if not outstanding[i]:
            continue  # fully served by earlier phases
        pairs = sorted(req)
        for chunk_start in range(0, len(pairs), capacity):
            chunk = pairs[chunk_start : chunk_start + capacity]
            phases.append(list(chunk))
            loads += len(chunk)
            resident = set(chunk)
            for out in outstanding:
                out -= resident
    return ScheduleReport(phases=phases, vector_loads=2 * loads)


def rass_schedule(requirements: list[set[int]], capacity: int) -> ScheduleReport:
    """The greedy reuse-aware schedule of Fig. 15.

    Each KV id is loaded exactly once; phases are packed so shared ids go
    first and exclusive ids of pending queries complete them.  The schedule
    is valid by construction (every requirement is covered by the phase that
    contains its KV id) - a property test asserts this.
    """
    _validate_requirements(requirements)
    if capacity < 1:
        raise ValueError("capacity must be >= 1")

    pending: set[int] = set()
    for req in requirements:
        pending |= req
    remaining_queries = {i: set(req) for i, req in enumerate(requirements)}

    phases: list[list[int]] = []
    while pending:
        phase: list[int] = []

        def share_count(kv: int) -> tuple[int, int]:
            users = sum(1 for req in remaining_queries.values() if kv in req)
            return (-users, kv)  # most shared first, id for determinism

        # Step 1: seed with the most-shared pending ids.
        for kv in sorted(pending, key=share_count):
            if len(phase) >= capacity:
                break
            users = sum(1 for req in remaining_queries.values() if kv in req)
            if users >= 2:
                phase.append(kv)

        # Step 2: fill with ids exclusive to still-unscheduled queries.
        if len(phase) < capacity:
            for kv in sorted(pending, key=share_count):
                if len(phase) >= capacity:
                    break
                if kv in phase:
                    continue
                phase.append(kv)

        phase = phase[:capacity]
        for kv in phase:
            pending.discard(kv)
            for req in remaining_queries.values():
                req.discard(kv)
        remaining_queries = {i: req for i, req in remaining_queries.items() if req}
        phases.append(sorted(phase))

    loads = sum(len(p) for p in phases)
    return ScheduleReport(phases=phases, vector_loads=2 * loads)


#: The worked example of Fig. 15, as drawn in the naive-execution panel:
#: four queries over eight KV pairs with the overlap pattern that makes
#: naive execution load 12 pairs (24 vectors) and RASS only 8 (16 vectors).
FIG15_REQUIREMENTS: list[set[int]] = [
    {0, 1, 2, 3, 4, 5},
    {2, 3, 4, 5, 6, 7},
    {2, 3, 5, 6},
    {0, 1, 4, 7},
]
FIG15_BUFFER_CAPACITY = 6

#: The ID-buffer illustration of Fig. 15's scheduler panel uses a different
#: requirement pattern whose bitmask table is spelled out in the figure
#: (e.g. pairs {5, 6} are exclusive to q3, stored under bitmask "1000").
FIG15_ID_BUFFER_REQUIREMENTS: list[set[int]] = [
    {4, 7},
    {2, 3, 4, 7},
    {0, 1, 2, 3},
    {2, 3, 4, 5, 6, 7},
]


def build_id_buffer(requirements: list[set[int]]) -> dict[str, list[int]]:
    """The RASS ID buffer: query bitmask -> KV ids required by exactly it.

    Matches the hardware structure of Fig. 15: e.g. with 4 queries, buffer
    entry ``"1000"`` holds the ids needed exclusively by query 3 (MSB-first
    bitmask, as drawn in the paper).
    """
    _validate_requirements(requirements)
    n = len(requirements)
    table: dict[str, list[int]] = {}
    all_ids: set[int] = set()
    for req in requirements:
        all_ids |= req
    for kv in sorted(all_ids):
        bits = ["1" if kv in requirements[q] else "0" for q in range(n)]
        mask = "".join(reversed(bits))  # MSB = highest query index
        table.setdefault(mask, []).append(kv)
    return table


def schedule_is_valid(requirements: list[set[int]], report: ScheduleReport) -> bool:
    """Every (query, kv) requirement must appear in some phase's load set."""
    loaded: set[int] = set()
    for phase in report.phases:
        loaded |= set(phase)
    return all(req <= loaded for req in requirements)


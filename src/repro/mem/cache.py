"""Vectorized set-associative SRAM cache model (LRU, write-back, MSHR).

The cache sits between the hash-grid lookup streams and the DRAM timing
model (:mod:`repro.mem.hierarchy` wires the full tier stack): it receives a
stream of line-granular accesses and decides, exactly and deterministically,
which of them are serviced on chip and which must fetch a line from DRAM.

Model semantics (shared by the vectorized engine and the per-access oracle):

* ``num_sets = capacity_bytes / (line_bytes * ways)`` sets, set index is
  ``line_id % num_sets``, tag is ``line_id // num_sets``.
* LRU replacement with invalid ways filled first (lowest way index wins
  ties), last-use order given by the access's stream position.
* Write-back / write-allocate: a write marks the line dirty; evicting a
  dirty line costs one DRAM writeback (dirty-line accounting).
* MSHR-style duplicate-miss coalescing: a missed line stays "in flight"
  for the next ``mshr_latency`` stream slots; accesses that touch an
  in-flight line are coalesced into the outstanding fill — they are neither
  hits nor new DRAM requests.
* Prefetch accesses (flagged by the caller, see :mod:`repro.mem.prefetch`)
  allocate missing lines (one DRAM fetch each) but are dropped without any
  state change when the line is already present; a later demand touch of a
  prefetched line counts it as a useful prefetch.

The vectorized engine processes whole streams as NumPy arrays.
Consecutive same-line accesses within a set collapse into one run (only
run heads can change tag state), and the run heads are swept in "waves":
the t-th head of every set is processed in one vector step, which is exact
because sets are independent and each set contributes at most one head per
wave.  The waves carry only what LRU replacement needs — each way's tag
and last use — and record the way each head lands in.  A head whose way
last held another line is a fill; any other head's *residency*, the fill
that brought its line in, is its way's latest fill.  Everything else
follows from residencies after the sweep: an access inside its
residency's MSHR window coalesces, a residency is dirty when its fill or a
demand touch wrote, and a prefetch-filled residency is useful once a
demand access touches it.
:func:`simulate_cache_reference` is the retained per-access oracle the
engine is equivalence-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any

import numpy as np
from numpy.typing import NDArray

from ..core.scratch import scratch
from ..core.sorting import stable_order

__all__ = [
    "MISS",
    "HIT",
    "COALESCED",
    "PREFETCH_FILL",
    "PREFETCH_REDUNDANT",
    "CacheConfig",
    "CacheStats",
    "simulate_cache",
    "simulate_cache_reference",
]

#: Per-access outcome codes shared by the engine and the oracle.
MISS = 0                #: demand access, line absent: one DRAM line fetch
HIT = 1                 #: demand access serviced by the cache
COALESCED = 2           #: demand access merged into an in-flight MSHR fill
PREFETCH_FILL = 3       #: prefetch access that fetched a new line from DRAM
PREFETCH_REDUNDANT = 4  #: prefetch access dropped (line already present)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry, policy knobs and access energies of one SRAM cache tier.

    Attributes
    ----------
    capacity_bytes:
        Total data capacity.
    line_bytes:
        Cache-line size (power of two; also the DRAM fetch granularity).
    ways:
        Associativity.  ``capacity_bytes // (line_bytes * ways)`` sets must
        come out whole; one set makes the cache fully associative.
    mshr_latency:
        Stream slots a missed line stays in flight (0 disables coalescing).
    access_energy_pj:
        Tag + data array energy of one lookup.
    fill_energy_pj_per_byte:
        Energy of moving one byte on a line fill or writeback.
    """

    capacity_bytes: int = 32 * 1024
    line_bytes: int = 64
    ways: int = 4
    mshr_latency: int = 0
    access_energy_pj: float = 1.2
    fill_energy_pj_per_byte: float = 0.08

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line_bytes must be a positive power of two, got {self.line_bytes}")
        if self.ways <= 0:
            raise ValueError(f"ways must be positive, got {self.ways}")
        if self.capacity_bytes <= 0 or self.capacity_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                f"capacity_bytes ({self.capacity_bytes}) must be a positive multiple of "
                f"line_bytes * ways ({self.line_bytes * self.ways})"
            )
        if self.mshr_latency < 0:
            raise ValueError(f"mshr_latency must be non-negative, got {self.mshr_latency}")
        if self.access_energy_pj < 0 or self.fill_energy_pj_per_byte < 0:
            raise ValueError("access energies must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.ways)

    @classmethod
    def fully_associative(
        cls, capacity_bytes: int, line_bytes: int = 64, **kwargs: Any
    ) -> "CacheConfig":
        """A single-set cache whose associativity equals its line count."""
        return cls(
            capacity_bytes=capacity_bytes,
            line_bytes=line_bytes,
            ways=max(1, capacity_bytes // line_bytes),
            **kwargs,
        )


@dataclass(frozen=True)
class CacheStats:
    """Exact outcome counts of one simulated stream."""

    demand_accesses: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    prefetch_issued: int = 0
    prefetch_fills: int = 0
    prefetch_redundant: int = 0
    prefetch_useful: int = 0
    writebacks: int = 0
    dirty_lines_left: int = 0
    line_bytes: int = 64

    @property
    def hit_rate(self) -> float:
        """Demand hits per demand access (coalesced accesses are not hits)."""
        return self.hits / self.demand_accesses if self.demand_accesses else 0.0

    @property
    def dram_line_fetches(self) -> int:
        """Lines read from DRAM: demand misses plus prefetch fills."""
        return self.misses + self.prefetch_fills

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched lines later touched by a demand access."""
        return self.prefetch_useful / self.prefetch_fills if self.prefetch_fills else 0.0

    def energy_j(self, config: CacheConfig) -> float:
        """SRAM access + fill/writeback movement energy of the stream."""
        lookups = self.demand_accesses + self.prefetch_issued
        moved = (self.dram_line_fetches + self.writebacks) * self.line_bytes
        return (lookups * config.access_energy_pj + moved * config.fill_energy_pj_per_byte) * 1e-12


def _as_flags(flags: NDArray[Any] | None, n: int, name: str) -> NDArray[Any]:
    if flags is None:
        return np.zeros(n, dtype=bool)
    out = np.asarray(flags, dtype=bool).ravel()
    if out.size != n:
        raise ValueError(f"{name} must have one entry per access ({n}), got {out.size}")
    return out


def _build_stats(
    counts: NDArray[Any], writebacks: int, useful: int, dirty_left: int, config: CacheConfig
) -> CacheStats:
    """Stats from the per-outcome ``counts`` (``bincount`` of the outcome codes)."""
    return CacheStats(
        demand_accesses=int(counts[MISS] + counts[HIT] + counts[COALESCED]),
        hits=int(counts[HIT]),
        misses=int(counts[MISS]),
        coalesced=int(counts[COALESCED]),
        prefetch_issued=int(counts[PREFETCH_FILL] + counts[PREFETCH_REDUNDANT]),
        prefetch_fills=int(counts[PREFETCH_FILL]),
        prefetch_redundant=int(counts[PREFETCH_REDUNDANT]),
        prefetch_useful=useful,
        writebacks=writebacks,
        dirty_lines_left=dirty_left,
        line_bytes=config.line_bytes,
    )


def simulate_cache(
    line_ids: NDArray[Any],
    config: CacheConfig,
    is_write: NDArray[Any] | None = None,
    is_prefetch: NDArray[Any] | None = None,
    streams: NDArray[Any] | None = None,
) -> tuple[NDArray[Any], CacheStats]:
    """Simulate a line-access stream; returns per-access outcomes and stats.

    Parameters
    ----------
    line_ids:
        Flat integer array of line addresses (byte address // line size) in
        stream order.
    config:
        Cache geometry and policy.
    is_write / is_prefetch:
        Optional per-access flags (default all-reads, all-demand).
    streams:
        Optional stream id per access, non-decreasing: the accesses of one
        stream are consecutive.  Each stream starts cold, on empty sets, so
        every stream gets exactly the outcomes it would get alone, and
        ``stats`` sums the streams' stats.

    Returns
    -------
    (outcomes, stats):
        ``outcomes`` holds one of the module's outcome codes per access;
        ``stats`` the aggregate :class:`CacheStats`.  Exactly equivalent to
        :func:`simulate_cache_reference`.

    Runs are found by one compare of the set-sorted line ids, and only run
    heads are split into set and tag.  A head's wave is its within-set
    ordinal: its index less a prefix sum of the per-set head counts.  The
    sweep keeps, per way, the tag (``-1`` while invalid) and the last use,
    which a redundant prefetch leaves as it was, and records the way each
    head lands in.  Sorted by way, each way's heads are in stream order: a
    head fills unless the one before it held its line, and its residency
    is the latest fill.  An access coalesces when it comes before its
    residency's fill completes (``fill position + 1 + mshr_latency``); the
    dirty and useful-prefetch rules are in the module docstring.  Write and
    prefetch bookkeeping is skipped when no access is flagged.  With
    ``streams`` the sets of each stream are its own: accesses sort by
    stream, then set, and one wave holds the next head of every used
    (stream, set) pair, so all streams sweep together.
    """
    lines = np.asarray(line_ids, dtype=np.int64).ravel()
    n = lines.size
    outcomes = np.empty(n, dtype=np.int8)
    if n == 0:
        return outcomes, _build_stats(np.zeros(5, dtype=np.int64), 0, 0, 0, config)
    if lines.min() < 0:
        raise ValueError("line ids must be non-negative")
    writes = _as_flags(is_write, n, "is_write")
    prefetches = _as_flags(is_prefetch, n, "is_prefetch")
    has_writes, has_prefetches = writes.any(), prefetches.any()
    num_sets, ways, mshr = config.num_sets, config.ways, config.mshr_latency
    num_streams = 1 if streams is None else int(streams[-1]) + 1

    # Access- and run-length temporaries live in this thread's scratch pool
    # (int64 slots 0-9, bool slots 0-6, int8 slot 0, and slots 8 and 9 in
    # the LRU state's dtype in pass 4).  ``take`` writes straight into a
    # slot only with ``mode="clip"``, which leaves in-range indices as they
    # are, and bools are copied into an int64 slot before a cumsum, which
    # would otherwise buffer a cast copy.
    # Pass 1 — group accesses by set, keeping stream order inside each set.
    # ``by_set`` holds each sorted access's stream position: the LRU clock.
    set_of = np.remainder(lines, num_sets, out=scratch(0, n, np.int64))
    by_set = stable_order(set_of, num_sets, streams, num_streams)
    sorted_lines = lines.take(by_set, out=scratch(0, n, np.int64), mode="clip")

    # Pass 2 — runs of equal line ids in the set-sorted stream (equal lines
    # have equal set and tag): only a run's head can change tag state; its
    # members are hits or MSHR coalesces.  Prefetch accesses never merge: a
    # dropped prefetch must not refresh LRU state.
    head, apart = scratch(0, n, bool), scratch(1, n, bool)
    head[0] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=head[1:])
    if streams is not None:
        stream_sorted = streams.take(by_set, out=scratch(1, n, np.int64), mode="clip")
        head[1:] |= np.not_equal(stream_sorted[1:], stream_sorted[:-1], out=apart[1:])
    if has_prefetches:
        f_sorted = prefetches.take(by_set, out=scratch(2, n, bool), mode="clip")
        head[1:] |= np.logical_or(f_sorted[1:], f_sorted[:-1], out=apart[1:])
    head_idx = head.nonzero()[0]
    num_runs = head_idx.size
    run_end = scratch(1, num_runs, np.int64)
    run_end[:-1], run_end[-1] = head_idx[1:], n
    line_h = sorted_lines.take(head_idx, out=scratch(2, num_runs, np.int64), mode="clip")
    p_h = by_set.take(head_idx, out=scratch(3, num_runs, np.int64), mode="clip")
    f_h = prefetches.take(p_h, out=scratch(3, num_runs, bool), mode="clip")
    stream_h = None
    if streams is not None:
        stream_h = streams.take(p_h, out=scratch(4, num_runs, np.int64), mode="clip")

    # Pass 3 — wave schedule: a head's within-set ordinal is its index minus
    # the index of its set's first head (a prefix sum of per-set counts), and
    # wave t, one contiguous slice of the heads sorted by ordinal, holds the
    # t-th head of every set.  Sets are independent and appear at most once
    # per wave, so each wave is one race-free vector step.  With streams a
    # "set" is a used (stream, set) pair, numbered densely in sorted order.
    set_h = np.remainder(line_h, num_sets, out=scratch(5, num_runs, np.int64))
    if stream_h is None:
        group_h, num_groups = set_h, num_sets
    else:
        new_group = np.not_equal(set_h[1:], set_h[:-1], out=scratch(1, num_runs - 1, bool))
        new_group |= np.not_equal(stream_h[1:], stream_h[:-1], out=scratch(2, num_runs - 1, bool))
        group_h = scratch(6, num_runs, np.int64)
        group_h[0], group_h[1:] = 0, new_group
        np.cumsum(group_h, out=group_h)
        num_groups = int(group_h[-1]) + 1
    per_set = np.bincount(group_h, minlength=num_groups)
    positions = np.arange(num_runs)
    ordinal = (per_set.cumsum() - per_set).take(
        group_h, out=scratch(7, num_runs, np.int64), mode="clip"
    )
    np.subtract(positions, ordinal, out=ordinal)
    by_wave = stable_order(ordinal, int(per_set.max()))
    bounds = np.bincount(ordinal).cumsum().tolist()

    # Pass 4 — the sweep over flat (set, way) slots: ``slot_g`` starts at
    # each head's set row and gains its way.  A -1 tag never matches and a
    # -1 last use makes LRU fill invalid ways first, lowest way first.  Tags
    # and last uses are 32-bit when line ids and positions fit, which halves
    # the state and the rows each wave takes.
    state = np.int32 if max(int(lines.max()), n) < 2**31 else np.int64
    t_g = np.floor_divide(
        line_h.take(by_wave, out=scratch(7, num_runs, np.int64), mode="clip"),
        num_sets,
        out=scratch(8, num_runs, state),
    )
    s_g = group_h.take(by_wave, out=scratch(7, num_runs, np.int64), mode="clip")
    last = run_end.take(by_wave, out=scratch(0, num_runs, np.int64), mode="clip")
    last -= 1
    lp_g = scratch(9, num_runs, state)  # a run's last use
    lp_g[:] = by_set.take(last, out=scratch(1, num_runs, np.int64), mode="clip")
    f_g = f_h.take(by_wave, out=scratch(1, num_runs, bool), mode="clip")
    slot_g = np.multiply(s_g, ways, out=scratch(0, num_runs, np.int64))
    t_col = t_g[:, None]
    tag_state = np.full(num_groups * ways, -1, dtype=state)
    last_used = np.full(num_groups * ways, -1, dtype=state)
    tag_rows, lru_rows = tag_state.reshape(num_groups, ways), last_used.reshape(num_groups, ways)
    lo = 0
    for hi in bounds:
        s, t, slot, lp = s_g[lo:hi], t_g[lo:hi], slot_g[lo:hi], lp_g[lo:hi]
        lru = lru_rows.take(s, axis=0)
        np.putmask(lru, tag_rows.take(s, axis=0) == t_col[lo:hi], -2)  # a present line stays
        slot += lru.argmin(axis=1)
        if has_prefetches:  # a dropped prefetch keeps its way's last use
            lp = np.where(f_g[lo:hi] & (tag_state[slot] == t), last_used[slot], lp)
        tag_state[slot] = t
        last_used[slot] = lp
        lo = hi

    # Pass 5 — residencies: among a slot's heads in stream order, a head is
    # a fill unless the head before it held the same line, and its residency
    # is the latest fill.  A stream's (set, way) order is its slot order.
    slot_h = scratch(1, num_runs, np.int64)
    slot_h[by_wave] = slot_g
    if stream_h is None:
        by_slot = stable_order(slot_h, num_sets * ways)
    else:  # the way is the slot less its (stream, set) row
        key = np.multiply(set_h, ways, out=scratch(7, num_runs, np.int64))
        key += slot_h
        key -= np.multiply(group_h, ways, out=group_h)
        by_slot = stable_order(key, num_sets * ways, stream_h, num_streams)
    slot_s = slot_h.take(by_slot, out=scratch(8, num_runs, np.int64), mode="clip")
    line_s = line_h.take(by_slot, out=scratch(9, num_runs, np.int64), mode="clip")
    slot_end, fill_s = scratch(1, num_runs, bool), scratch(2, num_runs, bool)
    slot_end[-1] = fill_s[0] = True
    np.not_equal(slot_s[1:], slot_s[:-1], out=slot_end[:-1])
    np.not_equal(line_s[1:], line_s[:-1], out=fill_s[1:])
    fill_s[1:] |= slot_end[:-1]
    latest = np.multiply(fill_s, positions, out=scratch(0, num_runs, np.int64))
    np.maximum.accumulate(latest, out=latest)
    latest_fill = by_slot.take(latest, out=scratch(2, num_runs, np.int64), mode="clip")
    residency = scratch(4, num_runs, np.int64)
    residency[by_slot] = latest_fill
    fill = scratch(4, num_runs, bool)
    fill[by_slot] = fill_s
    demand = np.logical_not(f_h, out=scratch(5, num_runs, bool))
    writebacks = useful = dirty_left = 0
    if has_writes:
        # A residency is dirty when its fill or a demand touch wrote
        # (prefetch fills start clean); it ends with a writeback unless it
        # is still cached, as the last residency of its slot.
        write_sorted = writes.take(by_set, out=scratch(6, n, bool), mode="clip")
        run_write = np.logical_or.reduceat(write_sorted, head_idx, out=scratch(2, num_runs, bool))
        dirty = scratch(6, num_runs, bool)
        dirty.fill(False)
        dirty[residency.compress(np.logical_and(demand, run_write, out=run_write))] = True
        dirty_left = int(np.count_nonzero(dirty[latest_fill.compress(slot_end)]))
        writebacks = int(np.count_nonzero(dirty)) - dirty_left
    if has_prefetches:
        # A prefetch-filled residency is useful once a demand access touches it.
        touched = scratch(6, num_runs, bool)
        touched.fill(False)
        touched[residency.compress(demand)] = True
        useful = int(np.count_nonzero(np.logical_and(touched, f_h, out=touched)))

    # An access before its residency's fill completes coalesces into it.
    fill_done = p_h.take(residency, out=scratch(5, num_runs, np.int64), mode="clip")
    fill_done += 1 + mshr
    run_of = scratch(6, n, np.int64)
    run_of[:] = head
    np.cumsum(run_of, out=run_of)
    run_of -= 1
    coalesced = np.less(
        by_set,
        fill_done.take(run_of, out=scratch(7, n, np.int64), mode="clip"),
        out=scratch(1, n, bool),
    )
    out = scratch(0, n, np.int8)
    out.fill(HIT)
    np.copyto(out, COALESCED, where=coalesced)
    out[head_idx.compress(fill)] = MISS
    if has_prefetches:
        out[head_idx.compress(f_h)] = np.where(fill[f_h], PREFETCH_FILL, PREFETCH_REDUNDANT)
    outcomes[by_set] = out
    counts = np.bincount(outcomes, minlength=5)
    return outcomes, _build_stats(counts, writebacks, useful, dirty_left, config)


def simulate_cache_reference(
    line_ids: NDArray[Any],
    config: CacheConfig,
    is_write: NDArray[Any] | None = None,
    is_prefetch: NDArray[Any] | None = None,
) -> tuple[NDArray[Any], CacheStats]:
    """Per-access loop oracle for :func:`simulate_cache`.

    One plain-Python state machine step per access; kept as the reference
    implementation the vectorized engine is tested against — do not use on
    paper-scale streams.
    """
    lines = np.asarray(line_ids, dtype=np.int64).ravel()
    n = lines.size
    outcomes = np.empty(n, dtype=np.int8)
    if n and np.any(lines < 0):
        raise ValueError("line ids must be non-negative")
    writes = _as_flags(is_write, n, "is_write")
    prefetches = _as_flags(is_prefetch, n, "is_prefetch")
    num_sets, ways, mshr = config.num_sets, config.ways, config.mshr_latency

    # Per set, per way: [tag, last_used, dirty, fill_done, prefetched]
    state: dict[int, list[list[int]]] = {}
    writebacks = 0
    useful = 0
    for p in range(n):
        line = int(lines[p])
        s, tag = line % num_sets, line // num_sets
        ways_state = state.setdefault(s, [[0, -1, False, 0, False] for _ in range(ways)])
        way = next(
            (w for w in range(ways) if ways_state[w][1] >= 0 and ways_state[w][0] == tag), None
        )
        if prefetches[p]:
            if way is None:
                victim = min(range(ways), key=lambda w: (ways_state[w][1], w))
                if ways_state[victim][1] >= 0 and ways_state[victim][2]:
                    writebacks += 1
                ways_state[victim][:] = [tag, p, False, p + 1 + mshr, True]
                outcomes[p] = PREFETCH_FILL
            else:
                outcomes[p] = PREFETCH_REDUNDANT
        elif way is not None:
            outcomes[p] = COALESCED if p < ways_state[way][3] else HIT
            ways_state[way][1] = p
            ways_state[way][2] = ways_state[way][2] or bool(writes[p])
            if ways_state[way][4]:
                useful += 1
                ways_state[way][4] = False
        else:
            victim = min(range(ways), key=lambda w: (ways_state[w][1], w))
            if ways_state[victim][1] >= 0 and ways_state[victim][2]:
                writebacks += 1
            ways_state[victim][:] = [tag, p, bool(writes[p]), p + 1 + mshr, False]
            outcomes[p] = MISS
    dirty_left = sum(
        1 for ways_state in state.values() for w in ways_state if w[1] >= 0 and w[2]
    )
    counts = np.bincount(outcomes, minlength=5)
    return outcomes, _build_stats(counts, writebacks, useful, dirty_left, config)

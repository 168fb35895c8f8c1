"""SADS: sphere-search aided distributed sorting (Sec. III-B).

SADS exploits the Distributed Cluster Effect: attention rows are dominated by
values that are *spread across* the row (Type-I/II of Fig. 8), so a row of
length S can be split into n sub-segments that each select their own
top-(k/n) with little loss versus an exact full-row top-k.

Mechanisms modeled here, mirroring the hardware engine (Fig. 13):

* **Distributed selection** - each segment independently selects top-(k/n)
  through an iterative 16-to-4 bitonic core (12 fresh inputs merged with the
  4 best carried values per round); comparator work is counted per round.
* **Sphere-search clipping** - a threshold ``max(running_max - radius,
  current_min_of_buffer)`` suppresses hopeless candidates before sorting;
  clipped values cost no comparator switching (power) but are counted as one
  threshold comparison.
* **Adjustive exchange** - after the distributed pass, up to ``adjust_rounds``
  iterations compare the *minimum* of the selected virtual-top-k against the
  *maximum* of the excluded pool and swap when out of order (Fig. 9 step 2),
  repairing cross-segment imbalance (the Type-III failure case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SadsConfig
from repro.numerics.complexity import OpCounter


def _bitonic_rounds(n_items: int, fresh_per_round: int) -> int:
    """Rounds an iterative sorter needs to stream ``n_items`` inputs."""
    if n_items <= 0:
        return 0
    return -(-n_items // fresh_per_round)


def _bitonic_comparators(width: int) -> int:
    """Comparator count of one pass of a ``width``-input bitonic network.

    A full bitonic sorting network of width w uses w/2 * log2(w) * (log2(w)+1)/2
    comparators; the engine prunes the network because only the top-4 need
    full ordering (paper: the 3rd..k-th order is inconsequential), which
    removes roughly the final ordering stage - about log2(w)/ (log2(w)+1) of
    comparators remain.
    """
    if width < 2:
        return 0
    stages = int(np.log2(width))
    full = (width // 2) * stages * (stages + 1) // 2
    pruned = full * stages // (stages + 1)
    return max(pruned, 1)


def _stable_head(block: np.ndarray, m: int) -> np.ndarray:
    """``np.argsort(-block, axis=1, kind="stable")[:, :m]`` without a full stable sort.

    An unstable argsort orders values the same way but may permute equal
    ones.  If a row's first ``m + 1`` sorted values are strictly
    decreasing, its top ``m`` set and their order are forced, so the
    unstable head equals the stable one.  The extra entry catches a tie
    across the cut.  Rows with any adjacent tie (signed zeros compare
    equal) redo the stable argsort, which breaks ties by index.  NaN
    compares unequal to everything, so callers must reject it first.
    """
    neg = -block
    if m >= neg.shape[1]:
        return np.argsort(neg, axis=1, kind="stable")
    head = np.argsort(neg, axis=1)[:, : m + 1]
    vals = neg[np.arange(neg.shape[0])[:, None], head]
    ties = vals[:, 1:] == vals[:, :-1]
    head = head[:, :m]
    if ties.any():
        tied = np.flatnonzero(ties.any(axis=1))
        head[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :m]
    return head


def _reject_nan(seg_max: "np.ndarray | float") -> None:
    """Raise on NaN scores, found through the segment max (NaN propagates)."""
    if np.isnan(seg_max).any():
        raise ValueError("score rows must not contain NaN")


@dataclass
class SadsRowResult:
    """SADS output for one attention row.

    ``indices`` are global column indices sorted by descending estimated
    score - the order SU-FA consumes (the first entry is the predicted Max).
    """

    indices: np.ndarray
    ops: OpCounter
    clipped: int


@dataclass
class SadsResult:
    """Batched SADS output for a (T, S) score-estimate matrix."""

    indices: np.ndarray  # (T, k) global indices, descending estimated score
    ops: OpCounter
    clipped_fraction: float


@dataclass
class SadsStackResult:
    """Row-resolved SADS output for an arbitrary stack of score rows.

    This is the engine-facing variant: op counts stay per-row so a caller
    batching many heads can re-aggregate them per head without losing the
    exact totals the per-head sequential path reports.
    """

    indices: np.ndarray  # (R, k)
    compare_rows: np.ndarray  # (R,) raw comparator counts
    clipped_rows: np.ndarray  # (R,) clipped candidate counts

    def row_ops(self, row: int) -> OpCounter:
        ops = OpCounter()
        ops.add_op("compare", float(self.compare_rows[row]))
        return ops


class SadsSorter:
    """Distributed top-k selector with sphere clipping and adjustive exchange."""

    def __init__(self, config: SadsConfig | None = None):
        self.config = config or SadsConfig()
        if self.config.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if self.config.radius <= 0:
            raise ValueError("radius must be positive")

    # ------------------------------------------------------------------ row
    def select_row(self, row: np.ndarray, k: int) -> SadsRowResult:
        """Select k indices from one row, distributed over n sub-segments.

        Routed through the vectorized :meth:`select_stack` core as a
        one-row stack, so the single-row and stack paths share one
        implementation; :meth:`select_row_reference` keeps the sequential
        per-segment walk as the golden model, and ``test_core_sads``
        asserts the two agree exactly (indices, comparator counts, clipped
        tallies).
        """
        stack = self.select_stack(np.asarray(row, dtype=np.float64)[None, :], k)
        ops = OpCounter()
        ops.add_op("compare", float(stack.compare_rows[0]))
        return SadsRowResult(
            indices=stack.indices[0],
            ops=ops,
            clipped=int(stack.clipped_rows[0]),
        )

    def select_row_reference(self, row: np.ndarray, k: int) -> SadsRowResult:
        """Sequential single-row selection (the golden model for tests).

        Walks the segment grid one segment at a time with the scalar
        clipping threshold, exactly as the hardware schedules one row; the
        vectorized :meth:`select_stack` must reproduce its indices, op
        counts and clipped tallies row for row.  A row holding NaN raises
        :class:`ValueError`.
        """
        row = np.asarray(row, dtype=np.float64)
        s = row.size
        if not 1 <= k <= s:
            raise ValueError(f"k={k} out of range for row of length {s}")
        n = min(self.config.n_segments, k, s)
        bounds = np.linspace(0, s, n + 1, dtype=np.int64)
        quota = self._capped_quotas(k, bounds)

        ops = OpCounter()
        clipped_total = 0
        running_max = -np.inf
        selections: list[np.ndarray] = []
        for seg in range(n):
            lo, hi = int(bounds[seg]), int(bounds[seg + 1])
            seg_vals = row[lo:hi]
            sel, seg_ops, clipped, seg_max = self._select_segment(
                seg_vals, quota[seg], running_max
            )
            _reject_nan(seg_max)
            running_max = max(running_max, seg_max)
            selections.append(sel + lo)
            ops = ops + seg_ops
            clipped_total += clipped

        indices = np.concatenate(selections)
        indices, exch_ops = self._adjustive_exchange(row, indices, k)
        ops = ops + exch_ops

        order = np.argsort(-row[indices], kind="stable")
        ops.add_op("compare", _final_merge_compares(k, n))
        return SadsRowResult(indices=indices[order], ops=ops, clipped=clipped_total)

    # ---------------------------------------------------------------- batch
    def select(self, scores: np.ndarray, k: int) -> SadsResult:
        """Row-parallel selection over a (T, S) estimate matrix.

        Runs the vectorized :meth:`select_stack` core; each row's indices and
        comparator counts are bit-identical to :meth:`select_row` on that row
        (the single-row path is kept as the golden reference and the parity
        is asserted by the engine test suite).
        """
        stack = self.select_stack(scores, k)
        ops = OpCounter()
        ops.add_op("compare", float(stack.compare_rows.sum()))
        total = np.asarray(scores).size
        clipped = int(stack.clipped_rows.sum())
        return SadsResult(
            indices=stack.indices,
            ops=ops,
            clipped_fraction=clipped / total if total else 0.0,
        )

    def select_stack(self, scores: np.ndarray, k: int) -> SadsStackResult:
        """Vectorized distributed top-k over a ``(R, S)`` stack of rows.

        :meth:`select_stack_streamed` over column slices of ``scores``: every
        row of every head in a batch runs through the same segment grid in
        lockstep, and per-row comparator tallies are returned so callers can
        group them back per head.  Row semantics (selection, ordering, tie
        breaks, op counts) exactly match :meth:`select_row_reference`.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("scores must be 2-D")
        r, s = scores.shape
        return self.select_stack_streamed(
            lambda seg, lo, hi: scores[:, lo:hi], r, s, k
        )

    def select_stack_streamed(
        self, tile_fn, n_rows: int, row_len: int, k: int
    ) -> SadsStackResult:
        """Distributed top-k over *streamed* score tiles.

        ``tile_fn(seg, lo, hi)`` must return the ``(n_rows, hi - lo)``
        float64 score block of segment ``seg`` (columns ``lo:hi`` of the
        conceptual ``(n_rows, row_len)`` score matrix).  Each row's
        selection - indices, ordering, tie breaks, comparator and clipped
        tallies - is **bit-identical** to :meth:`select_row_reference` on
        that row, but no state larger than one segment block (plus O(rows *
        k) selection state) is ever held: this is the entry point of the
        fused predict+select kernel, which feeds DLZS score tiles straight
        from the prediction matmul.

        Exactness argument, stage by stage:

        * the per-segment pass consumes only the segment block: the
          top-quota set is threshold-independent (clipping only suppresses
          comparator switching), so selection is a stable descending sort;
          the survivor count drives op/power accounting and the
          below-quota hardware fallback;
        * the adjustive exchange needs, per round, the *maximum excluded*
          entry under numpy's argmax tie-break (value descending, then
          lowest index).  A per-row pool of the top-``adjust_rounds``
          excluded candidates in exactly that order is sufficient: each
          exchange round removes at most the pool head and re-inserts the
          swapped-out selected value, so the pool's real population never
          shrinks, and any excluded entry outside a segment's top-
          ``adjust_rounds`` is dominated (value, then index) by ones
          inside it, for every round;
        * the final descending reorder uses the retained selected values,
          which are the scores at the selected indices by construction.

        NaN has no place in that (value desc, index asc) order, so a row
        holding one raises :class:`ValueError`, as in
        :meth:`select_row_reference`.
        """
        r, s = int(n_rows), int(row_len)
        if not 1 <= k <= s:
            raise ValueError(f"k={k} out of range for row of length {s}")
        n = min(self.config.n_segments, k, s)
        bounds = np.linspace(0, s, n + 1, dtype=np.int64)
        quotas = self._capped_quotas(k, bounds)
        fresh = max(self.config.sorter_width - self.config.sorter_keep, 1)
        per_pass = _bitonic_comparators(self.config.sorter_width)
        rounds = self.config.adjust_rounds

        rows = np.arange(r)[:, None]
        compare_rows = np.zeros(r, dtype=np.float64)
        clipped_rows = np.zeros(r, dtype=np.int64)
        running_max = np.full(r, -np.inf)
        chosen_parts: list[np.ndarray] = []
        chosen_val_parts: list[np.ndarray] = []
        # Each segment's top-`rounds` excluded (value, index) candidates, in
        # (value desc, index asc) order within the segment.
        extra_val_parts: list[np.ndarray] = []
        extra_idx_parts: list[np.ndarray] = []

        for seg in range(n):
            lo, hi = int(bounds[seg]), int(bounds[seg + 1])
            block = np.asarray(tile_fn(seg, lo, hi), dtype=np.float64)
            if block.shape != (r, hi - lo):
                raise ValueError(
                    f"tile_fn returned {block.shape}, expected {(r, hi - lo)}"
                )
            width = hi - lo
            quota = int(quotas[seg])
            seg_max = block.max(axis=1)
            _reject_nan(seg_max)
            if quota > 0:
                threshold = np.where(
                    np.isfinite(running_max), running_max - self.config.radius, -np.inf
                )
                survivors = (block >= threshold[:, None]).sum(axis=1)
                take = min(quota, width)
                # The chosen entries, then the segment's top excluded
                # candidates: the head of a stable descending argsort.
                head = _stable_head(block, take + rounds)
                head_vals = block[rows, head]
                chosen_parts.append(head[:, :take] + lo)
                chosen_val_parts.append(head_vals[:, :take])
                cand = np.where(survivors < quota, take, survivors)
                clipped_rows += width - cand
                compare_rows += width  # threshold check on every element
                compare_rows += (-(-cand // fresh)) * per_pass
                if take < head.shape[1]:
                    extra_val_parts.append(head_vals[:, take:])
                    extra_idx_parts.append(head[:, take:] + lo)
            running_max = np.maximum(running_max, seg_max)

        # Excluded-candidate pool: per row, the top-`rounds` excluded
        # candidates in argmax tie-break order.  Segments arrive in index
        # order, so one stable sort on value keeps index ascending among
        # ties.  Padding sorts last: -inf value, out-of-range index.
        m_pool = max(rounds, 1)
        pad_vals = np.full((r, m_pool), -np.inf)
        pad_idx = np.full((r, m_pool), s, dtype=np.int64)
        cand_vals = np.concatenate(extra_val_parts + [pad_vals], axis=1)
        cand_idx = np.concatenate(extra_idx_parts + [pad_idx], axis=1)
        top = np.argsort(-cand_vals, axis=1, kind="stable")[:, :m_pool]
        pool_vals = np.take_along_axis(cand_vals, top, axis=1)
        pool_idx = np.take_along_axis(cand_idx, top, axis=1)

        sel = np.concatenate(chosen_parts, axis=1)[:, :k]
        selvals = np.concatenate(chosen_val_parts, axis=1)[:, :k]
        compare_rows += self._pooled_exchange(
            sel, selvals, pool_vals, pool_idx, s, k
        )

        order = np.argsort(-selvals, axis=1, kind="stable")
        indices = np.take_along_axis(sel, order, axis=1)
        compare_rows += _final_merge_compares(k, n)
        return SadsStackResult(
            indices=indices, compare_rows=compare_rows, clipped_rows=clipped_rows
        )

    def _pooled_exchange(
        self,
        sel: np.ndarray,
        selvals: np.ndarray,
        pool_vals: np.ndarray,
        pool_idx: np.ndarray,
        s: int,
        k: int,
    ) -> np.ndarray:
        """Adjustive exchange against the excluded-candidate pool (in place).

        Replicates :meth:`_adjustive_exchange` for every row in lockstep,
        without an ``(R, S)`` excluded mask: the pool head *is* the
        reference's ``argmax(where(excluded_mask, row, -inf))`` (same value,
        same tie-break), and a swap removes the head and re-inserts the
        swapped-out selected entry at its (value desc, index asc) pool
        position - the pool's real population is invariant under swaps, so
        ``adjust_rounds`` entries are enough for ``adjust_rounds`` rounds.
        Mutates ``sel``/``selvals``; returns per-row comparator counts.
        """
        rounds = self.config.adjust_rounds
        r, k_sel = sel.shape
        compare_rows = np.zeros(r, dtype=np.float64)
        if rounds <= 0:
            return compare_rows
        rows = np.arange(r)
        # A row has excluded candidates iff s > k - constant across rounds,
        # because every swap removes one excluded entry and adds another.
        alive = np.full(r, s > k_sel, dtype=bool)
        m_pool = pool_vals.shape[1]
        for _ in range(rounds):
            if not alive.any():
                break
            min_pos = np.argmin(selvals, axis=1)
            min_val = selvals[rows, min_pos]
            min_idx = sel[rows, min_pos]
            exc_val = pool_vals[:, 0]
            exc_idx = pool_idx[:, 0]
            compare_rows[alive] += k_sel + 1
            swap = alive & (exc_val > min_val)
            if swap.any():
                sw = np.flatnonzero(swap)
                sel[sw, min_pos[sw]] = exc_idx[sw]
                selvals[sw, min_pos[sw]] = exc_val[sw]
                # Pool update: drop the consumed head, then insert the
                # swapped-out (value, index) at its sorted position (the
                # freed padding slot absorbs the shift).
                pv = pool_vals[sw]
                pi = pool_idx[sw]
                pv[:, :-1] = pv[:, 1:]
                pi[:, :-1] = pi[:, 1:]
                pv[:, -1] = -np.inf
                pi[:, -1] = s
                ins_val = min_val[sw]
                ins_idx = min_idx[sw]
                before = (pv > ins_val[:, None]) | (
                    (pv == ins_val[:, None]) & (pi < ins_idx[:, None])
                )
                pos = before.sum(axis=1)  # prefix property: pv stays sorted
                for j in range(m_pool):
                    shifted_v = pv[:, j - 1] if j > 0 else ins_val
                    shifted_i = pi[:, j - 1] if j > 0 else ins_idx
                    keep = pos > j
                    here = pos == j
                    pool_vals[sw, j] = np.where(
                        keep, pv[:, j], np.where(here, ins_val, shifted_v)
                    )
                    pool_idx[sw, j] = np.where(
                        keep, pi[:, j], np.where(here, ins_idx, shifted_i)
                    )
            alive = swap
        return compare_rows

    # ------------------------------------------------------------- internals
    def _segment_quotas(self, k: int, n: int) -> np.ndarray:
        """Distribute k across n segments (first segments absorb remainder)."""
        base, rem = divmod(k, n)
        quotas = np.full(n, base, dtype=np.int64)
        quotas[:rem] += 1
        return quotas

    def _capped_quotas(self, k: int, bounds: np.ndarray) -> np.ndarray:
        """Width-aware quotas: never assign a segment more than it holds.

        The even split can exceed a narrow segment's width when k approaches
        S (e.g. select-all over uneven tiles); the overflow re-distributes
        round-robin into segments with spare capacity so exactly k indices
        are always selected.
        """
        widths = np.diff(bounds)
        quotas = np.minimum(self._segment_quotas(k, widths.size), widths)
        shortfall = k - int(quotas.sum())
        while shortfall > 0:
            for i in range(widths.size):
                if shortfall <= 0:
                    break
                if quotas[i] < widths[i]:
                    quotas[i] += 1
                    shortfall -= 1
        return quotas

    def _select_segment(
        self, values: np.ndarray, quota: int, running_max: float
    ) -> tuple[np.ndarray, OpCounter, int, float]:
        """Top-``quota`` of one segment through the clipping + sorting model."""
        ops = OpCounter()
        if quota <= 0:
            return np.empty(0, dtype=np.int64), ops, 0, float(values.max(initial=-np.inf))

        seg_max = float(values.max()) if values.size else -np.inf
        threshold = running_max - self.config.radius if np.isfinite(running_max) else -np.inf
        survivors = values >= threshold
        # Never clip below quota: hardware falls back to keeping the segment's
        # own largest values when the threshold is too aggressive.
        if survivors.sum() < quota:
            keep = np.argsort(-values, kind="stable")[:quota]
            survivors = np.zeros_like(survivors)
            survivors[keep] = True
        clipped = int(values.size - survivors.sum())
        ops.add_op("compare", values.size)  # threshold check on every element

        candidate_idx = np.flatnonzero(survivors)
        cand_vals = values[candidate_idx]
        order = np.argsort(-cand_vals, kind="stable")
        chosen = candidate_idx[order[:quota]]

        fresh = self.config.sorter_width - self.config.sorter_keep
        rounds = _bitonic_rounds(cand_vals.size, max(fresh, 1))
        ops.add_op("compare", rounds * _bitonic_comparators(self.config.sorter_width))
        return chosen.astype(np.int64), ops, clipped, seg_max

    def _adjustive_exchange(
        self, row: np.ndarray, indices: np.ndarray, k: int
    ) -> tuple[np.ndarray, OpCounter]:
        """Swap selected-min with excluded-max while out of order (Fig. 9).

        The selected set is kept as an array in segment-concatenation order
        with in-place swaps, so tie-breaking is deterministic and the
        vectorized :meth:`_pooled_exchange` can reproduce it row for row.
        """
        ops = OpCounter()
        rounds = self.config.adjust_rounds
        indices = np.array(indices[:k], dtype=np.int64)
        if rounds <= 0:
            return indices, ops
        excluded_mask = np.ones(row.size, dtype=bool)
        excluded_mask[indices] = False
        for _ in range(rounds):
            if not excluded_mask.any():
                break
            min_pos = int(np.argmin(row[indices]))
            excluded_vals = np.where(excluded_mask, row, -np.inf)
            exc_idx = int(np.argmax(excluded_vals))
            # The threshold-updating unit tracks the excluded maximum as a
            # side effect of the clipping pass, so one exchange round only
            # pays a min-scan over the k selected values plus the swap check.
            ops.add_op("compare", indices.size + 1)
            # Compare the masked value: when every excluded entry is -inf,
            # argmax lands on a selected index, which must never be swapped in.
            if excluded_vals[exc_idx] <= row[indices[min_pos]]:
                break  # "If the min >= the max: End"
            excluded_mask[exc_idx] = False
            excluded_mask[indices[min_pos]] = True
            indices[min_pos] = exc_idx
        return indices, ops


def _final_merge_compares(k: int, n_segments: int) -> float:
    """Comparator cost of merging n sorted quota lists into descending order."""
    if k <= 1:
        return 0.0
    return float(k * max(int(np.ceil(np.log2(max(n_segments, 2)))), 1))


def vanilla_sort_ops(s: int, k: int) -> OpCounter:
    """Comparator tally of a full-row top-k (the baseline sorter).

    A selection-style hardware sorter scans the S-long row maintaining a
    k-deep sorted buffer: every element compares against the buffer min and,
    on insert, against log2(k) levels - about ``S + S_ins*log2(k)`` compares;
    we charge the conservative ``S * log2(k)`` the paper's complexity model
    uses for whole-row sorting.
    """
    ops = OpCounter()
    levels = max(int(np.ceil(np.log2(max(k, 2)))), 1)
    ops.add_op("compare", float(s) * levels)
    return ops

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

import functools
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


def _stable_head(block: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(-block, axis=1, kind="stable")[:, :m]`` without a full stable sort.

    Returns ``(head, vals)``: ``head`` is that stable head (all ``width``
    columns when ``m >= width``) and ``vals`` holds ``block``'s values at
    the first ``min(m + 1, width)`` sorted positions, one past the head
    where the row has it, so callers read the head's values - and the
    next one - without gathering them again.

    An unstable argsort orders values the same way but may permute equal
    ones.  If a row's first ``m + 1`` sorted values (all of them when
    ``m >= width``) hold no adjacent tie, its top ``m`` set and their
    order are forced, so the unstable head equals the stable one.  The
    extra entry catches a tie across the cut.  Rows with an adjacent tie
    (signed zeros compare equal) redo the stable argsort, which breaks
    ties by index.  NaN sorts last in both sorts and never flags a tie
    (it compares unequal to itself), so the unstable sort may permute a
    row's NaN entries: a head position holding NaN names one of the row's
    NaN columns, not necessarily the stable one.  Callers give every NaN
    entry the same meaning (the selector's final reorder pads with NaN,
    and every pad carries index ``-1``).
    """
    neg = -block
    width = neg.shape[1]
    order = np.argsort(neg, axis=1)
    head = order[:, : min(m, width)]
    vals = neg[np.arange(neg.shape[0])[:, None], order[:, : min(m + 1, width)]]
    ties = (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    if ties.any():
        tied = np.flatnonzero(ties)
        stable = np.argsort(neg[tied], axis=1, kind="stable")
        head[tied] = stable[:, : head.shape[1]]
        vals[tied] = neg[tied[:, None], stable[:, : vals.shape[1]]]
    return head, np.negative(vals, out=vals)


#: Keys ``col - W * score`` stay exact integers while ``W * max|score|``
#: is below this, and the scores themselves stay below it (the key head's
#: exactness argument, :func:`_key_head`).
_KEY_WINDOW = float(2**51)


def _key_width(widest: int) -> int:
    """``W`` of keys over rows of ``widest`` columns: the least power of
    two >= ``widest``."""
    return 1 << max(int(widest) - 1, 0).bit_length()


def _keys_exact(widest: int, score_bound: float, scales: np.ndarray) -> bool:
    """Whether rows of up to ``widest`` integer scores, ``|score| <=
    score_bound``, scaled by ``scales``, may be ranked by keys
    (:func:`_key_head`): ``W * score_bound < 2**51``, every scale normal
    (so no nonzero score underflows to zero), and ``score_bound * scale``
    finite (so none overflows)."""
    with np.errstate(over="ignore"):
        return bool(
            _key_width(widest) * score_bound < _KEY_WINDOW
            and (scales >= np.finfo(np.float64).tiny).all()
            and np.isfinite(score_bound * scales).all()
        )


def _keys(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The keys ``col - W * score`` of a block of integer scores
    (``out=scores`` builds them in place); a ``-inf`` score, padding,
    becomes a ``+inf`` key."""
    keys = np.multiply(scores, -_key_width(scores.shape[1]), out=out)
    keys += np.arange(keys.shape[1], dtype=np.float64)
    return keys


def _key_scores(keys: np.ndarray, kw: int) -> np.ndarray:
    """The integer scores of keys ``col - kw * score``: ``-floor(key /
    kw)`` (``col / kw`` is in ``[0, 1)``), ``-inf`` for a ``+inf``
    (padding) key, and ``+0.0``, never ``-0.0``, for a zero score."""
    score = keys * (1.0 / kw)
    np.floor(score, out=score)
    return np.subtract(0.0, score, out=score)


def _key_head(keys: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_stable_head` of integer scores by one value sort of their
    :func:`_keys`, which it sorts in place.

    Returns ``(head, scores)``: the stable descending head's columns and
    the integer scores at the first ``min(m + 1, width)`` sorted
    positions, ``-inf`` on padding (whose head columns read 0: callers
    mask them) and ``+0.0`` for a zero score.  Callers check
    :func:`_keys_exact` first.

    Keys ``col - W * score`` (``W`` = :func:`_key_width` of the row
    width) are exact integers (``|key| < W * (max|score| + 1) <= 2**52``)
    and unique, and ascending key order is (score desc, column asc): the
    stable descending order of the integer scores.  Scaling a row keeps
    that order and its ties: rounding is monotone, and two distinct
    integers ``a``, ``b`` below ``2**51`` times a normal scale ``s``
    differ by at least ``s`` while each rounds by at most ``s / 4``, so
    ``fl(a * s) != fl(b * s)``.  So the head is the stable head of the
    scaled scores, and ``score * s`` is the reference's value bit for bit.
    The head decodes as ``score = -floor(key / W)``, ``col = key - W *
    floor(key / W)``.
    """
    w = keys.shape[1]
    kw = _key_width(w)
    keys.sort(axis=1)
    keys = keys[:, : min(m + 1, w)]
    scores = _key_scores(keys, kw)
    h = min(m, w)
    with np.errstate(invalid="ignore"):  # a padding key decodes to inf - inf
        head = keys[:, :h] + kw * scores[:, :h]
    return np.fmax(head, 0.0, out=head).astype(np.int64), scores  # NaN -> 0


def _reject_nan(scores: "np.ndarray | float") -> None:
    """Raise on NaN scores."""
    if np.isnan(scores).any():
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

        :meth:`select_stack_streamed` over column windows of ``scores``:
        every row of every head in a batch runs through the same segment
        grid in lockstep, and per-row comparator tallies are returned so
        callers can group them back per head.  Row semantics (selection,
        ordering, tie breaks, op counts) exactly match
        :meth:`select_row_reference`.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("scores must be 2-D")
        r, s = scores.shape
        return self.select_stack_streamed(
            lambda seg, lo, hi: column_windows(scores, lo, hi), r, s, k
        )

    def select_stack_streamed(
        self,
        tile_fn,
        n_rows: int,
        row_len: "int | np.ndarray",
        k: "int | np.ndarray",
        n_segments: "int | np.ndarray | None" = None,
        row_scales: "np.ndarray | None" = None,
        score_bound: float = np.inf,
    ) -> SadsStackResult:
        """Distributed top-k over *streamed* score tiles, rows of any length.

        ``row_len``, ``k`` and ``n_segments`` are scalars or ``(n_rows,)``
        arrays: row ``r`` is a row of ``row_len[r]`` scores selecting
        ``k[r]`` entries over ``min(n_segments[r], k[r], row_len[r])``
        segments (``n_segments`` defaults to ``config.n_segments``).  Each
        row keeps its own ``linspace`` segment bounds and capped quotas, so
        rows of different lengths share one call.  Rows must come ordered
        by non-increasing segment count (:func:`segment_counts`), so the
        rows still active in segment ``j`` are a prefix: a row whose grid
        has fewer segments sits out the later ones, and a call costs the
        sum of the rows' segments, not rows times the longest grid.

        ``tile_fn(seg, lo, hi)`` gets the ``(m,)`` int arrays of the
        segment-``seg`` column windows ``lo[r]:hi[r]`` of the first ``m``
        rows (those with more than ``seg`` segments) and must return an
        ``(m, W)`` float64 block, ``W = max(hi - lo)``, whose row ``r``
        holds those columns left-aligned; entries past ``hi[r] - lo[r]``
        are ignored (:func:`column_windows` is the materialized form).  The
        selector writes ``-inf`` over those entries in place, so the block
        must be a fresh array, not a view of data the caller keeps.

        With ``row_scales`` (``(n_rows,)``), the tiles hold unscaled
        exact-integer scores of magnitude at most ``score_bound``, and row
        ``r``'s scores are ``tile[r] * row_scales[r]``.  When
        :func:`_keys_exact` holds for the call, each segment is ranked by
        one value sort of unique integer keys (:func:`_key_head`), with no
        argsort, no tie repair and no NaN scan, and so are the candidate
        pool and the final reorder; otherwise the selector scales each
        tile itself and takes the float path.

        Each row's selection - indices, ordering, tie breaks, comparator
        and clipped tallies - is **bit-identical** to
        :meth:`select_row_reference` on that row, but no state larger than
        one segment block (plus O(rows * k) selection state) is ever held:
        this is the entry point of the fused predict+select kernel, which
        feeds DLZS score tiles straight from the prediction matmul.

        ``indices`` of the result is ``(n_rows, max k)``; row ``r``'s
        selection is ``indices[r, :k[r]]`` and the rest holds ``-1``.

        Exactness argument, stage by stage:

        * the per-segment pass consumes only the segment block, in one
          sort: the top-quota set is threshold-independent (clipping only
          suppresses comparator switching), so selection is the head of a
          stable descending sort (:func:`_stable_head`, or the key sort of
          :func:`_key_head`, which gives the same head and values), whose
          first value is the segment max.  The survivor count drives op/power
          accounting and the below-quota hardware fallback; values at or
          above the threshold are a prefix of the sorted row, so a row
          counts them in its head, and only a row whose whole head passes
          counts its block;
        * a row's window is padded to ``W`` with ``-inf`` placed *after*
          its real columns, so the stable descending order puts every
          padding entry behind every real one (ties break by position).
          Padding never reaches a row's quota (``quota <= width``), never
          raises its segment max, and is masked out of the survivor count
          (the first segment's ``-inf`` threshold would pass it);
        * the adjustive exchange needs, per round, the *maximum excluded*
          entry under numpy's argmax tie-break (value descending, then
          lowest index).  A per-row pool of the top-``adjust_rounds``
          excluded candidates in exactly that order is sufficient: each
          exchange round removes at most the pool head and re-inserts the
          swapped-out selected value, so the pool's real population never
          shrinks, and any excluded entry outside a segment's top-
          ``adjust_rounds`` is dominated (value, then index) by ones
          inside it, for every round.  Padding candidates are ``-inf``,
          which never beats a selected value, so they are never swapped in;
        * the final descending reorder uses the retained selected values,
          which are the scores at the selected indices by construction.

        NaN has no place in that (value desc, index asc) order, so a row
        holding one raises :class:`ValueError`, as in
        :meth:`select_row_reference`.
        """
        r = int(n_rows)
        s_rows = np.broadcast_to(np.asarray(row_len, dtype=np.int64), (r,))
        k_rows = np.broadcast_to(np.asarray(k, dtype=np.int64), (r,))
        if r == 0:
            return SadsStackResult(
                indices=np.empty((0, int(np.max(k, initial=0))), dtype=np.int64),
                compare_rows=np.zeros(0),
                clipped_rows=np.zeros(0, dtype=np.int64),
            )
        bad = np.flatnonzero((k_rows < 1) | (k_rows > s_rows))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"k={k_rows[i]} out of range for row of length {s_rows[i]}")
        seg_counts = segment_counts(
            s_rows, k_rows, self.config.n_segments if n_segments is None else n_segments
        )
        if int(seg_counts.min()) < 1:
            raise ValueError("n_segments must be >= 1")
        if (np.diff(seg_counts) > 0).any():
            raise ValueError("rows must be ordered by non-increasing segment count")
        if row_scales is not None:
            _reject_nan(row_scales)
        lo_tab, hi_tab, quota_tab, merge_rows = _row_plans(s_rows, k_rows, seg_counts)
        fresh = max(self.config.sorter_width - self.config.sorter_keep, 1)
        per_pass = _bitonic_comparators(self.config.sorter_width)
        rounds = self.config.adjust_rounds
        n_max = lo_tab.shape[1]
        # Rows with more than j segments: a prefix, by the ordering above.
        active = (seg_counts[None, :] > np.arange(n_max)[:, None]).sum(axis=1)

        # Per-segment tables, one column per segment (zero width and quota
        # where a row sits out): window widths, the widest window, and
        # where each row's excluded candidates sit in the segment's head.
        width_tab = hi_tab - lo_tab
        seg_w = width_tab.max(axis=0)
        q_cols = quota_tab.max(axis=0)
        head_w = np.minimum(q_cols + rounds, seg_w)  # columns of the head
        pos_tab = quota_tab[:, :, None] + np.arange(rounds)
        pos_ok = pos_tab < width_tab[:, :, None]
        pos_tab = np.minimum(pos_tab, head_w[:, None] - 1)
        # Threshold survivors per segment, and whether the threshold was
        # still -inf (padding passes it then, and is taken back out).
        surv_tab = np.zeros(width_tab.shape, dtype=np.int64)
        open_tab = np.zeros(width_tab.shape, dtype=bool)

        k_max = int(k_rows.max())
        running_max = np.full(r, -np.inf)
        # Segment j's chosen entries land in columns off[j]:off[j] + q_cols[j]
        # of the chosen buffers, each row's quota left-aligned there, so a
        # row's picks stay in segment order; `picked` marks the real ones.
        off = np.cumsum(q_cols) - q_cols
        seg_of_col = np.repeat(np.arange(n_max), q_cols)
        picked = (np.arange(seg_of_col.size) - off[seg_of_col]) < quota_tab[:, seg_of_col]
        chosen_idx = np.empty(picked.shape, dtype=np.int64)
        chosen_vals = np.empty(picked.shape)
        # Each segment's top-`rounds` excluded (value, index) candidates, in
        # (value desc, index asc) order within the segment.
        cand_vals = np.empty((r, n_max * rounds))
        cand_idx = np.empty((r, n_max * rounds), dtype=np.int64)
        m_pool = max(rounds, 1)
        # Integer tiles inside the key guard are ranked by keys everywhere:
        # segments, the candidate pool and the final reorder.  The chosen
        # and candidate buffers then hold integer scores, which order (and
        # tie) as the scaled ones do, so the exchange runs on them too.
        keyed = row_scales is not None and _keys_exact(
            max(int(seg_w.max()), cand_vals.shape[1] + m_pool, picked.shape[1]),
            score_bound,
            row_scales,
        )

        for seg in range(n_max):
            m = int(active[seg])
            lo, hi, width = lo_tab[:m, seg], hi_tab[:m, seg], width_tab[:m, seg]
            w = int(seg_w[seg])
            block = np.asarray(tile_fn(seg, lo, hi), dtype=np.float64)
            if block.shape != (m, w):
                raise ValueError(f"tile_fn returned {block.shape}, expected {(m, w)}")
            # The chosen entries, then the segment's top excluded
            # candidates: the head of a stable descending sort, whose
            # first value is the segment max.  Capped quotas never exceed
            # the window, so a row takes its quota.
            qm = int(q_cols[seg])
            if row_scales is not None and not keyed:
                block *= row_scales[:m, None]
            short = np.flatnonzero(width < w)  # rows with padding to overwrite
            if short.size:
                block[short] = np.where(np.arange(w) < width[short, None], block[short], -np.inf)
            if keyed:
                head, scores = _key_head(_keys(block, out=block), qm + rounds)
                vals = scores * row_scales[:m, None]
            else:
                _reject_nan(block)
                head, vals = _stable_head(block, qm + rounds)
                scores = vals
            threshold = np.where(
                np.isfinite(running_max[:m]), running_max[:m] - self.config.radius, -np.inf
            )
            # Survivors: the head is sorted, so a row counts them there
            # unless its whole head passes.  Under a -inf threshold the
            # whole block passes; other rows whose head passes count the
            # block.
            surv = (vals >= threshold[:, None]).sum(axis=1)
            open_rows = threshold == -np.inf
            surv[open_rows] = w
            if vals.shape[1] < w:
                full = np.flatnonzero((surv == vals.shape[1]) & ~open_rows)
                if full.size:
                    row_vals = block[full]
                    if keyed:  # the sorted keys, read back as values
                        row_vals = _key_scores(row_vals, _key_width(w))
                        row_vals *= row_scales[full, None]
                    surv[full] = (row_vals >= threshold[full, None]).sum(axis=1)
            surv_tab[:m, seg] = surv
            open_tab[:m, seg] = open_rows
            rows = np.arange(m)[:, None]
            head_idx = head + lo[:, None]
            chosen = slice(int(off[seg]), int(off[seg]) + qm)
            chosen_idx[:m, chosen] = head_idx[:, :qm]
            chosen_vals[:m, chosen] = scores[:, :qm]
            # Each row's candidates follow its own quota.
            cols = slice(seg * rounds, (seg + 1) * rounds)
            cand_vals[:m, cols] = scores[rows, pos_tab[:m, seg]]
            cand_idx[:m, cols] = head_idx[rows, pos_tab[:m, seg]]
            running_max[:m] = np.maximum(running_max[:m], vals[:, 0])

        # Per-segment tallies of every row at once: a sitting-out cell has
        # zero width, quota and survivors, so it adds nothing.
        survivors = surv_tab - np.where(open_tab, seg_w - width_tab, 0)
        cand = np.where(survivors < quota_tab, quota_tab, survivors)
        clipped_rows = (width_tab - cand).sum(axis=1)
        compare_rows = width_tab.sum(axis=1).astype(np.float64)  # threshold checks
        compare_rows += ((-(-cand // fresh)) * per_pass).sum(axis=1)

        # Candidates past a row's window, or of a segment it sits out, are
        # padding: (-inf, out-of-range index), and so is the tail the pool
        # needs when there are fewer than `rounds` real ones.
        real = pos_ok.reshape(r, -1)
        cand_vals = np.concatenate(
            [np.where(real, cand_vals, -np.inf), np.full((r, m_pool), -np.inf)], axis=1
        )
        cand_idx = np.concatenate(
            [np.where(real, cand_idx, s_rows[:, None]), np.repeat(s_rows[:, None], m_pool, axis=1)],
            axis=1,
        )
        # Excluded-candidate pool: per row, the top-`rounds` excluded
        # entries in (value desc, index asc) order.  Candidates arrive
        # segment-major, i.e. index-ascending, so a stable sort settles
        # ties.  Padding sorts last: -inf value, out-of-range index (on the
        # key path a padding entry names candidate 0 instead; a -inf pool
        # entry never beats a pick, so its index is never read).
        top, pool_vals = (
            _key_head(_keys(cand_vals), m_pool) if keyed else _stable_head(cand_vals, m_pool)
        )
        pool_vals = pool_vals[:, :m_pool]
        pool_idx = np.take_along_axis(cand_idx, top, axis=1)

        # Cells that are no pick hold (-1, +inf): the exchange's argmin,
        # which breaks ties by position, never lands there, and the picks
        # keep the order they would have packed to the front.
        sel = np.where(picked, chosen_idx, -1)
        selvals = np.where(picked, chosen_vals, np.inf)
        compare_rows += self._pooled_exchange(
            sel, selvals, pool_vals, pool_idx, s_rows, k_rows
        )

        # Descending by value, ties by position; NaN sorts after every
        # value, -inf included, so each row's k picks come first and -1 pads
        # (on the key path no pick is -inf, so -inf marks the pads).
        if keyed:
            order, top_scores = _key_head(_keys(np.where(picked, selvals, -np.inf)), k_max)
            indices = np.where(
                top_scores[:, :k_max] > -np.inf, np.take_along_axis(sel, order, axis=1), -1
            )
        else:
            order, _ = _stable_head(np.where(picked, selvals, np.nan), k_max)
            indices = np.take_along_axis(sel, order, axis=1)
        compare_rows += merge_rows
        return SadsStackResult(
            indices=indices, compare_rows=compare_rows, clipped_rows=clipped_rows
        )

    def _pooled_exchange(
        self,
        sel: np.ndarray,
        selvals: np.ndarray,
        pool_vals: np.ndarray,
        pool_idx: np.ndarray,
        s: np.ndarray,
        k: np.ndarray,
    ) -> np.ndarray:
        """Adjustive exchange against the excluded-candidate pool (in place).

        Replicates :meth:`_adjustive_exchange` for every row in lockstep,
        without an ``(R, S)`` excluded mask: the pool head *is* the
        reference's ``argmax(where(excluded_mask, row, -inf))`` (same value,
        same tie-break), and a swap removes the head and re-inserts the
        swapped-out selected entry at its (value desc, index asc) pool
        position - the pool's real population is invariant under swaps, so
        ``adjust_rounds`` entries are enough for ``adjust_rounds`` rounds.
        ``s`` and ``k`` are per-row lengths and counts; cells of ``sel``
        that hold no pick must hold ``+inf`` values so argmin skips them.
        Mutates ``sel``/``selvals``; returns per-row comparator counts.
        """
        rounds = self.config.adjust_rounds
        r = sel.shape[0]
        compare_rows = np.zeros(r, dtype=np.float64)
        if rounds <= 0:
            return compare_rows
        rows = np.arange(r)
        # A row has excluded candidates iff s > k - constant across rounds,
        # because every swap removes one excluded entry and adds another.
        alive = s > k
        m_pool = pool_vals.shape[1]
        for _ in range(rounds):
            if not alive.any():
                break
            min_pos = np.argmin(selvals, axis=1)
            min_val = selvals[rows, min_pos]
            min_idx = sel[rows, min_pos]
            exc_val = pool_vals[:, 0]
            exc_idx = pool_idx[:, 0]
            compare_rows[alive] += k[alive] + 1
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
                pi[:, -1] = s[sw]
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
    @staticmethod
    def _segment_quotas(k: int, n: int) -> np.ndarray:
        """Distribute k across n segments (first segments absorb remainder)."""
        base, rem = divmod(k, n)
        quotas = np.full(n, base, dtype=np.int64)
        quotas[:rem] += 1
        return quotas

    @staticmethod
    def _capped_quotas(k: int, bounds: np.ndarray) -> np.ndarray:
        """Width-aware quotas: never assign a segment more than it holds.

        The even split can exceed a narrow segment's width when k approaches
        S (e.g. select-all over uneven tiles); the overflow re-distributes
        round-robin into segments with spare capacity so exactly k indices
        are always selected.
        """
        widths = np.diff(bounds)
        quotas = np.minimum(SadsSorter._segment_quotas(k, widths.size), widths)
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


def segment_counts(
    row_len: "int | np.ndarray", k: "int | np.ndarray", n_segments: "int | np.ndarray"
) -> np.ndarray:
    """Each row's segment count ``min(n_segments, k, row_len)``, as an array."""
    return np.minimum(np.minimum(n_segments, k), row_len).astype(np.int64)


def _row_plans(
    s_rows: np.ndarray, k_rows: np.ndarray, n_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row segment tables ``(lo, hi, quota)`` and final-merge compares.

    The formulas :meth:`SadsSorter.select_row_reference` evaluates, once
    per distinct ``(row length, k, segments)`` ever seen (:func:`_row_plan`
    keeps them).  ``lo``/``hi``/``quota`` are ``(R, max segments)``: row
    ``r``'s segment ``j`` spans columns ``lo[r, j]:hi[r, j]`` with quota
    ``quota[r, j]``; past a row's own segment count the window is empty
    and the quota 0.
    """
    index: dict[tuple[int, int, int], int] = {}
    inverse = np.array(
        [
            index.setdefault(key, len(index))
            for key in zip(s_rows.tolist(), k_rows.tolist(), n_rows.tolist())
        ],
        dtype=np.intp,
    )
    n_max = max(n for _, _, n in index)
    lo = np.empty((len(index), n_max), dtype=np.int64)
    hi = np.empty_like(lo)
    quota = np.zeros_like(lo)
    merge = np.empty(len(index))
    for u, (s, k, n) in enumerate(index):
        bounds, quota[u, :n], merge[u] = _row_plan(s, k, n)
        lo[u, :n], hi[u, :n] = bounds[:-1], bounds[1:]
        lo[u, n:] = hi[u, n:] = s
    return lo[inverse], hi[inverse], quota[inverse], merge[inverse]


@functools.lru_cache(maxsize=4096)
def _row_plan(s: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One row's segment bounds, capped quotas and final-merge compares.

    Decode sessions pass through the same lengths step after step, so
    the plans are kept (bounded); the arrays are read-only.
    """
    bounds = np.linspace(0, s, n + 1, dtype=np.int64)
    quota = SadsSorter._capped_quotas(k, bounds)
    bounds.flags.writeable = False
    quota.flags.writeable = False
    return bounds, quota, _final_merge_compares(k, n)


def window_columns(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``(m, max(hi - lo))`` column indices of the windows ``lo[r]:hi[r]``.

    Left-aligned; past a row's own width they repeat its last column, so
    a gather never leaves the window.  Every width must be at least 1.
    """
    width = hi - lo
    return lo[:, None] + np.minimum(np.arange(int(width.max())), width[:, None] - 1)


def column_windows(matrix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row ``r``'s columns ``lo[r]:hi[r]`` of ``matrix``, left-aligned.

    ``matrix`` is ``(R, S, ...)`` and ``lo``/``hi`` cover its first
    ``len(lo)`` rows; returns ``(len(lo), max(hi - lo), ...)``, padded as
    :func:`window_columns` says (the selector ignores the padding).  Over
    a score matrix this is the materialized ``tile_fn`` of
    :meth:`SadsSorter.select_stack_streamed`.
    """
    return matrix[np.arange(len(lo))[:, None], window_columns(lo, hi)]


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

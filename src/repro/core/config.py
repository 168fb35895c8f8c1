"""User-facing configuration of the SOFA attention pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class DlzsConfig:
    """DLZS prediction-stage parameters.

    ``token_bits``/``weight_bits`` are the pre-compute integer widths (paper:
    8-bit tokens, weights pre-converted to 4-bit LZ codes);
    ``intermediate_bits`` is the truncation width of the predicted K before
    attention prediction (paper: "truncated to at most 16 bit").
    The stage has no kernel choice: the batched engine always runs it
    fused with SADS selection, tile by tile
    (:mod:`repro.kernels.predict_select_fused`).
    """

    token_bits: int = 8
    weight_bits: int = 8
    intermediate_bits: int = 16
    query_bits: int = 16


@dataclass(frozen=True)
class SadsConfig:
    """SADS sorting-stage parameters.

    ``n_segments`` distributes one S-long row into n sub-segments, each
    selecting top-(k/n) (paper Fig. 9).  ``radius`` is the sphere-search
    clipping radius in score units (values below ``running_max - radius`` are
    clipped); ``adjust_rounds`` runs the adjustive exchange iterations
    (max/min swap between the virtual top-k set and excluded candidates).
    ``sorter_width``/``sorter_keep`` describe the bitonic core (16-to-4 in
    the paper's engine).  Like :class:`DlzsConfig`, the stage has no
    kernel choice.
    """

    n_segments: int = 4
    radius: float = 4.0
    adjust_rounds: int = 2
    sorter_width: int = 16
    sorter_keep: int = 4


@dataclass(frozen=True)
class SufaConfig:
    """SU-FA formal-stage parameters.

    ``descending=True`` selects the cheaper update order (one exp + one add
    per step for the normalizer); ``max_assurance=True`` enables the
    runtime Max-Ensuring behaviour that repairs a mispredicted maximum
    (paper Sec. IV-D) at the cost of classic-FA rescale ops on the rows where
    it triggers.

    Like the other stages, SU-FA has no kernel choice: every tier runs the
    one tile-blocked stream (:func:`repro.core.sufa.stream_selected`),
    held bit for bit to the per-key golden model
    :func:`repro.core.sufa.stream_selected_reference` by the tests.
    """

    descending: bool = True
    max_assurance: bool = True


@dataclass(frozen=True)
class SofaConfig:
    """Top-level SOFA configuration.

    ``tile_cols`` is Bc, the cross-stage tile width shared by every stage
    (the paper's coordinated-tiling principle: SADS sub-segments are the SU-FA
    tiles).  ``top_k`` may be an absolute count (int) or a fraction (float in
    (0, 1]).
    """

    tile_cols: int = 64
    top_k: float = 0.15
    dlzs: DlzsConfig = field(default_factory=DlzsConfig)
    sads: SadsConfig = field(default_factory=SadsConfig)
    sufa: SufaConfig = field(default_factory=SufaConfig)

    def resolve_top_k(self, seq_len: int) -> int:
        """Turn the top-k knob into an absolute per-row count."""
        if isinstance(self.top_k, float) and 0 < self.top_k <= 1:
            k = int(round(self.top_k * seq_len))
        else:
            k = int(self.top_k)
        if not 1 <= k <= seq_len:
            raise ValueError(f"resolved top-k {k} out of range for S={seq_len}")
        return k

    def n_tiles(self, seq_len: int) -> int:
        """Number of Bc-wide tiles covering a row of length ``seq_len``."""
        if self.tile_cols < 1:
            raise ValueError("tile_cols must be >= 1")
        return -(-seq_len // self.tile_cols)

    def sads_for(self, n_segments: int) -> SadsConfig:
        """Stage-2 sorter config under the coordinated tiling.

        The sorter's sub-segments ARE the Bc tiles, so the pipeline (and its
        batched twin, which must stay bit-identical) both derive the sorter
        from this single place.
        """
        return replace(self.sads, n_segments=n_segments)

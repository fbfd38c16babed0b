"""Shared tiling/padding plan all dense backends execute against.

Padding to 16×16 tiles is backend-independent policy: operands are cast to
the accumulate dtype, padded along ``k`` with the ring's absorbing pair
(``k_pad_a ⊗ k_pad_b == ⊕-identity``), the accumulator padded with the ⊕
identity, and a degenerate ``k == 0`` turned into one fully-absorbed inner
tile step.  Centralising the plan here keeps every backend's tile grid —
and therefore its :class:`~repro.runtime.kernels.KernelStats` — identical
by construction, which is what the paper's statistics cross-check between
backends relies on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.semiring import Semiring
from repro.core.tiles import TILE, ceil_div, pad_to_tiles
from repro.runtime.kernels import KernelStats

__all__ = ["TilePlan", "partition_bands", "plan_mmo"]


@dataclasses.dataclass(frozen=True)
class TilePlan:
    """Padded operands plus the tile grid they imply."""

    a_pad: np.ndarray  # (tiles_m*16, tiles_k*16) in the output dtype
    b_pad: np.ndarray  # (tiles_k*16, tiles_n*16)
    c_pad: np.ndarray  # (tiles_m*16, tiles_n*16)
    stats: KernelStats

    @property
    def tiles_m(self) -> int:
        return self.stats.tiles_m

    @property
    def tiles_n(self) -> int:
        return self.stats.tiles_n

    @property
    def tiles_k(self) -> int:
        return self.stats.tiles_k


def plan_mmo(
    semiring: Semiring,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
) -> TilePlan:
    """Pad validated ``(m, k) × (k, n) [⊕ (m, n)]`` operands to full tiles.

    Callers must have validated shapes and ruled out empty outputs
    (``m > 0`` and ``n > 0``); ``k == 0`` is handled here by materialising
    one tile of absorbing inner steps, so every output-tile program runs
    at least one mmo instruction (the ``tiles_k`` convention of
    :class:`~repro.runtime.kernels.KernelStats`).
    """
    m, k = a.shape
    n = b.shape[1]
    a_pad = pad_to_tiles(a.astype(semiring.output_dtype), semiring.k_pad_a)
    b_pad = pad_to_tiles(b.astype(semiring.output_dtype), semiring.k_pad_b)
    c_full = (
        semiring.full((m, n)) if c is None else np.asarray(c, semiring.output_dtype)
    )
    c_pad = pad_to_tiles(c_full, semiring.oplus_identity)
    if k == 0:
        a_pad = np.full(
            (c_pad.shape[0], TILE), semiring.k_pad_a, semiring.output_dtype
        )
        b_pad = np.full(
            (TILE, c_pad.shape[1]), semiring.k_pad_b, semiring.output_dtype
        )

    tiles_m = a_pad.shape[0] // TILE
    tiles_k = a_pad.shape[1] // TILE
    tiles_n = b_pad.shape[1] // TILE
    stats = KernelStats(m, n, k, tiles_m, tiles_n, tiles_k)
    return TilePlan(a_pad=a_pad, b_pad=b_pad, c_pad=c_pad, stats=stats)


def partition_bands(
    extent: int, parts: int, *, tile: int = 1
) -> list[tuple[int, int]]:
    """Split ``[0, extent)`` into ``parts`` contiguous half-open bands.

    The one banding policy every partitioned dispatch shares: split-k
    partitions the inner dimension (``tile=1``) and the multi-device /
    banded-closure paths partition output rows on 16-row tile boundaries
    (``tile=TILE``).  Bands are floor-balanced — sizes differ by at most
    one ``tile`` unit — and returned in order, covering the extent
    exactly.  Bands may be empty (``start == stop``) when ``parts``
    exceeds the number of ``tile`` units; callers skip those rather than
    launching zero-width kernels.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    units = ceil_div(extent, tile) if extent else 0
    bounds = [min(extent, (i * units // parts) * tile) for i in range(parts + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]


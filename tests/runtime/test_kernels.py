"""Tests for the tiled whole-matrix mmo kernels (both backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TILE, mmo
from repro.hw import Simd2Device
from repro.isa import MmoOpcode
from repro.runtime import RuntimeError_, mmo_tiled
from repro.compile.lower import build_tile_mmo_program
from tests.conftest import make_ring_inputs

# Shapes exercising: exact tiles, padding in every dimension, tiny inputs,
# and rectangular panels.
SHAPES = [(16, 16, 16), (32, 16, 48), (17, 5, 23), (1, 1, 1), (40, 33, 20)]


class TestVectorizedBackend:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_unpadded_oracle(self, ring, shape, rng):
        m, k, n = shape
        a, b, c = make_ring_inputs(ring, m, k, n, rng)
        got, stats = mmo_tiled(ring, a, b, c)
        np.testing.assert_array_equal(got, mmo(ring, a, b, c))
        assert stats.warp_programs == stats.tiles_m * stats.tiles_n

    def test_padding_never_leaks(self, ring, rng):
        # A 17x17 problem forces a padded tile; padded lanes must not
        # change any real output entry.
        a, b, c = make_ring_inputs(ring, 17, 17, 17, rng)
        got, _ = mmo_tiled(ring, a, b, c)
        np.testing.assert_array_equal(got, mmo(ring, a, b, c))

    def test_without_accumulator(self, ring, rng):
        a, b, _ = make_ring_inputs(ring, 20, 18, 22, rng, with_c=False)
        got, _ = mmo_tiled(ring, a, b)
        np.testing.assert_array_equal(got, mmo(ring, a, b))

    def test_empty_inner_dimension(self):
        c = np.arange(6.0).reshape(2, 3)
        got, _ = mmo_tiled("min-plus", np.zeros((2, 0)), np.zeros((0, 3)), c)
        np.testing.assert_array_equal(got, c.astype(np.float32))

    def test_empty_output(self):
        got, stats = mmo_tiled("plus-mul", np.zeros((0, 4)), np.zeros((4, 3)))
        assert got.shape == (0, 3)
        assert stats.warp_programs == 0

    def test_tiles_k_convention_consistent_across_degenerate_paths(self):
        # k == 0 runs one identity-padded inner step (tiles_k == 1) …
        _, k0 = mmo_tiled("plus-mul", np.zeros((2, 0)), np.zeros((0, 3)))
        assert k0.tiles_k == 1
        # … and the empty-output early return reports the same convention:
        # ceil(k/16) for k > 0, 1 for k == 0 — not 0.
        _, empty_k0 = mmo_tiled("plus-mul", np.zeros((0, 4)), np.zeros((4, 0)))
        _, empty_k0b = mmo_tiled("plus-mul", np.zeros((0, 0)), np.zeros((0, 3)))
        _, empty_k20 = mmo_tiled("plus-mul", np.zeros((0, 20)), np.zeros((20, 3)))
        assert empty_k0.tiles_k == 1
        assert empty_k0b.tiles_k == 1
        assert empty_k20.tiles_k == 2
        # No programs run on the empty-output paths regardless of tiles_k.
        for stats in (empty_k0, empty_k0b, empty_k20):
            assert stats.warp_programs == 0
            assert stats.mmo_instructions == 0

    def test_shape_validation(self):
        with pytest.raises(RuntimeError_, match="bad mmo operand shapes"):
            mmo_tiled("plus-mul", np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(RuntimeError_, match="accumulator shape"):
            mmo_tiled("plus-mul", np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 3)))

    def test_unknown_backend(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled("plus-mul", np.zeros((2, 2)), np.zeros((2, 2)), backend="cuda")

    def test_accepts_opcode(self, rng):
        a, b, c = make_ring_inputs(MmoOpcode.MAXMIN.semiring, 8, 8, 8, rng)
        got, _ = mmo_tiled(MmoOpcode.MAXMIN, a, b, c)
        np.testing.assert_array_equal(got, mmo("max-min", a, b, c))


class TestEmulateBackend:
    @pytest.mark.parametrize("shape", [(16, 16, 16), (17, 5, 23), (32, 16, 48)])
    def test_emulator_matches_vectorized(self, ring, shape, rng):
        m, k, n = shape
        a, b, c = make_ring_inputs(ring, m, k, n, rng)
        vec, _ = mmo_tiled(ring, a, b, c)
        emu, stats = mmo_tiled(ring, a, b, c, backend="emulate")
        np.testing.assert_array_equal(emu, vec)
        assert stats.execution is not None
        assert stats.execution.mmos == stats.mmo_instructions

    def test_statistics_parity(self, rng):
        a, b, c = make_ring_inputs(MmoOpcode.MINPLUS.semiring, 33, 20, 18, rng)
        _, stats = mmo_tiled("min-plus", a, b, c, backend="emulate")
        # 33x18 output → 3x2 tile grid; k=20 → 2 inner tiles.
        assert (stats.tiles_m, stats.tiles_n, stats.tiles_k) == (3, 2, 2)
        ex = stats.execution
        assert ex.mmos == 3 * 2 * 2
        assert ex.loads == 3 * 2 * (1 + 2 * 2)
        assert ex.stores == 3 * 2
        assert ex.unit_ops == stats.unit_ops == 3 * 2 * 2 * 64
        assert ex.mmos_by_opcode == {MmoOpcode.MINPLUS: 12}

    def test_device_accumulates_across_launches(self, rng):
        device = Simd2Device(sm_count=2)
        a, b, c = make_ring_inputs(MmoOpcode.MMA.semiring, 16, 16, 16, rng)
        mmo_tiled("mma", a, b, c, backend="emulate", device=device)
        mmo_tiled("mma", a, b, c, backend="emulate", device=device)
        assert device.kernel_launches == 2
        assert device.stats.mmos == 2

    def test_fp16_quantisation_identical_across_backends(self):
        # Values that round in fp16: both backends must round identically.
        a = np.full((TILE, TILE), 1.0 / 3.0)
        b = np.eye(TILE)
        vec, _ = mmo_tiled("mma", a, b)
        emu, _ = mmo_tiled("mma", a, b, backend="emulate")
        np.testing.assert_array_equal(vec, emu)


class TestProgramShape:
    def test_program_structure(self):
        program, c_addr, d_addr = build_tile_mmo_program(
            MmoOpcode.MINPLUS, tiles_k=3, boolean=False
        )
        stats = program.stats()
        assert stats.loads == 1 + 2 * 3
        assert stats.mmos == 3
        assert stats.stores == 1
        # Output region must sit past the fp16 input panels.
        assert c_addr * 4 >= 2 * 3 * 256 * 2
        assert d_addr == c_addr + 256

    def test_bad_tiles_k(self):
        with pytest.raises(RuntimeError_, match="tiles_k"):
            build_tile_mmo_program(MmoOpcode.MMA, tiles_k=0, boolean=False)

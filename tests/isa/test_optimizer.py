"""Tests for the warp-program optimiser."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TILE
from repro.hw import SharedMemory, WarpExecutor
from repro.isa import (
    ElementType,
    FillMatrix,
    LoadMatrix,
    Mmo,
    MmoOpcode,
    Program,
    StoreMatrix,
)
from repro.isa.optimizer import optimize_program
from repro.compile.lower import build_tile_mmo_program
from repro.compile import lower_mmo


def _mma_program(extra: list) -> Program:
    return Program(
        [
            LoadMatrix(dst=0, addr=0, ld=16),
            LoadMatrix(dst=1, addr=256, ld=16),
            FillMatrix(dst=2, value=0.0),
            *extra,
            Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            StoreMatrix(src=3, addr=512, ld=16),
        ],
        auto_halt=True,
    )


class TestRedundantLoads:
    def test_duplicate_load_removed(self):
        program = _mma_program([LoadMatrix(dst=0, addr=0, ld=16)])
        result = optimize_program(program)
        assert result.removed_loads == 1
        assert result.program.stats().loads == 2

    def test_different_address_kept(self):
        program = _mma_program([LoadMatrix(dst=0, addr=16, ld=16)])
        assert optimize_program(program).removed_loads == 0

    def test_store_invalidates_cached_fragments(self):
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16),
                StoreMatrix(src=0, addr=0, ld=16, etype=ElementType.F16),
                LoadMatrix(dst=0, addr=0, ld=16),  # must reload after store
                StoreMatrix(src=0, addr=256, ld=16, etype=ElementType.F16),
            ],
            auto_halt=True,
        )
        assert optimize_program(program).removed_loads == 0

    def test_mmo_overwrite_invalidates(self):
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=256, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 0, 0, 1, 2),  # clobbers m0
                LoadMatrix(dst=0, addr=0, ld=16),  # not redundant
                StoreMatrix(src=0, addr=512, ld=16, etype=ElementType.F16),
            ],
            auto_halt=True,
        )
        assert optimize_program(program).removed_loads == 0


class TestDeadWrites:
    def test_unused_fill_removed(self):
        program = _mma_program([FillMatrix(dst=9, value=5.0)])
        result = optimize_program(program)
        assert result.removed_writes == 1

    def test_dead_mmo_chain_removed_transitively(self):
        # m4 = mmo(...) feeds only m5 = mmo(...), which is never stored:
        # both must go, and then the operands' loads become dead too.
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=256, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 4, 0, 1, 2),
                Mmo(MmoOpcode.MMA, 5, 0, 1, 4),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16),
            ],
            auto_halt=True,
        )
        result = optimize_program(program)
        assert result.removed_writes == 2
        assert result.program.stats().mmos == 1

    def test_generated_kernel_is_already_optimal(self):
        program, _, _ = build_tile_mmo_program(MmoOpcode.MINPLUS, 4, boolean=False)
        result = optimize_program(program)
        assert result.removed == 0
        assert result.program == program


class TestBehaviourPreservation:
    def _run(self, program: Program) -> np.ndarray:
        shm = SharedMemory()
        rng = np.random.default_rng(0)
        shm.write_matrix(0, rng.integers(0, 5, (TILE, TILE)), ElementType.F16)
        shm.write_matrix(256, rng.integers(0, 5, (TILE, TILE)), ElementType.F16)
        WarpExecutor(shm).run(program)
        return shm.read_matrix(512, (TILE, TILE), ElementType.F32)

    def test_optimised_program_computes_same_output(self):
        program = _mma_program(
            [LoadMatrix(dst=0, addr=0, ld=16), FillMatrix(dst=9, value=1.0)]
        )
        result = optimize_program(program)
        assert result.removed == 2
        np.testing.assert_array_equal(self._run(program), self._run(result.program))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_preserved(self, seed):
        rng = np.random.default_rng(seed)
        body = []
        written = [False] * 8
        for _ in range(rng.integers(4, 20)):
            choice = rng.integers(0, 4)
            if choice == 0:
                reg = int(rng.integers(0, 8))
                body.append(LoadMatrix(dst=reg, addr=int(rng.integers(0, 2)) * 256, ld=16))
                written[reg] = True
            elif choice == 1:
                reg = int(rng.integers(0, 8))
                body.append(FillMatrix(dst=reg, value=float(rng.integers(0, 4)), etype=ElementType.F16))
                written[reg] = True
            elif choice == 2:
                ready = [r for r in range(8) if written[r]]
                if len(ready) >= 2:
                    a, b = int(rng.choice(ready)), int(rng.choice(ready))
                    acc = int(rng.integers(0, 8))
                    d = int(rng.integers(0, 8))
                    body.append(FillMatrix(dst=acc, value=0.0, etype=ElementType.F32))
                    body.append(Mmo(MmoOpcode.MMA, d, a, b, acc))
                    written[acc] = written[d] = True
            else:
                ready = [r for r in range(8) if written[r]]
                if ready:
                    src = int(rng.choice(ready))
                    body.append(
                        StoreMatrix(src=src, addr=512, ld=16, etype=ElementType.F32)
                    )
        if not any(isinstance(i, StoreMatrix) for i in body):
            body.append(FillMatrix(dst=0, value=1.0, etype=ElementType.F32))
            body.append(StoreMatrix(src=0, addr=512, ld=16, etype=ElementType.F32))
        program = Program(body, auto_halt=True)

        def run(p: Program) -> np.ndarray:
            shm = SharedMemory()
            data = np.arange(TILE * TILE).reshape(TILE, TILE) % 7
            shm.write_matrix(0, data, ElementType.F16)
            shm.write_matrix(256, data.T, ElementType.F16)
            try:
                WarpExecutor(shm).run(p)
            except Exception:
                return None  # type: ignore[return-value]
            return shm.read_matrix(512, (TILE, TILE), ElementType.F32)

        original = run(program)
        if original is None:
            return  # programs that fault (type mismatches) are out of scope
        optimised = optimize_program(program).program
        np.testing.assert_array_equal(run(optimised), original)


def _run_tile_mmo(program: Program, artifact, rng: np.random.Generator) -> np.ndarray:
    """Execute a Figure-6 tile program against staged random panels.

    Stages the A/B panels and the C tile exactly like the emulate backend
    (tile kk of A at element ``kk*256``, tile kk of B at
    ``(tiles_k + kk)*256`` in the input element space, C at ``c_addr`` in
    the output space) and returns the D tile.
    """
    tiles_k = artifact.tiles_k
    if artifact.boolean:
        sample = lambda shape: rng.random(shape) < 0.4  # noqa: E731
    else:
        # Small integers are exact in f16 inputs and f32 accumulation, so
        # original and optimised programs must match bit-for-bit.
        sample = lambda shape: rng.integers(-4, 5, shape)  # noqa: E731
    shm = SharedMemory(artifact.shared_bytes)
    for kk in range(tiles_k):
        shm.write_matrix(kk * 256, sample((TILE, TILE)), artifact.in_etype)
        shm.write_matrix(
            (tiles_k + kk) * 256, sample((TILE, TILE)), artifact.in_etype
        )
    shm.write_matrix(artifact.c_addr, sample((TILE, TILE)), artifact.out_etype)
    WarpExecutor(shm).run(program)
    return shm.read_matrix(artifact.d_addr, (TILE, TILE), artifact.out_etype)


class TestGeneratedProgramPreservation:
    """optimise(build_tile_mmo_program(...)) is output-preserving, all rings."""

    @pytest.mark.parametrize("opcode", list(MmoOpcode))
    @given(seed=st.integers(0, 2**32 - 1), tiles_k=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_optimised_generated_program_bit_exact(self, opcode, seed, tiles_k):
        artifact = lower_mmo(opcode, 1, 1, tiles_k, has_accumulator=True)
        naive, c_addr, d_addr = build_tile_mmo_program(
            opcode, tiles_k, boolean=artifact.boolean
        )
        assert (c_addr, d_addr) == (artifact.c_addr, artifact.d_addr)
        optimised = optimize_program(naive).program
        original = _run_tile_mmo(naive, artifact, np.random.default_rng(seed))
        replayed = _run_tile_mmo(optimised, artifact, np.random.default_rng(seed))
        np.testing.assert_array_equal(replayed, original)

    def test_redundant_load_fires_on_c_resident_two_step_program(self):
        # A hand-written two-step kernel that keeps C resident in the
        # accumulator but sloppily reloads the A fragment from the same
        # address between steps: the optimiser must drop the reload and
        # nothing else, and the output must not change.
        def build(reload_a: bool) -> Program:
            body = [
                LoadMatrix(dst=2, addr=512, ld=16, etype=ElementType.F32),
                LoadMatrix(dst=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=256, ld=16),
                Mmo(MmoOpcode.MINPLUS, 2, 0, 1, 2),
            ]
            if reload_a:
                body.append(LoadMatrix(dst=0, addr=0, ld=16))
            body += [
                LoadMatrix(dst=1, addr=256, ld=16),  # same B: also redundant
                Mmo(MmoOpcode.MINPLUS, 2, 0, 1, 2),
                StoreMatrix(src=2, addr=768, ld=16),
            ]
            return Program(body, auto_halt=True)

        sloppy = build(reload_a=True)
        result = optimize_program(sloppy)
        assert result.removed_loads == 2  # the A reload and the repeated B
        assert result.removed_writes == 0

        def run(p: Program) -> np.ndarray:
            shm = SharedMemory()
            rng = np.random.default_rng(7)
            shm.write_matrix(0, rng.integers(0, 5, (TILE, TILE)), ElementType.F16)
            shm.write_matrix(256, rng.integers(0, 5, (TILE, TILE)), ElementType.F16)
            shm.write_matrix(512, rng.integers(0, 5, (TILE, TILE)), ElementType.F32)
            WarpExecutor(shm).run(p)
            return shm.read_matrix(768, (TILE, TILE), ElementType.F32)

        np.testing.assert_array_equal(run(result.program), run(sloppy))

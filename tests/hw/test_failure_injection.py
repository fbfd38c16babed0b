"""Failure injection: the emulator must fault loudly, never silently.

Systematically drives each fault class of the hardware stack — memory
overruns, register misuse, capability mismatches, resource exhaustion —
and asserts that faults surface as the right exception *and* leave
observable state uncorrupted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TILE
from repro.hw import (
    BaselineMmaUnit,
    HardwareError,
    MemoryFault,
    RegisterFault,
    SharedMemory,
    Simd2Device,
    UnsupportedOpcode,
    WarpExecutor,
    WarpWorkItem,
)
from repro.isa import (
    ElementType,
    FillMatrix,
    LoadMatrix,
    Mmo,
    MmoOpcode,
    Program,
    StoreMatrix,
)
from repro.runtime import RuntimeError_, TileProgramBuilder, mmo_tiled


class TestMemoryFaults:
    def test_load_past_end_faults_and_preserves_memory(self):
        shm = SharedMemory(size_bytes=1024)
        shm.write_matrix(0, np.ones((TILE, TILE)), ElementType.B8)
        snapshot = shm.read_matrix(0, (TILE, TILE), ElementType.B8).copy()
        program = Program(
            [LoadMatrix(dst=0, addr=2**20, ld=TILE)], auto_halt=True
        )
        with pytest.raises(MemoryFault):
            WarpExecutor(shm).run(program)
        np.testing.assert_array_equal(
            shm.read_matrix(0, (TILE, TILE), ElementType.B8), snapshot
        )

    def test_store_past_end_faults_before_writing(self):
        shm = SharedMemory(size_bytes=4 * TILE * TILE)
        program = Program(
            [
                FillMatrix(dst=0, value=7.0),
                StoreMatrix(src=0, addr=2**16, ld=TILE),
            ],
            auto_halt=True,
        )
        with pytest.raises(MemoryFault):
            WarpExecutor(shm).run(program)
        # Nothing may have been written anywhere.
        assert not shm.read_matrix(0, (TILE, TILE), ElementType.F32).any()

    def test_huge_stride_faults(self):
        shm = SharedMemory(size_bytes=1 << 12)
        with pytest.raises(MemoryFault, match="overruns"):
            shm.load_fragment(0, 2**15, ElementType.F32)


class TestRegisterFaults:
    def test_uninitialised_mmo_operand_is_impossible_via_program(self):
        # Program validation rejects it statically...
        with pytest.raises(Exception):
            Program(
                [Mmo(MmoOpcode.MMA, 3, 0, 1, 2)], auto_halt=True
            )

    def test_direct_register_abuse_faults_at_runtime(self):
        # ...and the register file still guards direct (non-Program) use.
        executor = WarpExecutor(SharedMemory())
        with pytest.raises(RegisterFault):
            executor.registers.read(5)

    def test_register_file_bounds(self):
        executor = WarpExecutor(SharedMemory())
        with pytest.raises(RegisterFault, match="out of range"):
            executor.registers.write(64, np.zeros((TILE, TILE)), ElementType.F32)


class TestCapabilityFaults:
    def test_baseline_device_faults_midway_without_partial_results(self):
        device = Simd2Device(sm_count=1, baseline_only=True)
        a = np.ones((TILE, TILE))
        with pytest.raises(UnsupportedOpcode):
            mmo_tiled("max-plus", a, a, backend="emulate", device=device)
        # The unit never counted a max-plus op.
        assert device.stats.mmos_by_opcode.get(MmoOpcode.MAXPLUS, 0) == 0

    def test_unit_rejects_wrong_shapes(self):
        unit = BaselineMmaUnit()
        with pytest.raises(HardwareError, match="4x4"):
            unit.compute(MmoOpcode.MMA, np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 8)))


class TestResourceExhaustion:
    def test_register_budget_exhaustion_in_builder(self):
        builder = TileProgramBuilder()
        for _ in range(64):
            builder.matrix("a")
        with pytest.raises(RuntimeError_, match="exhausted"):
            builder.matrix("b")

    def test_kernel_on_tiny_scratchpad_faults(self):
        # A deep-k kernel staged into a scratchpad that cannot hold its
        # operand panels must fault during staging, not corrupt results.
        from repro.compile.lower import build_tile_mmo_program

        program, c_addr, _ = build_tile_mmo_program(MmoOpcode.MMA, 8, boolean=False)
        tiny = SharedMemory(size_bytes=1024)
        with pytest.raises(MemoryFault):
            tiny.write_matrix(c_addr, np.zeros((TILE, TILE)), ElementType.F32)

    def test_device_with_no_sms_rejected(self):
        with pytest.raises(HardwareError, match="sm_count"):
            Simd2Device(sm_count=0)

    def test_empty_launch_is_harmless(self):
        device = Simd2Device(sm_count=2)
        stats = device.launch([])
        assert stats.instructions == 0
        assert device.kernel_launches == 1


class TestFaultIsolation:
    def test_fault_in_one_warp_does_not_corrupt_another(self):
        device = Simd2Device(sm_count=1)
        good_shm = SharedMemory()
        rng = np.random.default_rng(0)
        tile = rng.integers(0, 4, (TILE, TILE)).astype(float)
        good_shm.write_matrix(0, tile, ElementType.F16)
        good_program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=TILE),
                LoadMatrix(dst=1, addr=0, ld=TILE),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=256, ld=TILE),
            ],
            auto_halt=True,
        )
        bad_shm = SharedMemory(size_bytes=64)
        bad_program = Program(
            [LoadMatrix(dst=0, addr=0, ld=TILE)], auto_halt=True
        )
        device.launch([WarpWorkItem(good_program, good_shm)])
        with pytest.raises(MemoryFault):
            device.launch([WarpWorkItem(bad_program, bad_shm)])
        # The good warp's results survive untouched.
        from repro.core import mmo

        np.testing.assert_array_equal(
            good_shm.read_matrix(256, (TILE, TILE), ElementType.F32),
            mmo("plus-mul", tile, tile),
        )

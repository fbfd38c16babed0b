"""Performance of the reproduction itself: emulator and toolchain throughput.

Not a paper figure — these benches track the Python substrate's own speed
(instructions retired per second, unit ops per second, assembler/encoder
throughput, closure iteration rates) so regressions in the emulator are
caught the same way functional regressions are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TILE
from repro.hw import SharedMemory, Simd2Device, WarpExecutor
from repro.isa import (
    ElementType,
    MmoOpcode,
    Program,
    assemble,
    decode_program,
    disassemble,
    encode_program,
)
from repro.isa.optimizer import optimize_program
from repro.isa.verifier import verify_program
from repro.runtime import mmo_tiled
from repro.compile.lower import build_tile_mmo_program


@pytest.fixture(scope="module")
def deep_program():
    program, c_addr, d_addr = build_tile_mmo_program(
        MmoOpcode.MINPLUS, tiles_k=16, boolean=False
    )
    shm = SharedMemory()
    rng = np.random.default_rng(0)
    for kk in range(16):
        shm.write_matrix(kk * 256, rng.integers(1, 9, (TILE, TILE)), ElementType.F16)
        shm.write_matrix((16 + kk) * 256, rng.integers(1, 9, (TILE, TILE)), ElementType.F16)
    shm.write_matrix(c_addr, np.full((TILE, TILE), np.inf), ElementType.F32)
    return program, shm


def test_warp_execution_throughput(benchmark, deep_program):
    program, shm = deep_program

    def run():
        return WarpExecutor(shm).run(program)

    stats = benchmark(run)
    assert stats.mmos == 16
    assert stats.unit_ops == 16 * 64


def test_device_launch_throughput(benchmark):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 5, (64, 64)).astype(float)

    def run():
        device = Simd2Device(sm_count=4)
        return mmo_tiled("min-plus", a, a, backend="emulate", device=device)

    result, stats = benchmark(run)
    assert stats.execution.mmos == 4 * 4 * 4


def test_assembler_round_trip_throughput(benchmark, deep_program):
    program, _ = deep_program
    text = disassemble(list(program))

    def round_trip():
        return assemble(text)

    instrs = benchmark(round_trip)
    assert Program(instrs) == program


def test_binary_codec_throughput(benchmark, deep_program):
    program, _ = deep_program
    instrs = list(program)

    def round_trip():
        return decode_program(encode_program(instrs))

    decoded = benchmark(round_trip)
    assert decoded == instrs


def test_verifier_throughput(benchmark, deep_program):
    program, _ = deep_program
    report = benchmark(verify_program, program)
    assert report.ok


def test_optimizer_throughput(benchmark, deep_program):
    program, _ = deep_program
    result = benchmark(optimize_program, program)
    assert result.removed == 0

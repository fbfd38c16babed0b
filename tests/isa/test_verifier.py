"""Tests for the static program verifier."""

from __future__ import annotations

import pytest

from repro.isa import (
    ElementType,
    FillMatrix,
    IsaError,
    LoadMatrix,
    Mmo,
    MmoOpcode,
    Program,
    StoreMatrix,
    verify_program,
)
from repro.compile.lower import build_tile_mmo_program


def _valid_program() -> Program:
    return Program(
        [
            LoadMatrix(dst=0, addr=0, ld=16),
            LoadMatrix(dst=1, addr=256, ld=16),
            FillMatrix(dst=2, value=0.0),
            Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            StoreMatrix(src=3, addr=512, ld=16),
        ],
        auto_halt=True,
    )


class TestCleanPrograms:
    def test_valid_program_verifies(self):
        report = verify_program(_valid_program())
        assert report.ok
        assert report.registers_used == {0, 1, 2, 3}
        assert not report.dead_stores

    def test_generated_kernels_verify_clean(self):
        for opcode in MmoOpcode:
            program, _, _ = build_tile_mmo_program(
                opcode, tiles_k=3, boolean=opcode.semiring.is_boolean()
            )
            report = verify_program(program)
            assert report.ok, (opcode, report.errors)
            assert not report.warnings, (opcode, report.warnings)

    def test_shared_memory_footprint(self):
        report = verify_program(_valid_program())
        # Deepest access: f32 store at 512 .. 512 + 15*16 + 16 elements.
        assert report.shared_memory_bytes == (512 + 15 * 16 + 16) * 4


class TestTypeErrors:
    def test_fp32_operand_into_fp16_port(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F32),
                FillMatrix(dst=1, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=2, value=0.0, etype=ElementType.F32),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert not report.ok
        assert "a=m0 holds f32" in report.errors[0]

    def test_fp16_accumulator_rejected(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=1, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=2, value=0.0, etype=ElementType.F16),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("accumulator c=m2" in e for e in report.errors)

    def test_boolean_ring_wants_b8(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=1, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=2, value=0.0, etype=ElementType.F32),
                Mmo(MmoOpcode.ORAND, 3, 0, 1, 2),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("port needs b8" in e for e in report.errors)

    def test_store_format_mismatch(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F16),
                StoreMatrix(src=0, addr=0, ld=16, etype=ElementType.F32),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("store.f32 of m0 which holds f16" in e for e in report.errors)

    def test_check_mode_raises(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F32),
                FillMatrix(dst=1, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=2, value=0.0, etype=ElementType.F32),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
            ],
            auto_halt=True,
        )
        with pytest.raises(IsaError, match="port needs f16"):
            verify_program(program, check=True)


class TestFootprintAndGeometry:
    def test_tile_parameter_scales_footprint(self):
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16, etype=ElementType.F32),
                StoreMatrix(src=0, addr=0, ld=16),
            ],
            auto_halt=True,
        )
        default = verify_program(program)
        small = verify_program(program, tile=8)
        assert default.tile == 16 and small.tile == 8
        assert default.shared_memory_bytes == (15 * 16 + 16) * 4
        assert small.shared_memory_bytes == (7 * 16 + 8) * 4

    def test_nonpositive_tile_rejected(self):
        with pytest.raises(IsaError, match="tile size must be positive"):
            verify_program(_valid_program(), tile=0)

    def test_shared_limit_violation_is_instruction_indexed(self):
        report = verify_program(_valid_program(), shared_limit=1024)
        assert not report.ok
        # The deepest access is the store at instruction index 4.
        assert any(
            e.startswith("instruction 4:") and "shared-memory layout" in e
            for e in report.errors
        )

    def test_generous_limit_passes(self):
        footprint = verify_program(_valid_program()).shared_memory_bytes
        assert verify_program(_valid_program(), shared_limit=footprint).ok

    def test_register_budget_overflow(self):
        report = verify_program(_valid_program(), register_budget=3)
        assert not report.ok
        assert any("exceeding the budget of 3" in e for e in report.errors)
        assert report.register_budget == 3
        assert report.register_pressure == 4

    def test_register_accounting(self):
        report = verify_program(_valid_program())
        assert report.register_pressure == 4
        assert report.registers_free == report.register_budget - 4


class TestSemiringLegality:
    def test_nan_fill_rejected_on_selection_ring(self):
        program = Program(
            [
                FillMatrix(dst=0, value=float("nan"), etype=ElementType.F16),
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MINPLUS, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("NaN" in e and "poisons" in e for e in report.errors)

    def test_opposite_infinity_fill_rejected_on_plus_ring(self):
        # min-plus ⊕ identity is +inf; a -inf operand maps to NaN vs padding.
        program = Program(
            [
                FillMatrix(dst=0, value=float("-inf"), etype=ElementType.F16),
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MINPLUS, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("maps to NaN" in e for e in report.errors)

    def test_identity_infinity_fill_is_legal_padding(self):
        program = Program(
            [
                FillMatrix(dst=0, value=float("inf"), etype=ElementType.F16),
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MINPLUS, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16),
            ],
            auto_halt=True,
        )
        assert verify_program(program).ok

    def test_non_binary_boolean_fill_rejected(self):
        program = Program(
            [
                FillMatrix(dst=0, value=0.5, etype=ElementType.B8),
                LoadMatrix(dst=1, addr=0, ld=16, etype=ElementType.B8),
                FillMatrix(dst=2, value=0.0, etype=ElementType.B8),
                Mmo(MmoOpcode.ORAND, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16, etype=ElementType.B8),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert any("accepts only 0 or 1" in e for e in report.errors)

    def test_overwritten_fill_not_checked(self):
        # The poisonous fill is overwritten by a load before the mmo reads
        # the register, so no diagnostic applies.
        program = Program(
            [
                FillMatrix(dst=0, value=float("nan"), etype=ElementType.F16),
                LoadMatrix(dst=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MINPLUS, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=512, ld=16),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert report.ok, report.errors


class TestProgramEffects:
    def test_generated_kernel_effects(self):
        for opcode in MmoOpcode:
            program, _, _ = build_tile_mmo_program(
                opcode, tiles_k=3, boolean=opcode.semiring.is_boolean()
            )
            report = verify_program(program)
            effects = report.effects
            assert effects is not None
            assert effects.opcodes == (opcode,)
            assert effects.store_count == 1
            assert effects.max_fold_depth == 3
            assert effects.sequential_folds
            assert effects.deterministic  # left-fold chains always are

    def test_order_sensitivity_tracks_fp_add(self):
        import numpy as np

        for opcode in MmoOpcode:
            program, _, _ = build_tile_mmo_program(
                opcode, tiles_k=2, boolean=opcode.semiring.is_boolean()
            )
            effects = verify_program(program).effects
            assert effects.order_sensitive == (opcode.semiring.oplus is np.add)

    def test_store_set_on_report(self):
        report = verify_program(_valid_program())
        assert len(report.store_set) == 1
        assert report.store_set[0].addr == 512

    def test_summary_stats_shape(self):
        stats = verify_program(_valid_program()).summary_stats()
        assert stats == {
            "errors": 0,
            "warnings": 0,
            "dead_stores": 0,
            "stores": 1,
            "registers_used": 4,
            "shared_memory_bytes": (512 + 15 * 16 + 16) * 4,
        }


class TestLiveness:
    def test_dead_store_warning(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=0, value=2.0, etype=ElementType.F16),  # kills #0
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=0, ld=16),
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert report.ok
        assert any("dead store" in w for w in report.warnings)

    def test_unread_final_value_flagged(self):
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=0, ld=16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
                # m3 never stored: the whole computation is dead.
            ],
            auto_halt=True,
        )
        report = verify_program(program)
        assert 3 in {program[i].d for i in report.dead_stores if hasattr(program[i], "d")}
        assert any("never" in w for w in report.warnings)

"""Tests for symbolic store effects and translation validation."""

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
    store_effects,
    validate_translation,
)
from repro.isa.optimizer import optimize_program
from repro.compile.lower import build_tile_mmo_program


def _chain_program(tiles_k: int = 3) -> Program:
    body = [
        LoadMatrix(dst=2, addr=512, ld=16, etype=ElementType.F32),
    ]
    for kk in range(tiles_k):
        body.append(LoadMatrix(dst=0, addr=kk * 256, ld=16))
        body.append(LoadMatrix(dst=1, addr=(tiles_k + kk) * 256, ld=16))
        body.append(Mmo(MmoOpcode.MMA, 2, 0, 1, 2))
    body.append(StoreMatrix(src=2, addr=512, ld=16))
    return Program(body, auto_halt=True)


class TestStoreEffects:
    def test_single_store_term_shape(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0, etype=ElementType.F16),
                FillMatrix(dst=1, value=2.0, etype=ElementType.F16),
                FillMatrix(dst=2, value=0.0),
                Mmo(MmoOpcode.MMA, 3, 0, 1, 2),
                StoreMatrix(src=3, addr=0, ld=16),
            ],
            auto_halt=True,
        )
        effects = store_effects(program)
        assert len(effects) == 1
        effect = effects[0]
        assert effect.addr == 0 and effect.ld == 16
        assert effect.fold_depth == 1
        kind, opcode, a_term, b_term, c_term = effect.term
        assert kind == "mmo" and opcode == int(MmoOpcode.MMA)
        assert a_term[0] == "fill" and c_term[0] == "fill"

    def test_fold_depth_counts_c_spine(self):
        effects = store_effects(_chain_program(tiles_k=4))
        assert len(effects) == 1
        assert effects[0].fold_depth == 4

    def test_mem_version_distinguishes_reloads_across_stores(self):
        program = Program(
            [
                LoadMatrix(dst=0, addr=0, ld=16, etype=ElementType.F32),
                StoreMatrix(src=0, addr=0, ld=16),
                LoadMatrix(dst=1, addr=0, ld=16, etype=ElementType.F32),
                StoreMatrix(src=1, addr=256, ld=16),
            ],
            auto_halt=True,
        )
        first, second = store_effects(program)
        # The second load may observe the first store: different version.
        assert first.term != second.term

    def test_fill_bit_pattern_identity(self):
        neg = store_effects(
            Program(
                [FillMatrix(dst=0, value=-0.0), StoreMatrix(src=0, addr=0, ld=16)],
                auto_halt=True,
            )
        )
        pos = store_effects(
            Program(
                [FillMatrix(dst=0, value=0.0), StoreMatrix(src=0, addr=0, ld=16)],
                auto_halt=True,
            )
        )
        assert neg[0].term != pos[0].term  # -0.0 and 0.0 are distinct fills


class TestValidateTranslation:
    def test_optimizer_output_validates(self):
        for opcode in MmoOpcode:
            program, _, _ = build_tile_mmo_program(
                opcode, tiles_k=3, boolean=opcode.semiring.is_boolean()
            )
            optimized = optimize_program(program)
            report = validate_translation(program, optimized.program)
            assert report.ok, (opcode, report.mismatches)
            assert report.original_stores == report.optimized_stores

    def test_identity_translation_validates(self):
        program = _chain_program()
        assert validate_translation(program, program).ok

    def test_dropped_store_detected(self):
        program = Program(
            [
                FillMatrix(dst=0, value=1.0),
                StoreMatrix(src=0, addr=0, ld=16),
                StoreMatrix(src=0, addr=256, ld=16),
            ],
            auto_halt=True,
        )
        broken = Program(
            [
                FillMatrix(dst=0, value=1.0),
                StoreMatrix(src=0, addr=0, ld=16),
            ],
            auto_halt=True,
        )
        report = validate_translation(program, broken)
        assert not report.ok
        assert any("store count changed" in m for m in report.mismatches)

    def test_changed_value_detected(self):
        program = _chain_program(tiles_k=2)
        # "Optimise" away one fold step: the store's reaching value changes.
        broken = _chain_program(tiles_k=1)
        # Give the broken program the same store destination.
        report = validate_translation(program, broken)
        assert not report.ok

    def test_changed_destination_detected(self):
        original = Program(
            [FillMatrix(dst=0, value=1.0), StoreMatrix(src=0, addr=0, ld=16)],
            auto_halt=True,
        )
        moved = Program(
            [FillMatrix(dst=0, value=1.0), StoreMatrix(src=0, addr=256, ld=16)],
            auto_halt=True,
        )
        report = validate_translation(original, moved)
        assert any("destination changed" in m for m in report.mismatches)

    def test_check_mode_raises(self):
        original = Program(
            [FillMatrix(dst=0, value=1.0), StoreMatrix(src=0, addr=0, ld=16)],
            auto_halt=True,
        )
        broken = Program(
            [FillMatrix(dst=0, value=2.0), StoreMatrix(src=0, addr=0, ld=16)],
            auto_halt=True,
        )
        with pytest.raises(IsaError, match="translation validation failed"):
            validate_translation(original, broken, check=True)

    def test_optimize_program_validate_flag(self):
        program = _chain_program()
        result = optimize_program(program, validate=True)
        assert validate_translation(program, result.program).ok

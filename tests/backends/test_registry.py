"""Backend registry semantics and the unified validation error path."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BackendError,
    MmoBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.backends.base import _REGISTRY
from repro.backends.sparse import identity_absorbs
from repro.core import SEMIRINGS
from repro.hw.device import Simd2Device
from repro.runtime import (
    HostRuntime,
    RuntimeError_,
    batched_mmo,
    closure,
    mmo_tiled,
    mmo_tiled_multi_device,
    mmo_tiled_split_k,
    resolve_context,
    use_context,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"vectorized", "emulate", "sparse"} <= set(list_backends())

    def test_list_is_sorted(self):
        names = list_backends()
        assert list(names) == sorted(names)

    def test_get_backend_returns_named_impl(self):
        for name in list_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(BackendError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "unknown backend 'cuda'" in message
        for name in list_backends():
            assert name in message

    def test_backend_error_is_runtime_error(self):
        # Pre-existing callers catch RuntimeError_ with match="unknown backend".
        assert issubclass(BackendError, RuntimeError_)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend(get_backend("vectorized"))

    def test_register_and_dispatch_custom_backend(self):
        class DoublingBackend(MmoBackend):
            name = "test-doubling"

            def execute(self, compiled, a, b, c, *, context):
                d, stats = get_backend("vectorized").execute(
                    compiled, a, b, c, context=context
                )
                return d * 2, stats

        register_backend(DoublingBackend())
        try:
            assert "test-doubling" in list_backends()
            a = np.ones((3, 4))
            b = np.ones((4, 2))
            expected, _ = mmo_tiled("plus-mul", a, b)
            doubled, _ = mmo_tiled("plus-mul", a, b, backend="test-doubling")
            np.testing.assert_array_equal(doubled, expected * 2)
        finally:
            _REGISTRY.pop("test-doubling", None)

    def test_replace_requires_flag(self):
        class Dummy(MmoBackend):
            name = "test-dummy"

        register_backend(Dummy())
        try:
            with pytest.raises(BackendError, match="already registered"):
                register_backend(Dummy())
            register_backend(Dummy(), replace=True)
        finally:
            _REGISTRY.pop("test-dummy", None)

    def test_nameless_backend_rejected(self):
        class Nameless(MmoBackend):
            pass

        with pytest.raises(BackendError, match="name"):
            register_backend(Nameless())

    def test_backend_without_compile_execute_rejected(self):
        class SingleShot:
            name = "test-single-shot"

            def run_mmo(self, opcode, a, b, c, *, context):  # pragma: no cover
                raise NotImplementedError

        class ExecuteOnly:
            name = "test-execute-only"
            compile = None  # present but not callable

            def execute(self, compiled, a, b, c, *, context):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(BackendError, match="compile and execute"):
            register_backend(SingleShot())
        with pytest.raises(BackendError, match=r"implement compile\(\)"):
            register_backend(ExecuteOnly())
        assert "test-single-shot" not in list_backends()
        assert "test-execute-only" not in list_backends()


class TestEntryPointValidation:
    """Every runtime entry point rejects unknown backends up front.

    Before the registry, only ``mmo_tiled`` validated; ``closure``,
    ``batched_mmo`` and ``mmo_tiled_multi_device`` passed bad names down
    to fail deep in the stack (or iterate first).
    """

    def _operands(self):
        a = np.ones((4, 4))
        return a, a.copy()

    def test_mmo_tiled(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled("plus-mul", a, b, backend="cuda")

    def test_mmo_tiled_empty_output_still_validates(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled("plus-mul", np.ones((0, 3)), np.ones((3, 2)), backend="cuda")

    def test_mmo_tiled_split_k(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled_split_k("plus-mul", a, b, backend="cuda")

    def test_closure(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            closure("min-plus", np.zeros((4, 4)), backend="cuda")

    def test_batched_mmo(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            batched_mmo("plus-mul", a[None], b[None], backend="cuda")

    def test_multi_device(self):
        a, b = self._operands()
        with pytest.raises(RuntimeError_, match="unknown backend"):
            mmo_tiled_multi_device(
                "plus-mul", a, b, devices=[Simd2Device()], backend="cuda"
            )

    def test_host_runtime_constructor(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            HostRuntime(backend="cuda")

    def test_use_context_validates_eagerly(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            with use_context(backend="cuda"):
                pass  # pragma: no cover - must raise at the with statement

    def test_resolve_context(self):
        with pytest.raises(RuntimeError_, match="unknown backend"):
            resolve_context(backend="cuda")


class TestDeviceIdiomDeduplicated:
    def test_no_call_site_constructs_the_emulate_device_branch(self):
        """The ``device=device if backend == "emulate" else None`` idiom was
        copied across host.py and multidevice.py; the context carries the
        device unconditionally now, so the branch must not reappear.
        """
        src_root = Path(__file__).resolve().parents[2] / "src"
        pattern = re.compile(
            r"if\s+[\w.]*backend\s*==\s*[\"']emulate[\"']\s+else\s+None"
        )
        offenders = [
            str(path.relative_to(src_root))
            for path in sorted(src_root.rglob("*.py"))
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


class TestSparseBackendClassification:
    def test_absorbing_rings(self):
        expected_non_absorbing = {"plus-norm", "min-mul", "max-mul"}
        non_absorbing = {
            name for name, ring in SEMIRINGS.items() if not identity_absorbs(ring)
        }
        assert non_absorbing == expected_non_absorbing

    def test_sparse_backend_reports_spgemm_stats(self):
        a = np.ones((5, 6))
        b = np.ones((6, 7))
        _, stats = mmo_tiled("plus-mul", a, b, backend="sparse")
        assert stats.spgemm is not None
        assert stats.spgemm.products == 5 * 6 * 7

    def test_dense_backends_report_no_spgemm_stats(self):
        a = np.ones((5, 6))
        b = np.ones((6, 7))
        for backend in ("vectorized", "emulate"):
            _, stats = mmo_tiled("plus-mul", a, b, backend=backend)
            assert stats.spgemm is None

"""Tests for the host-runtime driver (Figure 7 workflow as an API)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SemiringError, mmo
from repro.datasets import GraphSpec, distance_graph
from repro.runtime import HostRuntime, closure


@pytest.fixture
def adjacency() -> np.ndarray:
    return distance_graph(GraphSpec(24, 0.15, seed=8))


class TestBufferLifecycle:
    def test_upload_download_round_trip(self, adjacency):
        host = HostRuntime()
        host.upload("adj", adjacency)
        np.testing.assert_array_equal(
            host.download("adj"), adjacency.astype(np.float32)
        )
        host.free("adj")
        assert host.event_kinds() == ["malloc", "memcpy_h2d", "memcpy_d2h", "free"]


class TestMmoLaunch:
    def test_run_mmo_emulated(self, adjacency):
        host = HostRuntime()
        host.upload("a", adjacency)
        stats = host.run_mmo("min-plus", "a", "a", "a", "out")
        expected = mmo("min-plus", adjacency, adjacency, adjacency)
        np.testing.assert_array_equal(host.download("out"), expected)
        assert stats.execution is not None  # ran on the emulator

    def test_run_mmo_vectorized_backend(self, adjacency):
        host = HostRuntime(backend="vectorized")
        host.upload("a", adjacency)
        host.run_mmo("min-plus", "a", "a", None, "out")
        np.testing.assert_array_equal(
            host.download("out"), mmo("min-plus", adjacency, adjacency)
        )


class TestHostClosure:
    def test_matches_library_closure(self, adjacency):
        host = HostRuntime()
        host.upload("dist", adjacency)
        outcome = host.run_closure("min-plus", "dist")
        library = closure("min-plus", adjacency)
        np.testing.assert_array_equal(outcome.matrix, library.matrix)
        assert outcome.converged
        assert outcome.iterations == library.iterations

    def test_result_stays_on_device(self, adjacency):
        host = HostRuntime()
        host.upload("dist", adjacency)
        outcome = host.run_closure("min-plus", "dist")
        np.testing.assert_array_equal(host.download("dist"), outcome.matrix)

    def test_timeline_has_no_mid_loop_transfers(self, adjacency):
        # The paper's point: mmo and the convergence check share device
        # memory — no H2D/D2H between them.
        host = HostRuntime()
        host.upload("dist", adjacency)
        host.run_closure("min-plus", "dist")
        kinds = host.event_kinds()
        loop = kinds[kinds.index("mmo_launch") :]
        assert set(loop) <= {"mmo_launch", "check"}
        assert loop.count("check") == loop.count("mmo_launch")

    def test_bellman_ford_method(self, adjacency):
        host = HostRuntime(backend="vectorized")
        host.upload("dist", adjacency)
        outcome = host.run_closure("min-plus", "dist", method="bellman-ford")
        library = closure("min-plus", adjacency, method="bellman-ford")
        np.testing.assert_array_equal(outcome.matrix, library.matrix)

    def test_no_convergence_check(self, adjacency):
        host = HostRuntime(backend="vectorized")
        host.upload("dist", adjacency)
        outcome = host.run_closure("min-plus", "dist", convergence_check=False)
        assert not outcome.converged
        assert "check" not in host.event_kinds()

    def test_non_square_buffer_rejected(self):
        host = HostRuntime()
        host.upload("bad", np.zeros((2, 3)))
        with pytest.raises(SemiringError, match="square"):
            host.run_closure("min-plus", "bad")

    def test_unknown_method_rejected(self, adjacency):
        host = HostRuntime()
        host.upload("dist", adjacency)
        with pytest.raises(SemiringError, match="unknown closure method"):
            host.run_closure("min-plus", "dist", method="johnson")

    def test_zero_iteration_cap_rejected(self, adjacency):
        """``max_iterations=0`` raises like every other closure entry point
        instead of silently reporting a zero-iteration outcome."""
        host = HostRuntime(backend="vectorized")
        host.upload("dist", adjacency)
        with pytest.raises(SemiringError, match="max_iterations must be positive"):
            host.run_closure("min-plus", "dist", max_iterations=0)
        assert "mmo_launch" not in host.event_kinds()

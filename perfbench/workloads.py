"""The benchmark's four closed-loop workloads.

Each workload is one caller on the default serial scheduler, cycling over a
seeded pool of inputs.  One op is one call the user of the library would
make (a round of tile launches, an APSP, a KNN); its output is checked
against an oracle that does not go through the SIMD² kernels: SciPy's
Dijkstra for APSP, the explicit-loop ``knn_baseline`` for k-NN and the
scalar triple loop ``mmo_reference`` for tiles.

The library functions are called through their modules (``kernels.
mmo_tiled``, not a name bound at import) so that the tracer's wrappers,
installed by replacing module attributes, see every call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph

from repro.apps import apsp as apsp_app
from repro.apps import knn as knn_app
from repro.core.ops import mmo_reference
from repro.datasets.graphs import GraphSpec, distance_graph
from repro.datasets.points import PointCloudSpec, gaussian_clusters
from repro.resilience import policy
from repro.runtime import kernels

TILE_RINGS = ("min-plus", "plus-mul", "max-min", "or-and")
#: Rings whose ⊕ selects an operand value, so every fold order agrees.
IDEMPOTENT_RINGS = frozenset(("min-plus", "max-min", "or-and"))
#: Tolerance for plus-mul, whose fp32 sum order may differ from the oracle's
#: (the same tolerance as the dispatch benchmark's parity gate).
PLUS_RTOL = 1e-4


class Workload:
    """A pool of inputs, the op run on one of them, and its oracle.

    ``expected`` stays empty until :meth:`compute_references` fills it; the
    benchmark times that step separately, outside ``setup_s``.
    """

    name = ""
    pool_size = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = self.make_pool(np.random.default_rng(seed))
        self.expected: list = []

    def make_pool(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def run(self, item) -> object:
        raise NotImplementedError

    def reference(self, item) -> object:
        raise NotImplementedError

    def matches(self, got, want) -> bool:
        raise NotImplementedError

    def compute_references(self) -> None:
        self.expected = [self.reference(item) for item in self.pool]

    def op(self, index: int) -> object:
        return self.run(self.pool[index])

    def check(self, index: int, output) -> bool:
        return self.matches(output, self.expected[index])


class TileStream(Workload):
    """A round of 16 launches on 16×16 tiles: 4 entry points × 4 rings.

    Dispatch dominates: ``core.ops.mmo`` is a small share of each launch,
    so this workload shows per-launch overhead (plan cache, hooks, planner,
    graph lowering, ABFT checks) and barely moves with the kernel.
    """

    name = "tile_stream"
    pool_size = 16

    def make_pool(self, rng):
        pool = []
        for _ in range(self.pool_size):
            # Non-negative values on the fp16 grid: every ring, including
            # the ABFT-checked launches, accepts them.
            a = np.round(rng.uniform(0.0, 8.0, (16, 16)) * 8.0) / 8.0
            b = np.round(rng.uniform(0.0, 8.0, (16, 16)) * 8.0) / 8.0
            pool.append({
                ring: (a > 4.0, b > 4.0) if ring == "or-and" else (a, b)
                for ring in TILE_RINGS
            })
        return pool

    def run(self, item):
        outputs = []
        for ring in TILE_RINGS:
            a, b = item[ring]
            outputs.append(kernels.mmo_tiled(ring, a, b, backend="vectorized")[0])
            outputs.append(kernels.mmo_tiled(ring, a, b, backend="auto")[0])
            outputs.append(kernels.mmo_tiled_split_k(ring, a, b, splits=1)[0])
            outputs.append(policy.resilient_mmo(ring, a, b)[0])
        return outputs

    def reference(self, item):
        return [mmo_reference(ring, *item[ring]) for ring in TILE_RINGS]

    def matches(self, got, want):
        for index, out in enumerate(got):
            ring = TILE_RINGS[index // 4]
            ref = want[index // 4]
            if ring in IDEMPOTENT_RINGS:
                ok = out.dtype == ref.dtype and np.array_equal(out, ref)
            else:
                ok = out.shape == ref.shape and np.allclose(
                    out, ref, rtol=PLUS_RTOL, atol=0.0
                )
            if not ok:
                return False
        return True


class Apsp(Workload):
    """APSP by min-plus closure (Leyzorek squaring, convergence check)."""

    vertices = 0
    edge_probability = 0.0
    backend = ""
    # Large, so one seed's draw of slow graphs moves p90 little (at 15
    # graphs it set p90 per seed); odd, so p50 falls mid-way through one
    # graph's share of the ops, not on a boundary between two graphs where
    # it would jump from seed to seed.
    pool_size = 45

    def make_pool(self, rng):
        seeds = rng.integers(0, 2**31, self.pool_size)
        return [
            distance_graph(GraphSpec(self.vertices, self.edge_probability, int(s)))
            for s in seeds
        ]

    def run(self, item):
        return apsp_app.apsp_simd2(item, backend=self.backend).distances

    def reference(self, item):
        # Dijkstra on the fp16-quantised weights the datapath sees; on a
        # dense input csgraph treats +inf entries as missing edges.
        weights = item.astype(np.float16).astype(np.float64)
        return scipy.sparse.csgraph.shortest_path(weights, method="D").astype(
            np.float32
        )

    def matches(self, got, want):
        return got.dtype == want.dtype and np.array_equal(got, want)


class ApspDense(Apsp):
    """``core.ops.mmo`` is nearly all of the op."""

    name = "apsp_dense"
    vertices = 128
    edge_probability = 0.05
    backend = "vectorized"


class ApspSparseAuto(Apsp):
    """Sparse graphs under the planner: iterates fill in, so launches move
    between the ``sparse`` and ``vectorized`` backends."""

    name = "apsp_sparse_auto"
    vertices = 160
    edge_probability = 0.006
    backend = "auto"


class KnnDense(Workload):
    """k-NN by plus-norm distances plus top-k selection in ``apps.knn``."""

    name = "knn_dense"
    pool_size = 4
    points = 512
    dimensions = 16
    k = 8

    def make_pool(self, rng):
        seeds = rng.integers(0, 2**31, (self.pool_size, 2))
        return [
            tuple(
                gaussian_clusters(PointCloudSpec(self.points, self.dimensions, seed=int(s)))[0]
                for s in pair
            )
            for pair in seeds
        ]

    def run(self, item):
        result = knn_app.knn_simd2(*item, self.k, backend="vectorized")
        return result.indices, result.distances

    def reference(self, item):
        result = knn_app.knn_baseline(*item, self.k)
        return result.indices, result.distances

    def matches(self, got, want):
        return all(
            g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want)
        )


WORKLOADS = {
    cls.name: cls for cls in (TileStream, ApspDense, ApspSparseAuto, KnnDense)
}

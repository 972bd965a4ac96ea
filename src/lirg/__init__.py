"""Left-ideal relation graphs of full matrix rings over finite fields."""

import os

# lirg's only floating-point products are float32 counts over class-level
# matrices, small enough for one BLAS thread, so numpy need not start more.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from lirg.counting import (
    count_report,
    fiber_size,
    gaussian_binomial,
    gl_order,
    predicted_degree,
    rank_class_size,
)
from lirg.field import Field, make_field
from lirg.graph import (
    RelationGraph,
    build_full_graph,
    build_quotient_graph,
    subspaces,
)
from lirg.invariants import InvariantReport, compute_report, predicted_invariants
from lirg.matrix import (
    enumerate_matrices,
    ideal_of,
    proper_subset,
    random_invertible,
    vertex_decode,
    vertex_encode,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "InvariantReport",
    "RelationGraph",
    "__version__",
    "build_full_graph",
    "build_quotient_graph",
    "compute_report",
    "count_report",
    "enumerate_matrices",
    "fiber_size",
    "gaussian_binomial",
    "gl_order",
    "ideal_of",
    "make_field",
    "predicted_degree",
    "predicted_invariants",
    "proper_subset",
    "random_invertible",
    "rank_class_size",
    "subspaces",
    "vertex_decode",
    "vertex_encode",
]

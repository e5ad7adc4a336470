"""Linear-algebra substrate: Schur complements, shortcut graphs, powers.

Implements Section 1.7 (definitions), Section 2.4 (CongestedClique
computation of the derived graphs) and Lemma 7 (matrix powers with bounded
subtractive error):

- :mod:`repro.linalg.schur` -- ``Schur(G, S)`` (Definitions 1 and 2) via
  block elimination (the sampler's path), with single-vertex elimination
  and the Corollary-3 QR-product construction as test oracles;
- :mod:`repro.linalg.shortcut` -- ``ShortCut(G, S)`` (Definition 3) via
  the fundamental matrix (the sampler's path), with Corollary 2's
  absorbing power iteration as a test oracle;
- :mod:`repro.linalg.matpow` -- the repeated-squaring power ladder with
  per-squaring entry rounding and the Lemma 7 error recurrence;
- :mod:`repro.linalg.backend` -- the sparse/dense dual-backend dispatch
  (:class:`~repro.linalg.backend.DenseLinalg` /
  :class:`~repro.linalg.backend.SparseLinalg`) plus the format-agnostic
  matrix accessors the walk layer consumes;
- :mod:`repro.linalg.sparse` -- the scipy CSR kernels behind the sparse
  backend (eliminated-block shortcut, boundary-block Schur complement).
"""

from repro.linalg.backend import (
    DenseLinalg,
    SparseLinalg,
    auto_linalg_name,
    is_sparse_matrix,
    matrix_col,
    make_linalg_backend,
    matrix_density,
    matrix_entry,
    matrix_nbytes,
    matrix_row,
    maybe_densify,
    resolve_linalg_backend,
    to_dense,
)
from repro.linalg.calibrate import (
    CrossoverProfile,
    load_profile,
    profile_for_config,
    run_calibration,
    save_profile,
)
from repro.linalg.matpow import (
    PowerLadder,
    lemma7_error_bound,
    round_matrix_down,
)
from repro.linalg.schur import (
    first_hit_distribution,
    schur_complement_graph,
    schur_complement_laplacian,
    schur_by_elimination,
    schur_transition_matrix,
    schur_via_qr_product,
)
from repro.linalg.shortcut import (
    first_visit_edge_distribution,
    shortcut_transition_matrix,
    shortcut_via_power_iteration,
)

__all__ = [
    "DenseLinalg",
    "SparseLinalg",
    "auto_linalg_name",
    "is_sparse_matrix",
    "make_linalg_backend",
    "matrix_col",
    "matrix_density",
    "matrix_entry",
    "matrix_nbytes",
    "matrix_row",
    "maybe_densify",
    "resolve_linalg_backend",
    "to_dense",
    "CrossoverProfile",
    "load_profile",
    "profile_for_config",
    "run_calibration",
    "save_profile",
    "PowerLadder",
    "lemma7_error_bound",
    "round_matrix_down",
    "first_hit_distribution",
    "schur_complement_graph",
    "schur_complement_laplacian",
    "schur_by_elimination",
    "schur_transition_matrix",
    "schur_via_qr_product",
    "first_visit_edge_distribution",
    "shortcut_transition_matrix",
    "shortcut_via_power_iteration",
]

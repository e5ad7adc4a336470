"""CSR constructions of the derived graphs (the sparse backend's kernels).

The dense reference constructions in :mod:`repro.linalg.schur` and
:mod:`repro.linalg.shortcut` invert or solve full ``n x n`` systems even
when almost all of that work is structurally zero. Both derived graphs
are absorbing-chain objects, and the absorbing structure localizes them:

- **ShortCut(G, S)** counts visits *before* the walk enters S, so the
  fundamental matrix ``G = (I - Ptilde)^{-1}`` differs from the identity
  only on columns of ``C = V \\ S``: writing ``B = P[:, C]`` and
  ``K = P[C, C]``, the geometric series collapses to

      G = I + B (I_c - K)^{-1},

  a ``|C| x |C|`` solve instead of an ``n x n`` inverse
  (:func:`sparse_shortcut_matrix`). Early phases have tiny ``C``
  (the visited region), so this is the dominant saving.

- **Schur(G, S)** eliminates ``C``; the correction
  ``L_SC L_CC^{-1} L_CS`` is supported on the *boundary* of C (S-vertices
  adjacent to an eliminated vertex), because columns of ``L_CS`` for
  non-adjacent S-vertices are exactly zero and solving against an exactly
  zero right-hand side yields exactly zero. :func:`sparse_schur_transition`
  therefore solves only for the active boundary columns and scatters the
  small dense block back into CSR -- never materializing the |S| x |S|
  dense intermediate the block formula implies.

Both kernels evaluate the same formulas as their dense counterparts over
the same float64 inputs; entries can differ in final ulps only because
sparse accumulation orders sums differently than LAPACK/BLAS. Errors
mirror the dense constructions' :class:`~repro.errors.GraphError`
conditions one for one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.core import WeightedGraph

# The clip threshold and subset validation are shared with the dense
# reference constructions on purpose: both backends must agree on what
# counts as float noise and on S's canonical order, or the entrywise
# agreement contract (and the cross-backend identity tests) breaks.
from repro.linalg.schur import _CLIP, _validate_subset

try:  # pragma: no cover - the CI image ships scipy
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
except ImportError:  # pragma: no cover
    sp = None
    splu = None

__all__ = [
    "sparse_shortcut_matrix",
    "sparse_schur_complement_laplacian",
    "sparse_schur_transition",
]


def _require_scipy() -> None:
    if sp is None:  # pragma: no cover - guarded by backend construction
        raise GraphError("sparse kernels require scipy")


def _complement(n: int, s: list[int]) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[s] = False
    return np.flatnonzero(mask)


def _scale_rows(matrix, divisors: np.ndarray):
    """Divide each CSR row by its scalar divisor (exact ``a / b`` per entry).

    Uses true division on the stored data (not multiplication by a
    reciprocal) so entries match the dense path's ``row / divisor``
    bit for bit given equal inputs.
    """
    matrix = sp.csr_array(matrix)
    matrix.data = matrix.data / np.repeat(divisors, np.diff(matrix.indptr))
    return matrix


# ----------------------------------------------------------------------
# ShortCut(G, S)
# ----------------------------------------------------------------------


def sparse_shortcut_matrix(graph: WeightedGraph, subset: Sequence[int]):
    """Exact ``Q`` for ``ShortCut(G, S)`` as a CSR array (Definition 3).

    Uses the eliminated-block form ``G = I + P[:, C] (I_c - K)^{-1}``
    with ``K = P[C, C]``: only a ``|C| x |C|`` system is solved, and the
    result has at most ``n * (|C| + 1)`` stored entries. Agrees with
    :func:`repro.linalg.shortcut.shortcut_transition_matrix` entrywise
    (up to final-ulp accumulation order).
    """
    _require_scipy()
    n = graph.n
    s = _validate_subset(n, subset)
    complement = _complement(n, s)
    transition = graph.transition_matrix()
    in_s = np.zeros(n, dtype=bool)
    in_s[s] = True
    into_s = transition[:, in_s].sum(axis=1)

    if complement.size == 0:
        # S = V: the walk is absorbed on its first step, G = I.
        return sp.csr_array(sp.eye_array(n, format="csr"))

    b = transition[:, complement]  # n x c
    k = transition[np.ix_(complement, complement)]  # c x c
    identity_c = np.eye(complement.size)
    try:
        # M = B (I_c - K)^{-1}  <=>  M^T = (I_c - K)^{-T} B^T.
        visits_c = np.linalg.solve((identity_c - k).T, b.T).T  # n x c
    except np.linalg.LinAlgError as exc:
        raise GraphError(
            "shortcut matrix undefined: some vertex cannot reach S"
        ) from exc

    # Q[u, v] = G[u, v] * P[v, S]: a diagonal part on V (G's identity)
    # plus the dense-but-narrow eliminated-column block.
    diag = sp.dia_array((into_s[None, :], [0]), shape=(n, n))
    block = sp.csr_array(visits_c * into_s[complement][None, :])
    scatter = sp.csr_array(
        (
            block.data,
            complement[block.indices],
            block.indptr,
        ),
        shape=(n, n),
    )
    q = sp.csr_array(diag.tocsr() + scatter)
    row_sums = np.asarray(q.sum(axis=1)).ravel()
    if np.any(row_sums < 1.0 - 1e-6):
        raise GraphError(
            "shortcut matrix rows do not sum to 1; S unreachable from "
            "some vertex"
        )
    return _scale_rows(q, row_sums)


# ----------------------------------------------------------------------
# Schur(G, S)
# ----------------------------------------------------------------------


def sparse_schur_complement_laplacian(graph: WeightedGraph, subset: Sequence[int]):
    """Schur complement of ``L(G)`` onto ``subset`` as CSR (Definition 1).

    Returns ``(schur_csr, order)`` with ``order`` the sorted subset. The
    elimination correction is computed only for the boundary block (the
    S-vertices actually adjacent to eliminated vertices); all other
    entries are copied from ``L_SS`` untouched, exactly as the dense
    block formula would produce (zero right-hand sides solve to zero).
    """
    _require_scipy()
    n = graph.n
    s = _validate_subset(n, subset)
    complement = _complement(n, s)
    laplacian = sp.csr_array(graph.laplacian())
    l_ss = sp.csr_array(laplacian[s, :][:, s])
    if complement.size == 0:
        return l_ss, s

    l_cs = sp.csc_array(laplacian[complement, :][:, s])
    l_cc = sp.csc_array(laplacian[complement, :][:, complement])
    # Boundary: S-columns with any weight into the eliminated block
    # (non-empty columns of the CSC slice).
    active = np.flatnonzero(np.diff(l_cs.indptr))
    if active.size == 0:
        raise GraphError(
            "Schur complement undefined: eliminated block is singular "
            "(a component of V \\ S is disconnected from S)"
        )
    try:
        lu = splu(sp.csc_matrix(l_cc))
    except RuntimeError as exc:
        raise GraphError(
            "Schur complement undefined: eliminated block is singular "
            "(a component of V \\ S is disconnected from S)"
        ) from exc
    rhs = l_cs[:, active].toarray()
    solved = lu.solve(rhs)  # |C| x |a|
    if not np.all(np.isfinite(solved)):
        raise GraphError(
            "Schur complement undefined: eliminated block is singular "
            "(a component of V \\ S is disconnected from S)"
        )
    l_sc_active = sp.csr_array(laplacian[s, :][:, complement])[active, :]
    block = l_sc_active.toarray() @ solved  # |a| x |a| boundary correction
    rows = np.repeat(active, active.size)
    cols = np.tile(active, active.size)
    correction = sp.csr_array(
        (block.ravel(), (rows, cols)), shape=l_ss.shape
    )
    return sp.csr_array(l_ss - correction), s


def sparse_schur_transition(graph: WeightedGraph, subset: Sequence[int]):
    """Transition matrix of the walk on ``Schur(G, S)`` as CSR.

    Mirrors :func:`repro.linalg.schur.schur_transition_matrix`: weights
    are the negated off-diagonal Schur entries (float noise clipped at
    the same thresholds), symmetrized, then row-normalized.
    """
    schur, s = sparse_schur_complement_laplacian(graph, subset)
    weights = sp.csr_array(-schur)
    weights.setdiag(0.0)
    weights.data[np.abs(weights.data) < _CLIP] = 0.0
    if weights.nnz and np.any(weights.data < -1e-8):
        raise GraphError(
            "Schur complement produced significantly negative weights; "
            "input Laplacian was not a graph Laplacian"
        )
    weights.data = np.clip(weights.data, 0.0, None)
    weights = sp.csr_array((weights + weights.T) * 0.5)
    weights.eliminate_zeros()
    degrees = np.asarray(weights.sum(axis=1)).ravel()
    isolated = degrees <= 0
    safe = np.where(isolated, 1.0, degrees)
    transition = _scale_rows(weights, safe)
    if isolated.any():
        transition = sp.lil_array(transition)
        for idx in np.flatnonzero(isolated):
            transition[idx, idx] = 1.0
        transition = sp.csr_array(transition)
    return transition, s

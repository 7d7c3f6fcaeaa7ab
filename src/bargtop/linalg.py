"""Dense complex matrix kernel.

Conventions used across the whole package:

* the dot product ``a . b`` is complex bilinear, ``sum_j a_j b_j`` with no
  conjugation; adjoints are always written explicitly;
* real coordinates on C^n are ordered ``(u_1..u_n, v_1..v_n)`` with
  ``x = u + i v``.

All gates are relative: a matrix counts as singular when its smallest
singular value drops below ``EPS_SING`` times its spectral norm.  Both
numbers come from one SVD (:func:`gate`).  Self-check residuals, whose
norms only set the scale of a tolerance, use the Frobenius norm, which is
within a factor ``sqrt(rank)`` of the spectral norm and costs no SVD.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure, ShapeMismatch, SingularMatrix

#: relative invertibility gate used by every solve in the package
EPS_SING = 1e-10
#: relative residual tolerance for linear solves
TOL_SOLVE = 1e-9
#: relative reconstruction tolerance for eigendecompositions
TOL_EIG = 1e-9
#: relative symmetry tolerance of the input of an eigendecomposition
TOL_SYM = 1e-12

_TINY = np.finfo(float).tiny


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array and check finiteness."""
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NumericalFailure("matrix has non-finite entries")
    return a


def spectral_norm(m) -> float:
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def gate(m) -> tuple[float, float]:
    """Smallest and largest singular value of ``m`` from one SVD.

    The largest is the spectral norm, so ``smin < eps * smax`` is the
    relative singularity gate of the package.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1]), float(s[0])


def require_regular(m, error=SingularMatrix, what: str = "matrix"):
    """Apply the relative singularity gate; return ``(smin, smax)``.

    Raises
    ------
    error
        (``SingularMatrix`` unless given) if ``smin < EPS_SING * smax``.
    """
    smin, smax = gate(m)
    if smin < EPS_SING * max(smax, _TINY):
        raise error(f"{what} is singular: smin {smin:.3e} < {EPS_SING:g} * smax {smax:.3e}")
    return smin, smax


def frob(m) -> float:
    """Frobenius norm, the scale of every self-check residual."""
    m = np.asarray(m)
    return math.sqrt(float(np.vdot(m, m).real))


def block2(a11, a12, a21, a22) -> np.ndarray:
    """The 2 x 2 block matrix ``[[a11, a12], [a21, a22]]`` of 2-d blocks."""
    r, c = a11.shape
    out = np.empty((r + a21.shape[0], c + a12.shape[1]), dtype=np.result_type(a11, a12, a21, a22))
    out[:r, :c] = a11
    out[:r, c:] = a12
    out[r:, :c] = a21
    out[r:, c:] = a22
    return out


def sym(m) -> np.ndarray:
    """Symmetrize (transpose, no conjugation)."""
    m = np.asarray(m)
    return 0.5 * (m + m.T)


def herm(m) -> np.ndarray:
    """Hermitian part, (M + M*)/2."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().T)


def solve_regular(m: np.ndarray, b) -> np.ndarray:
    """Solve M X = B for a square ``m`` that has passed its gate.

    Self-check: ``||M X - B||_F <= TOL_SOLVE ||B||_F`` (Frobenius scale).

    Raises
    ------
    NumericalFailure
        If the residual exceeds the tolerance.
    """
    b_arr = np.asarray(b, dtype=complex)
    vector_rhs = b_arr.ndim == 1
    rhs = b_arr[:, None] if vector_rhs else b_arr
    if rhs.shape[0] != m.shape[0]:
        raise ShapeMismatch(f"rhs rows {rhs.shape[0]} != matrix dim {m.shape[0]}")
    x = np.linalg.solve(m, rhs)
    if frob(m @ x - rhs) > TOL_SOLVE * frob(rhs):
        raise NumericalFailure("linear solve residual above tolerance")
    return x[:, 0] if vector_rhs else x


def solve(m, b) -> np.ndarray:
    """Solve M X = B with a relative singularity gate.

    Raises
    ------
    SingularMatrix
        If the smallest singular value of ``M`` is below
        ``EPS_SING * norm(M)``.
    NumericalFailure
        If the residual exceeds ``TOL_SOLVE`` relative to ``norm(B)``
        (Frobenius norms, see :func:`solve_regular`).
    """
    m = as_matrix(m, square=True)
    require_regular(m)
    return solve_regular(m, b)


def inv(m) -> np.ndarray:
    """Gated inverse, ``solve(m, I)``."""
    m = as_matrix(m, square=True)
    return solve(m, np.eye(m.shape[0], dtype=complex))


def eig_hermitian_real(s):
    """Eigendecomposition of a real symmetric matrix.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order.
    v : ndarray
        Orthonormal eigenvectors as columns, with a deterministic sign:
        the first component of each vector that is not negligible is made
        positive.

    Raises
    ------
    NumericalFailure
        If ``S`` is not symmetric (``||S - S^T||_F > TOL_SYM max(||S||_F,
        1)``), or one of the self-checks fails: the reconstruction
        ``||V diag(w) V^T - S||_F <= TOL_EIG max(||S||_F, 1)`` or the
        orthonormality ``||V^T V - I||_F <= TOL_EIG``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {s.shape}")
    # self-check scale: Frobenius
    scale = max(frob(s), 1.0)
    if frob(s - s.T) > TOL_SYM * scale:
        raise NumericalFailure("matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    if v.size:
        # deterministic sign: first non-negligible component positive
        first = np.argmax(np.abs(v) > 1e-12, axis=0)
        flip = v[first, np.arange(v.shape[1])] < 0
        v[:, flip] = -v[:, flip]
    if frob((v * w) @ v.T - s) > TOL_EIG * scale:
        raise NumericalFailure("eigendecomposition reconstruction above tolerance")
    if frob(v.T @ v - np.eye(s.shape[0])) > TOL_EIG:
        raise NumericalFailure("eigenvectors are not orthonormal")
    return w, v


def embed_real(n: int) -> np.ndarray:
    """Map real coordinates (u, v) to the pair (x, xbar), x = u + i v.

    Returns the 2n x 2n complex matrix W with ``W r = (x, conj(x))`` for
    real ``r = (u, v)``.
    """
    i = np.eye(n)
    return block2(i, 1j * i, i, -1j * i)


def split_real_linear(t: np.ndarray):
    """Split a real-linear map R^{2n} -> C^m into linear/antilinear parts.

    ``t`` is an m x 2n complex matrix acting on realified vectors of
    x = u + iv.  Returns (P, N) with ``t r = P x + N conj(x)``.
    """
    t = np.asarray(t, dtype=complex)
    if t.shape[1] % 2:
        raise ShapeMismatch("realified map must have an even number of columns")
    n = t.shape[1] // 2
    t1, t2 = t[:, :n], t[:, n:]
    p = 0.5 * (t1 - 1j * t2)
    nn = 0.5 * (t1 + 1j * t2)
    return p, nn

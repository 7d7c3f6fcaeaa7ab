"""Independent references that only the tests use.

Each one computes a quantity of the pipeline by a second route: the mixed
block of the kernel phase through a Schur-complement inverse, the
nondegeneracy of the stationary phases from the Hessian alone, and the
intersection of the image plane with the model plane in closed form.
"""

import numpy as np

from bargtop import NumericalFailure, PreconditionViolated, ShapeMismatch, SingularMatrix, linalg
from bargtop.family import AntilinearIntersection, antilinear_intersection


def schur_block_invert(a, n: int) -> np.ndarray:
    """Invert a 2n x 2n block matrix through the Schur complement of A11.

    The inverse is assembled from the blocks

        B11 = A11^-1 + A11^-1 A12 S^-1 A21 A11^-1,   B12 = -A11^-1 A12 S^-1,
        B21 = -S^-1 A21 A11^-1,                      B22 = S^-1,

    with ``S = A22 - A21 A11^-1 A12``.  ``B22`` is invertible whenever
    ``A`` and ``A11`` are.

    Raises
    ------
    SingularMatrix
        If ``A`` or its leading n x n block fails the relative gate.
    """
    a = linalg.as_matrix(a, square=True)
    if a.shape[0] != 2 * n:
        raise ShapeMismatch(f"expected shape {(2 * n, 2 * n)}, got {a.shape}")
    _, na = linalg.require_regular(a, SingularMatrix, "block matrix")
    a11, a12 = a[:n, :n], a[:n, n:]
    a21, a22 = a[n:, :n], a[n:, n:]
    linalg.require_regular(a11, SingularMatrix, "leading block A11")
    a11_inv = linalg.solve_regular(a11, np.eye(n, dtype=complex))
    schur = a22 - a21 @ a11_inv @ a12
    b22 = linalg.solve(schur, np.eye(n, dtype=complex))
    b12 = -a11_inv @ a12 @ b22
    b21 = -b22 @ a21 @ a11_inv
    b11 = a11_inv + a11_inv @ a12 @ b22 @ a21 @ a11_inv
    b = np.block([[b11, b12], [b21, b22]])
    if linalg.spectral_norm(b @ a - np.eye(2 * n)) > linalg.TOL_SOLVE * max(1.0, na * linalg.spectral_norm(b)):
        raise NumericalFailure("Schur-complement inverse residual above tolerance")
    return b


def nondegeneracy_check(q, psi0, s: int):
    """Gate the Hessian of Q2 - s * Psi0 in the variables (y, theta).

    ``s = 2`` guards the coherent-state kernel phase, ``s = 4`` the phase of
    the symbol integral.  Returns ``(ok, margin)`` where the margin is the
    smallest singular value of the Hessian.
    """
    if s not in (2, 4):
        raise ValueError("s must be 2 or 4")
    n = q.n
    if psi0.n != n:
        raise ShapeMismatch("symbol and weight polarization dimensions differ")
    ht = psi0.mxz  # equals H^T for a reduced weight
    hess = np.block(
        [
            [q.qyy, q.qyt - s * ht],
            [q.qyt.T - s * ht.T, q.qtt],
        ]
    )
    smin, smax = linalg.gate(hess)
    ok = smin >= linalg.EPS_SING * max(smax, np.finfo(float).tiny)
    return ok, smin


def intersection_plane_eq(kappa_q, phi0, tol: float = 1e-9) -> AntilinearIntersection:
    """Intersection of the image plane with the model plane, in closed form.

    Only valid for the model weight ``|x|^2 / 4`` and a linear map of the
    explicit-family shape ``(y, eta) -> (y / gamma - 8 i gamma A eta,
    gamma eta)``; ``gamma`` and ``A`` are read off the matrix blocks.
    """
    n = phi0.n
    if linalg.spectral_norm(phi0.H - 0.25 * np.eye(n)) > 1e-12 or not phi0.is_reduced:
        raise PreconditionViolated("closed-form intersection needs the model weight")
    m = kappa_q.m
    lower_left = m[n:, :n]
    if linalg.spectral_norm(lower_left) > 1e-10 * max(linalg.spectral_norm(m), 1.0):
        raise PreconditionViolated("map is not of the explicit-family shape")
    gamma_block = m[n:, n:]
    gamma = complex(np.trace(gamma_block) / n)
    if linalg.spectral_norm(gamma_block - gamma * np.eye(n)) > 1e-9 * max(abs(gamma), 1.0):
        raise PreconditionViolated("lower-right block is not scalar")
    a = m[:n, n:] / (-8j * gamma)
    return antilinear_intersection(gamma, a, tol=tol)

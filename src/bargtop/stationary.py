"""Exact stationary phase for quadratic functions with parameters.

Everything here is exact linear algebra: for a non-degenerate quadratic

    g(w; p) = 1/2 (M w).w + (L p + r0).w + c0,

the unique critical point in ``w`` is ``w* = -M^{-1}(L p + r0)`` and the
critical value

    vc(p) = c0 - 1/2 (L p + r0) . M^{-1} (L p + r0)

is again a quadratic polynomial, now in the parameters ``p``.  This single
engine backs both the coherent-state kernel phase (parameters ``(x, z)``)
and the phase of the symbol integral (parameters ``(x, xi)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegeneratePhase, NumericalFailure, ShapeMismatch
from .forms import HoloQuadratic2n, trusted


@dataclass(frozen=True)
class QuadCriticalProblem:
    """Quadratic critical-value problem.

    Parameters
    ----------
    m : (2k, 2k) complex symmetric
        Hessian in the integration variables.
    lmap : (2k, 2p) complex
        Linear dependence of the gradient offset on the parameters.
    r0 : (2k,) complex
        Constant gradient offset.
    c0 : complex
        Constant term.
    """

    m: np.ndarray
    lmap: np.ndarray
    r0: np.ndarray
    c0: complex = 0.0

    def __post_init__(self):
        m = linalg.as_matrix(self.m, square=True)
        # symmetry self-check, Frobenius scale
        if linalg.frob(m - m.T) > 1e-12 * max(linalg.frob(m), 1.0):
            raise ShapeMismatch("Hessian must be symmetric")
        lmap = linalg.as_matrix(self.lmap)
        if lmap.shape[0] != m.shape[0]:
            raise ShapeMismatch("parameter map rows must match the Hessian size")
        r0 = np.asarray(self.r0, dtype=complex).reshape(-1)
        if r0.shape[0] != m.shape[0]:
            raise ShapeMismatch("offset length must match the Hessian size")
        object.__setattr__(self, "m", linalg.sym(m))
        object.__setattr__(self, "lmap", lmap)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "c0", complex(self.c0))

    def objective(self, w, p) -> complex:
        w = np.asarray(w, dtype=complex)
        p = np.asarray(p, dtype=complex)
        r = self.lmap @ p + self.r0
        return complex(0.5 * (self.m @ w) @ w + r @ w + self.c0)

    def gradient_w(self, w, p) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        p = np.asarray(p, dtype=complex)
        return self.m @ w + self.lmap @ p + self.r0


def critical_value(prob: QuadCriticalProblem) -> HoloQuadratic2n:
    """Critical value of a quadratic problem as a polynomial in p.

    The parameter space must have even dimension 2p; the result is returned
    with its two p-blocks split in the usual (first slot, second slot)
    layout of :class:`HoloQuadratic2n`.

    Raises
    ------
    DegeneratePhase
        If the Hessian fails the relative singular-value gate.
    """
    m = prob.m
    _, nm = linalg.require_regular(m, DegeneratePhase, "quadratic phase")
    if prob.lmap.shape[1] % 2:
        raise ShapeMismatch("parameter dimension must be even")
    minv_l = np.linalg.solve(m, prob.lmap)
    minv_r = np.linalg.solve(m, prob.r0)

    # the critical point w*(p) = -M^-1 (L p + r0) annihilates the gradient
    # for every p iff M (M^-1 L) = L and M (M^-1 r0) = r0: two residuals
    # cover all p at once (Frobenius scale)
    resid = linalg.frob(m @ minv_l - prob.lmap) + linalg.frob(m @ minv_r - prob.r0)
    size = max(1.0, linalg.frob(minv_l) + linalg.frob(minv_r))
    if resid > 1e-10 * max(nm, linalg.frob(prob.r0), 1.0) * size:
        raise NumericalFailure("critical point fails the gradient condition")

    quad = linalg.sym(-prob.lmap.T @ minv_l)
    lin = -prob.lmap.T @ minv_r
    const = prob.c0 - 0.5 * prob.r0 @ minv_r
    k = quad.shape[0] // 2
    return trusted(
        HoloQuadratic2n,
        mxx=linalg.sym(quad[:k, :k]),
        mxz=quad[:k, k:],
        mzz=linalg.sym(quad[k:, k:]),
        lx=lin[:k],
        lz=lin[k:],
        c0=complex(const),
    )

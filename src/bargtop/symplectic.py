"""Affine canonical transformations and I-Lagrangian graph planes.

The complex symplectic form on C^{2n} = C^n_x x C^n_xi is
``sigma(u, v) = (J u).v`` with the block matrix ``J = [[0, I], [-I, 0]]``,
so a linear map ``M`` is canonical iff ``M^T J M = J``.  The Hamilton
vector of a function ``h`` is ``H_h = (dh/dxi, -dh/dx)``.

A weight ``Phi`` determines the graph plane

    Lambda_Phi = { (x, -2i dPhi/dx(x)) : x in C^n },

which is I-Lagrangian and R-symplectic.  Planes are stored with a cached
realified basis so that every restriction goes through one parameterization.

Maps and planes that callers build are checked by their constructors; the
ones built here from checked inputs use :func:`bargtop.forms.trusted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DegenerateFxz,
    NotAGraph,
    NotBijective,
    NotReduced,
    NumericalFailure,
    PreconditionViolated,
    ShapeMismatch,
)
from .forms import HoloQuadratic2n, WeightForm, trusted

#: relative tolerance band for all strict-inequality classifications
TAU_DEFAULT = 1e-9
#: eigenvalues below this fraction of the restricted-Hessian scale count as
#: exact zeros (floating-point noise from exact cancellations)
ZERO_FLOOR = 1e-12


def symplectic_j(n: int) -> np.ndarray:
    i = np.eye(n, dtype=complex)
    z = np.zeros((n, n), dtype=complex)
    return linalg.block2(z, i, -i, z)


@dataclass(frozen=True)
class AffineSymplecticMap:
    """Affine canonical transformation rho -> M rho + t."""

    m: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.m, square=True)
        if m.shape[0] % 2:
            raise ShapeMismatch("phase-space dimension must be even")
        t = np.asarray(self.t, dtype=complex).reshape(-1)
        if t.shape[0] != m.shape[0]:
            raise ShapeMismatch("translation length must match the linear part")
        # symplectic-defect self-check, Frobenius scale
        j = symplectic_j(m.shape[0] // 2)
        defect = linalg.frob(m.T @ j @ m - j)
        if defect > 1e-10 * linalg.frob(m) ** 2:
            raise NumericalFailure(f"linear part is not symplectic (defect {defect:.2e})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.m.shape[0] // 2

    @classmethod
    def identity(cls, n: int) -> "AffineSymplecticMap":
        return cls(np.eye(2 * n, dtype=complex), np.zeros(2 * n, dtype=complex))

    @property
    def is_linear(self) -> bool:
        return linalg.frob(self.t) <= 1e-14 * max(linalg.frob(self.m), 1.0)

    def apply(self, rho) -> np.ndarray:
        return self.m @ np.asarray(rho, dtype=complex) + self.t

    def compose(self, other: "AffineSymplecticMap") -> "AffineSymplecticMap":
        """self after other."""
        return AffineSymplecticMap(self.m @ other.m, self.m @ other.t + self.t)

    def inverse(self) -> "AffineSymplecticMap":
        minv = linalg.inv(self.m)
        return AffineSymplecticMap(minv, -minv @ self.t)

    def isclose(self, other: "AffineSymplecticMap", tol: float = 1e-9) -> bool:
        """Agreement of linear parts and translations, relative, Frobenius scale."""
        scale_m = max(linalg.frob(self.m), linalg.frob(other.m), 1.0)
        scale_t = max(linalg.frob(self.t), linalg.frob(other.t), 1.0)
        return (
            linalg.frob(self.m - other.m) <= tol * scale_m
            and linalg.frob(self.t - other.t) <= tol * scale_t
        )


@dataclass(frozen=True)
class LinearFunctional2n:
    """Complex linear functional ell(x, xi) = gx.x + gxi.xi."""

    gx: np.ndarray
    gxi: np.ndarray

    def __post_init__(self):
        gx = np.asarray(self.gx, dtype=complex).reshape(-1)
        gxi = np.asarray(self.gxi, dtype=complex).reshape(-1)
        if gx.shape != gxi.shape:
            raise ShapeMismatch("gx and gxi must have equal length")
        object.__setattr__(self, "gx", gx)
        object.__setattr__(self, "gxi", gxi)

    @property
    def n(self) -> int:
        return self.gx.shape[0]

    @classmethod
    def zero(cls, n: int) -> "LinearFunctional2n":
        return cls(np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    def vector(self) -> np.ndarray:
        return np.concatenate([self.gx, self.gxi])

    def value(self, rho) -> complex:
        rho = np.asarray(rho, dtype=complex)
        return complex(self.vector() @ rho)

    def hamilton(self) -> np.ndarray:
        """Hamilton vector (d/dxi, -d/dx) = J grad."""
        return symplectic_j(self.n) @ self.vector()

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector()))


@dataclass(frozen=True)
class LagrangianPlane:
    """Graph plane of a weight with a cached realified basis.

    ``basis`` has 2n complex columns; column j is the plane point over
    ``x = e_j`` and column n+j the point over ``x = i e_j``.
    """

    phi: WeightForm
    basis: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(self, "basis", self.phi.graph_basis())
        b = linalg.as_matrix(self.basis)
        # I-Lagrangian and R-symplectic: sigma restricted to the realified
        # tangent space is real and non-degenerate
        j = symplectic_j(self.phi.n)
        gram = b.T @ j @ b
        smin, smax = linalg.gate(gram.real)
        scale = max(smax, 1.0)
        if linalg.frob(gram.imag) > 1e-10 * scale:
            raise NumericalFailure("plane is not I-Lagrangian")
        if smin < 1e-10 * scale:
            raise NumericalFailure("restricted symplectic form is degenerate")

    @property
    def n(self) -> int:
        return self.phi.n

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex).reshape(-1)
        return np.concatenate([x, -2j * self.phi.gradient(x)])

    def embed(self, r) -> np.ndarray:
        """Plane point for realified coordinates r = (u, v)."""
        return self.basis @ np.asarray(r, dtype=float)

    def restrict_quadratic(self, f: HoloQuadratic2n) -> np.ndarray:
        """Complex symmetric matrix C with f|plane (r) = (C r).r."""
        b = self.basis
        return linalg.sym(0.5 * (b.T @ f.hessian() @ b))

    def restrict_linear(self, ell: LinearFunctional2n) -> np.ndarray:
        """Complex row vector g with ell|plane (r) = g.r."""
        return self.basis.T @ ell.vector()


class Positivity(str, Enum):
    STRICTLY_POSITIVE = "strictly_positive"
    POSITIVE = "positive"
    NOT_POSITIVE = "not_positive"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class PositivityResult:
    """Classification of Im F restricted to a graph plane."""

    classification: Positivity
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray
    margin: float
    scale: float
    zero_band: float
    tau_band: float

    def kernel(self) -> np.ndarray:
        """Orthonormal basis (columns) of the near-zero eigenspace."""
        band = max(self.tau_band, self.zero_band)
        mask = np.abs(self.eigenvalues) <= band
        return self.eigenvectors[:, mask]


def build_kappa(f: HoloQuadratic2n, phi0: WeightForm):
    """Canonical transformation generated by the kernel phase polynomial.

    Given the quadratic polynomial f(x, z) of the coherent-state kernel and
    a reduced weight, returns the affine map ``kappa``, its linear part
    ``kappa_q`` and the linear functional ``m_l`` whose Hamilton vector is
    the translation, so that ``kappa = (translation by H_{m_l}) o kappa_q``.

    The map sends ``(y, -2i H^T z)`` to ``(x, -2i df/dx(x, z))`` where x
    solves ``df/dz(x, z) = H y``.

    Raises
    ------
    DegenerateFxz
        If the mixed block of f fails the singular gate (this contradicts
        the standing assumptions and signals an upstream failure).
    """
    if not phi0.is_reduced:
        raise NotReduced("build_kappa requires a Hermitian-reduced weight")
    n = phi0.n
    if f.n != n:
        raise ShapeMismatch("phase and weight dimensions differ")
    h = phi0.H
    g = f.mxz.T  # mixed block, rows z / cols x
    # one gate for every solve against g below
    linalg.require_regular(g, DegenerateFxz, "mixed block of the kernel phase")

    ht_inv = linalg.inv(h.T)
    # x solves g x = H y - mzz z - lz; its three parts at once
    sol = linalg.solve_regular(g, np.hstack([h, -f.mzz, -f.lz[:, None]]))
    k11 = sol[:, :n]  # x from y
    x_z = sol[:, n : 2 * n]  # x from z
    x_0 = sol[:, 2 * n]  # x at y = z = 0
    k12 = 0.5j * (x_z @ ht_inv)  # x from eta = -2i H^T z
    mq = linalg.block2(k11, k12, -2j * (f.mxx @ k11), -2j * (f.mxx @ k12) + f.mxz @ ht_inv)
    kappa_q = AffineSymplecticMap(mq, np.zeros(2 * n, dtype=complex))

    m_l = LinearFunctional2n(2j * (f.mxx @ x_0 + f.lx), x_0)
    kappa = trusted(AffineSymplecticMap, m=mq, t=m_l.hamilton())

    # cross-check the assembled affine map against direct evaluation: it
    # is affine, so it suffices to compare the images of y = e_j, of
    # z = e_j (eta = -2i H^T e_j) and of the origin; Frobenius scale
    zero = np.zeros((n, n), dtype=complex)
    src = linalg.block2(np.eye(n, dtype=complex), zero, zero, -2j * h.T)
    image = np.hstack([mq @ src, kappa.t[:, None]])
    xi = -2j * (f.mxx @ sol + np.hstack([zero, f.mxz, f.lx[:, None]]))
    dst = np.vstack([sol, xi])
    err = linalg.frob(image - dst)
    if err > 1e-9 * max(1.0, linalg.frob(dst)):
        raise NumericalFailure("affine map disagrees with direct evaluation")
    return kappa, kappa_q, m_l


def build_kappa_tilde(fquad: HoloQuadratic2n, alpha: LinearFunctional2n):
    """Canonical transformation generated by the phase of the symbol.

    ``fquad`` is the quadratic part F (in the variables (x, xi)) and
    ``alpha`` the linear part of the phase.  With the fundamental matrix
    ``G = J Hess(F)`` (so that ``H_F(rho) = G rho``), the linear map is the
    Cayley-type quotient

        kappa_F : (1 + G/2) rho  |->  (1 - G/2) rho,

    and the full map is ``kappa_alpha o kappa_F`` where ``kappa_alpha``
    translates by ``-1/2 H_{alpha o kappa_F^{-1} + alpha}``.

    Returns ``(kappa_tilde, kappa_f, fundamental_matrix)``.

    Raises
    ------
    NotBijective
        If either gate ``det(1 +/- G/2) != 0`` fails; for a genuine phase
        this contradicts the map being affine-canonical.
    """
    n = fquad.n
    if alpha.n != n:
        raise ShapeMismatch("quadratic and linear phase dimensions differ")
    hess = fquad.hessian()
    # precondition on a scale only: Frobenius
    if linalg.frob(fquad.linear()) > 1e-12 * max(linalg.frob(hess), 1.0):
        raise PreconditionViolated("quadratic part must have no linear terms")
    j = symplectic_j(n)
    fund = j @ hess
    eye = np.eye(2 * n, dtype=complex)
    plus = eye + 0.5 * fund
    minus = eye - 0.5 * fund
    for gate in (plus, minus):
        linalg.require_regular(gate, NotBijective, "Cayley gate 1 +/- G/2")
    mf = np.linalg.solve(plus.T, minus.T).T  # (1 - G/2)(1 + G/2)^{-1}
    kappa_f = AffineSymplecticMap(mf, np.zeros(2 * n, dtype=complex))
    g_comp = np.linalg.solve(mf.T, alpha.vector())  # alpha o kappa_F^{-1}
    t = -0.5 * (j @ (g_comp + alpha.vector()))
    kappa_tilde = trusted(AffineSymplecticMap, m=mf, t=t)
    return kappa_tilde, kappa_f, fund


def image_plane(kappa_q: AffineSymplecticMap, plane: LagrangianPlane) -> WeightForm:
    """Weight of the image plane kappa_q(plane).

    The image of a graph plane under a linear canonical map is again
    I-Lagrangian and R-symplectic; when it projects bijectively onto the
    base variables it is the graph plane of a (possibly indefinite) weight,
    which is returned.

    Raises
    ------
    PreconditionViolated
        If ``kappa_q`` is not linear.
    NotAGraph
        If the realified base projection of the image is singular.
    """
    if not kappa_q.is_linear:
        raise PreconditionViolated("image_plane expects a linear map")
    n = plane.n
    v = kappa_q.m @ plane.basis
    x_part, xi_part = v[:n], v[n:]
    x_real = np.vstack([x_part.real, x_part.imag])
    linalg.require_regular(x_real, NotAGraph, "base projection of the image plane")
    t_map = xi_part @ np.linalg.inv(x_real)  # xi as a real-linear map of x
    p, nmat = linalg.split_real_linear(t_map)
    s1 = 0.5j * p
    h1 = (0.5j * nmat).T
    # self-checks, Frobenius scale
    scale = max(linalg.frob(h1), linalg.frob(s1), 1.0)
    if linalg.frob(h1 - h1.conj().T) > 1e-8 * scale:
        raise NumericalFailure("image plane is not the graph of a real weight")
    if linalg.frob(s1 - s1.T) > 1e-8 * scale:
        raise NumericalFailure("image plane pluriharmonic part is not symmetric")
    phi1 = trusted(WeightForm, H=linalg.herm(h1), S=linalg.sym(s1))
    # plane equality check on the realified basis: the image points must be
    # (x, -2i dPhi1/dx(x)) over their own base points x
    expected = -2j * (phi1.H.T @ x_part.conj() + phi1.S @ x_part)
    if linalg.frob(xi_part - expected) > 1e-8 * max(1.0, linalg.frob(v)):
        raise NumericalFailure("image basis point is not on the reconstructed plane")
    return phi1


def positivity_class(fquad: HoloQuadratic2n, plane: LagrangianPlane, tau: float = TAU_DEFAULT) -> PositivityResult:
    """Classify Im F restricted to a graph plane.

    The restriction is a real quadratic form on R^{2n}; its eigenvalues are
    compared against two bands: ``zero_band``, the floating-point noise
    floor of the restriction (eigenvalues inside count as exact zeros), and
    ``tau_band = tau * norm``, the user tolerance.  Eigenvalues falling
    between the two bands make the strict inequalities undecidable and the
    classification ``MARGINAL``.  Both bands use spectral norms; that of
    the symmetric restriction is its largest eigenvalue modulus.
    """
    c = plane.restrict_quadratic(fquad)
    g = c.imag
    g = 0.5 * (g + g.T)
    w, vecs = linalg.eig_hermitian_real(g)
    ref = linalg.spectral_norm(c)
    zero_band = ZERO_FLOOR * ref
    tau_band = tau * max(abs(float(w[0])), abs(float(w[-1])))
    band = max(zero_band, tau_band)
    lam_min = float(w[0])

    if lam_min > band:
        cls = Positivity.STRICTLY_POSITIVE
    elif lam_min < -band:
        cls = Positivity.NOT_POSITIVE
    else:
        inside = w[np.abs(w) <= band]
        # every in-band eigenvalue must be an exact zero, otherwise the
        # strict inequalities cannot be decided at this tolerance
        if np.all(np.abs(inside) <= max(zero_band, np.finfo(float).tiny)):
            cls = Positivity.POSITIVE
        else:
            cls = Positivity.MARGINAL
    return PositivityResult(cls, w, vecs, g, lam_min, ref, zero_band, tau_band)


def intersection_kernel(
    alpha: LinearFunctional2n,
    positivity: PositivityResult,
    plane: LagrangianPlane,
    tau: float = TAU_DEFAULT,
):
    """Kernel of Im F on the graph plane and the vanishing test for alpha.

    ``positivity`` is the classification of Im F on ``plane``.  Returns
    ``(kernel_basis, vanishes, rel_margin)`` where the kernel basis spans
    the zero set of Im F restricted to the plane (realified coordinates),
    ``vanishes`` says whether Im alpha is zero on every kernel vector at
    relative tolerance ``tau``, and ``rel_margin`` is the largest relative
    violation.

    Raises
    ------
    PreconditionViolated
        When the restriction is not positive semi-definite.
    """
    cls = positivity.classification
    if cls not in (Positivity.POSITIVE, Positivity.STRICTLY_POSITIVE):
        raise PreconditionViolated("intersection kernel requires a positive restriction")
    kernel = positivity.kernel() if cls is Positivity.POSITIVE else np.zeros((2 * plane.n, 0))
    if kernel.shape[1] == 0:
        return kernel, True, 0.0
    restricted = plane.restrict_linear(alpha)
    g = restricted.imag
    scale = max(float(np.linalg.norm(restricted)), np.finfo(float).tiny)
    values = g @ kernel
    rel_margin = float(np.max(np.abs(values)) / scale) if alpha.norm() > 0 else 0.0
    return kernel, bool(rel_margin <= tau), rel_margin

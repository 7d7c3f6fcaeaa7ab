"""Quadratic weights, symbols, polarizations and realifications.

A weight is a real quadratic form on C^n written as

    Phi0(x) = (H x) . conj(x) + Re((S x) . x),

with ``H`` Hermitian (the mixed Hessian) and ``S`` complex symmetric (the
pluriharmonic coefficient).  Strict plurisubharmonicity means ``H > 0``.

A symbol is an inhomogeneous quadratic polynomial q on C^n, stored through
its polarization, the holomorphic polynomial in (y, theta) that restricts
to q on ``theta = conj(y)``:

    Q(y, theta) = 1/2 Qyy y.y + (Qyt theta).y + 1/2 Qtt theta.theta
                  + a.y + b.theta + q0.

Realification always uses coordinates ``(u, v)`` with ``x = u + i v``.

Values built by a caller are checked in full by their constructors.  Values
the package derives from values it has already checked are built with
:func:`trusted`, which skips those checks; each stage re-proves what it
computes with one residual instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotReal, NotReduced, NumericalFailure, ShapeMismatch

_HERM_TOL = 1e-12
_REAL_TOL = 1e-12
#: relative gate of strict plurisubharmonicity: smallest eigenvalue of H
#: above this fraction of the largest (at least 1)
_PSH_TOL = 1e-10


def _infer_dim(*parts) -> int:
    for p in parts:
        if p is not None:
            return np.asarray(p).shape[0]
    raise ShapeMismatch("cannot infer the dimension: all coefficients are missing")


def _vec(x, n: int, name: str) -> np.ndarray:
    v = np.zeros(n, dtype=complex) if x is None else np.asarray(x, dtype=complex).reshape(-1)
    if v.shape != (n,):
        raise ShapeMismatch(f"{name}: expected length {n}, got {v.shape}")
    return v


def _mat(m, n: int, name: str, symmetric: bool = False, hermitian: bool = False) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex) if m is None else linalg.as_matrix(m)
    if a.shape != (n, n):
        raise ShapeMismatch(f"{name}: expected shape {(n, n)}, got {a.shape}")
    if not (symmetric or hermitian):
        return a
    # symmetry self-checks, Frobenius scale
    scale = max(linalg.frob(a), 1.0)
    if symmetric and linalg.frob(a - a.T) > _HERM_TOL * scale:
        raise ShapeMismatch(f"{name}: matrix is not symmetric")
    if hermitian and linalg.frob(a - a.conj().T) > _HERM_TOL * scale:
        raise ShapeMismatch(f"{name}: matrix is not Hermitian")
    return a


def trusted(cls, **fields):
    """A frozen value of ``cls`` built without its constructor's checks.

    Only for values the package derives from values that were checked
    already, so that their invariants hold by construction: ``fields``
    must hold every field, already in the normalized form the constructor
    would produce.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class WeightForm:
    """Real quadratic weight ``(H x).conj(x) + Re((S x).x)``.

    ``H`` must be Hermitian and ``S`` symmetric; positive definiteness of
    ``H`` is *not* enforced here (image planes of non-positive maps carry
    indefinite Hermitian parts) and is reported by
    :func:`validate_instance` instead.
    """

    H: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.H).shape[0]
        object.__setattr__(self, "H", linalg.herm(_mat(self.H, n, "H", hermitian=True)))
        object.__setattr__(self, "S", linalg.sym(_mat(self.S, n, "S", symmetric=True)))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def is_reduced(self) -> bool:
        """True when the pluriharmonic part vanishes (Frobenius scale)."""
        return linalg.frob(self.S) <= _HERM_TOL * max(linalg.frob(self.H), 1.0)

    def herm_part(self) -> "WeightForm":
        return trusted(WeightForm, H=self.H, S=np.zeros_like(self.S))

    def graph_basis(self) -> np.ndarray:
        """Realified basis of the graph plane ``{(x, -2i dPhi/dx(x))}``.

        Column j is the plane point over ``x = e_j`` and column n+j the
        point over ``x = i e_j``; the plane is real-linear in x, so these
        2n points determine it.
        """
        n = self.n
        h, s = self.H, self.S
        i = np.eye(n, dtype=complex)
        return linalg.block2(i, 1j * i, -2j * (h.T + s), 2.0 * (s - h.T))

    def value(self, x) -> float:
        x = _vec(x, self.n, "x")
        v = (self.H @ x) @ x.conj() + ((self.S @ x) @ x).real
        return float(v.real)

    def gradient(self, x) -> np.ndarray:
        """Holomorphic gradient d Phi0 / dx = H^T conj(x) + S x."""
        x = _vec(x, self.n, "x")
        return self.H.T @ x.conj() + self.S @ x

    def realified(self) -> "RealQForm":
        """The weight as a real quadratic form of (u, v)."""
        # H Hermitian and S symmetric make the reality conditions exact
        zv = np.zeros(self.n, dtype=complex)
        s, lin, c = _real_coords(self.S, self.H.T, self.S.conj(), zv, zv, 0.0)
        return RealQForm(s.real, lin.real, c.real)


@dataclass(frozen=True)
class QuadraticSymbol:
    """Polarized inhomogeneous quadratic symbol on C^n."""

    qyy: np.ndarray
    qyt: np.ndarray
    qtt: np.ndarray
    a: np.ndarray
    b: np.ndarray
    q0: complex = 0.0

    def __post_init__(self):
        n = np.asarray(self.qyt).shape[0]
        object.__setattr__(self, "qyy", _mat(self.qyy, n, "qyy", symmetric=True))
        object.__setattr__(self, "qyt", _mat(self.qyt, n, "qyt"))
        object.__setattr__(self, "qtt", _mat(self.qtt, n, "qtt", symmetric=True))
        object.__setattr__(self, "a", _vec(self.a, n, "a"))
        object.__setattr__(self, "b", _vec(self.b, n, "b"))
        object.__setattr__(self, "q0", complex(self.q0))

    @property
    def n(self) -> int:
        return self.qyt.shape[0]

    def polarized_value(self, y, theta) -> complex:
        y = _vec(y, self.n, "y")
        theta = _vec(theta, self.n, "theta")
        return complex(
            0.5 * (self.qyy @ y) @ y
            + (self.qyt @ theta) @ y
            + 0.5 * (self.qtt @ theta) @ theta
            + self.a @ y
            + self.b @ theta
            + self.q0
        )

    def value(self, x) -> complex:
        """q(x), the restriction of the polarization to theta = conj(x)."""
        x = _vec(x, self.n, "x")
        return self.polarized_value(x, x.conj())

    def principal_re_realified(self) -> np.ndarray:
        """Real symmetric matrix of Re q2 in the coordinates (u, v)."""
        zv = np.zeros(self.n, dtype=complex)
        s, _, _ = _real_coords(self.qyy, self.qyt, self.qtt, zv, zv, 0.0)
        return s.real


@dataclass(frozen=True)
class HoloQuadratic2n:
    """Holomorphic quadratic polynomial on C^{2n}:

    g(x, z) = 1/2 Mxx x.x + (Mxz z).x + 1/2 Mzz z.z + lx.x + lz.z + c0.

    Also used for phases in the variables (x, xi); the second slot is then
    the fiber variable.
    """

    mxx: np.ndarray
    mxz: np.ndarray
    mzz: np.ndarray
    lx: np.ndarray
    lz: np.ndarray
    c0: complex = 0.0

    def __post_init__(self):
        n = np.asarray(self.mxz).shape[0]
        object.__setattr__(self, "mxx", _mat(self.mxx, n, "mxx", symmetric=True))
        object.__setattr__(self, "mxz", _mat(self.mxz, n, "mxz"))
        object.__setattr__(self, "mzz", _mat(self.mzz, n, "mzz", symmetric=True))
        object.__setattr__(self, "lx", _vec(self.lx, n, "lx"))
        object.__setattr__(self, "lz", _vec(self.lz, n, "lz"))
        object.__setattr__(self, "c0", complex(self.c0))

    @property
    def n(self) -> int:
        return self.mxz.shape[0]

    def hessian(self) -> np.ndarray:
        """Full 2n x 2n complex symmetric Hessian in (x, z)."""
        return linalg.block2(self.mxx, self.mxz, self.mxz.T, self.mzz)

    def linear(self) -> np.ndarray:
        return np.concatenate([self.lx, self.lz])

    def value(self, x, z) -> complex:
        x = _vec(x, self.n, "x")
        z = _vec(z, self.n, "z")
        return complex(
            0.5 * (self.mxx @ x) @ x
            + (self.mxz @ z) @ x
            + 0.5 * (self.mzz @ z) @ z
            + self.lx @ x
            + self.lz @ z
            + self.c0
        )

    @classmethod
    def from_hessian(cls, hess, lin=None, c0=0.0) -> "HoloQuadratic2n":
        hess = linalg.as_matrix(hess, square=True)
        n = hess.shape[0] // 2
        lin = np.zeros(2 * n, dtype=complex) if lin is None else np.asarray(lin, dtype=complex)
        return cls(
            linalg.sym(hess[:n, :n]),
            hess[:n, n:],
            linalg.sym(hess[n:, n:]),
            lin[:n],
            lin[n:],
            c0,
        )


@dataclass(frozen=True)
class RealQForm:
    """Real quadratic form ``R(r) = (S r).r + l.r + c`` on R^{2n}."""

    s: np.ndarray
    l: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", 0.5 * (s + s.T))
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float).reshape(-1))
        object.__setattr__(self, "c", float(self.c))
        if self.s.shape != (self.l.size, self.l.size):
            raise ShapeMismatch("quadratic and linear parts have inconsistent sizes")

    @property
    def dim(self) -> int:
        return self.l.size

    def value(self, r) -> float:
        r = np.asarray(r, dtype=float).reshape(-1)
        return float((self.s @ r) @ r + self.l @ r + self.c)

    def eigenvalues(self) -> np.ndarray:
        w, _ = linalg.eig_hermitian_real(self.s)
        return w


def to_real_coords(cxx, cxxbar, cxbxb, lin_x, lin_xbar, const, n: int | None = None):
    """Rewrite a complex quadratic in (x, conj(x)) in real coordinates.

    The input polynomial is

        g(x) = 1/2 cxx x.x + (cxxbar conj(x)).x + 1/2 cxbxb conj(x).conj(x)
               + lin_x.x + lin_xbar.conj(x) + const,

    and the output is the complex triple (S, l, c) with
    ``g = (S r).r + l.r + c`` for ``r = (u, v)``.  No reality is assumed;
    take real or imaginary parts as needed.
    """
    if n is None:
        n = _infer_dim(cxxbar, cxx, cxbxb, lin_x, lin_xbar)
    return _real_coords(
        _mat(cxx, n, "cxx", symmetric=True),
        _mat(cxxbar, n, "cxxbar"),
        _mat(cxbxb, n, "cxbxb", symmetric=True),
        _vec(lin_x, n, "lin_x"),
        _vec(lin_xbar, n, "lin_xbar"),
        const,
    )


def _real_coords(cxx, cxxbar, cxbxb, lin_x, lin_xbar, const):
    """:func:`to_real_coords` on complete, already checked coefficients."""
    w = linalg.embed_real(cxxbar.shape[0])
    g = linalg.block2(cxx, cxxbar, cxxbar.T, cxbxb)
    s = linalg.sym(0.5 * (w.T @ g @ w))
    lin = w.T @ np.concatenate([lin_x, lin_xbar])
    return s, lin, complex(const)


def realify(cxx, cxxbar, cxbxb, lin_x, lin_xbar, const, n: int | None = None) -> RealQForm:
    """Realify a form in (x, conj(x)) that is real-valued.

    Raises
    ------
    NotReal
        If the reality conditions ``cxbxb = conj(cxx)``,
        ``cxxbar Hermitian`` and ``lin_xbar = conj(lin_x)`` fail beyond a
        relative 1e-12.
    """
    if n is None:
        n = _infer_dim(cxxbar, cxx, cxbxb, lin_x, lin_xbar)
    cxx = _mat(cxx, n, "cxx", symmetric=True)
    cxxbar = _mat(cxxbar, n, "cxxbar")
    cxbxb = _mat(cxbxb, n, "cxbxb", symmetric=True)
    lin_x = _vec(lin_x, n, "lin_x")
    lin_xbar = _vec(lin_xbar, n, "lin_xbar")
    scale = max(
        linalg.spectral_norm(cxx),
        linalg.spectral_norm(cxxbar),
        linalg.spectral_norm(cxbxb),
        float(np.linalg.norm(lin_x)),
        float(np.linalg.norm(lin_xbar)),
        abs(const),
        1.0,
    )
    if (
        linalg.spectral_norm(cxbxb - cxx.conj()) > _REAL_TOL * scale
        or linalg.spectral_norm(cxxbar - cxxbar.conj().T) > _REAL_TOL * scale
        or np.linalg.norm(lin_xbar - lin_x.conj()) > _REAL_TOL * scale
        or abs(complex(const).imag) > _REAL_TOL * scale
    ):
        raise NotReal("coefficients violate the reality conditions")
    s, lin, c = to_real_coords(cxx, cxxbar, cxbxb, lin_x, lin_xbar, const, n=n)
    if (
        linalg.spectral_norm(s.imag) > _REAL_TOL * scale
        or np.linalg.norm(lin.imag) > _REAL_TOL * scale
    ):
        raise NotReal("realified coefficients retain an imaginary part")
    return RealQForm(s.real, lin.real, c.real)


def polarize(qxx, qxxbar, qxbarxbar, lin_x, lin_xbar, const=0.0, n: int | None = None) -> QuadraticSymbol:
    """Polarize a symbol given by its coefficients in (x, conj(x)).

    The substitution conj(x) -> theta is exact on quadratic polynomials, so
    the polarization simply relabels the coefficient blocks.
    """
    if n is None:
        n = _infer_dim(qxxbar, qxx, qxbarxbar, lin_x, lin_xbar)
    return QuadraticSymbol(
        _mat(qxx, n, "qxx", symmetric=True),
        _mat(qxxbar, n, "qxxbar"),
        _mat(qxbarxbar, n, "qxbarxbar", symmetric=True),
        _vec(lin_x, n, "lin_x"),
        _vec(lin_xbar, n, "lin_xbar"),
        const,
    )


def polarize_weight(phi: WeightForm) -> HoloQuadratic2n:
    """Polarization Psi0(x, y) = (H x).y of a Hermitian-reduced weight.

    Raises
    ------
    NotReduced
        If the pluriharmonic part of the weight does not vanish.
    """
    if not phi.is_reduced:
        raise NotReduced("weight has a non-vanishing pluriharmonic part")
    n = phi.n
    z = np.zeros((n, n), dtype=complex)
    zv = np.zeros(n, dtype=complex)
    # (H x).y = (H^T y).x, hence the mixed block is H^T
    return trusted(HoloQuadratic2n, mxx=z, mxz=phi.H.T, mzz=z, lx=zv, lz=zv, c0=0j)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks, with margins.

    ``strict_psh``     : H > 0, margin = smallest eigenvalue of H.
    ``majorization``   : Phi_herm - Re q2 > 0 as a realified form,
                         margin = its smallest eigenvalue.
    ``nondegenerate``  : the block 2H - Qyt^T passes the singular gate,
                         margin = its smallest singular value.
    """

    strict_psh: bool
    strict_psh_margin: float
    majorization: bool
    majorization_margin: float
    nondegenerate: bool
    nondegenerate_margin: float

    @property
    def ok(self) -> bool:
        return self.strict_psh and self.majorization and self.nondegenerate

    def failed(self) -> list[str]:
        out = []
        if not self.strict_psh:
            out.append("strict_psh")
        if not self.majorization:
            out.append("majorization")
        if not self.nondegenerate:
            out.append("nondegeneracy")
        return out


def validate_instance(phi: WeightForm, q: QuadraticSymbol) -> ValidationReport:
    """Check the standing assumptions on a (weight, symbol) pair.

    Failures are reported, never raised.  Margins are returned raw so that
    callers can implement their own tolerance bands.
    """
    if phi.n != q.n:
        raise ShapeMismatch(f"weight dimension {phi.n} != symbol dimension {q.n}")
    wh, _ = np.linalg.eigh(phi.H)
    psh_margin = float(wh[0])
    strict_psh = psh_margin > _PSH_TOL * max(float(wh[-1]), 1.0)

    herm_real = phi.herm_part().realified().s
    maj = herm_real - q.principal_re_realified()
    wm, _ = linalg.eig_hermitian_real(maj)
    maj_margin = float(wm[0])
    majorization = maj_margin > 0.0

    a11 = 2.0 * phi.H - q.qyt.T
    smin, smax = linalg.gate(a11)
    nondeg = smin >= linalg.EPS_SING * max(smax, np.finfo(float).tiny)

    return ValidationReport(strict_psh, psh_margin, majorization, maj_margin, nondeg, smin)


def hermitian_reduction(phi: WeightForm):
    """Split off the pluriharmonic part of a weight.

    Returns the reduced weight (same ``H``, zero ``S``) together with the
    shear ``kappa_A: (y, eta) -> (y, eta - A y)``, ``A = -2 i S``, which
    maps the graph plane of ``phi`` onto the graph plane of the reduced
    weight.  The mapping of graph points is verified on the realified
    basis of the plane.
    """
    from .symplectic import AffineSymplecticMap  # deferred to avoid a cycle

    n = phi.n
    a = -2j * phi.S
    eye = np.eye(n, dtype=complex)
    m = linalg.block2(eye, np.zeros((n, n), dtype=complex), -a, eye)
    # symplectic exactly, since A is symmetric
    kappa_a = trusted(AffineSymplecticMap, m=m, t=np.zeros(2 * n, dtype=complex))
    reduced = phi.herm_part()
    # graph-point check fixes the convention factor once and for all: the
    # shear maps the plane point over x = e_j, i e_j of phi to that of the
    # reduced weight (Frobenius scale)
    target = reduced.graph_basis()
    if linalg.frob(m @ phi.graph_basis() - target) > 1e-9 * max(1.0, linalg.frob(target)):
        raise NumericalFailure("pluriharmonic shear does not map graph points correctly")
    return reduced, kappa_a

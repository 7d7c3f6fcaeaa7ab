"""The explicit metaplectic family on the model weight |x|^2 / 4.

Symbols of the shape

    q(x) = lambda |x|^2 + A conj(x).conj(x) + conj(c).x - d.conj(x),

with ``Re lambda + ||A|| < 1/4``, admit closed forms for everything the
generic pipeline computes.  Writing ``gamma = 1 / (1 - 2 lambda)``, the
canonical transformation is

    kappa(y, eta) = (y / gamma - 8 i gamma A eta - 8 gamma A conj(c) + 2 d,
                     gamma eta - i gamma conj(c)),

the operator is bounded iff ``4 |gamma|^2 ||A|| <= 1 - |gamma|^2`` and the
real-linear functional ``y -> Re(gamma conj(c).y + (4 gamma A conj(c) - d)
.conj(y))`` vanishes on every solution of ``(1 - |gamma|^2) y =
4 |gamma|^2 A conj(y)``, and compact iff the inequality is strict.  These
closed forms are the golden reference for the generic pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import HypothesisViolated, PreconditionViolated
from .forms import QuadraticSymbol, WeightForm
from .pipeline import Verdict
from .symplectic import TAU_DEFAULT, ZERO_FLOOR, AffineSymplecticMap


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (lambda, A, c, d) of the explicit family."""

    lam: complex
    A: np.ndarray
    c: np.ndarray
    d: np.ndarray
    #: spectral norm of A, computed once
    a_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.A, square=True)
        # symmetry self-check, Frobenius scale
        if linalg.frob(a - a.T) > 1e-12 * max(linalg.frob(a), 1.0):
            raise HypothesisViolated("A must be complex symmetric")
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        d = np.asarray(self.d, dtype=complex).reshape(-1)
        if c.shape[0] != a.shape[0] or d.shape[0] != a.shape[0]:
            raise HypothesisViolated("c and d must match the dimension of A")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a_norm", linalg.spectral_norm(a))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def hypothesis_margin(self) -> float:
        """1/4 - Re lambda - ||A||; must be positive."""
        return 0.25 - self.lam.real - self.a_norm

    @property
    def gamma(self) -> complex:
        return 1.0 / (1.0 - 2.0 * self.lam)

    @property
    def positivity_margin(self) -> float:
        """(1 - |gamma|^2) - 4 |gamma|^2 ||A||; sign decides boundedness."""
        g2 = abs(self.gamma) ** 2
        return (1.0 - g2) - 4.0 * g2 * self.a_norm

    def check(self):
        if not self.hypothesis_margin > 0:
            raise HypothesisViolated(
                f"Re lambda + ||A|| = {self.lam.real + self.a_norm:.6g} must be < 1/4"
            )


def family_instance(p: FamilyParams):
    """Model weight and symbol for the given parameters."""
    p.check()
    n = p.n
    phi0 = WeightForm(0.25 * np.eye(n), np.zeros((n, n)))
    q = QuadraticSymbol(
        qyy=np.zeros((n, n)),
        qyt=p.lam * np.eye(n),
        qtt=2.0 * p.A,
        a=p.c.conj(),
        b=-p.d,
        q0=0.0,
    )
    return phi0, q


def family_kappa(p: FamilyParams) -> AffineSymplecticMap:
    """Closed-form canonical transformation of the family."""
    p.check()
    n = p.n
    g = p.gamma
    eye = np.eye(n, dtype=complex)
    m = np.block(
        [
            [eye / g, -8j * g * p.A],
            [np.zeros((n, n), dtype=complex), g * eye],
        ]
    )
    t = np.concatenate([-8.0 * g * (p.A @ p.c.conj()) + 2.0 * p.d, -1j * g * p.c.conj()])
    return AffineSymplecticMap(m, t)


@dataclass(frozen=True)
class AntilinearIntersection:
    """Realified solution set of ``(1 - |gamma|^2) y = 4 |gamma|^2 A conj(y)``."""

    matrix: np.ndarray
    kernel: np.ndarray

    @property
    def dim(self) -> int:
        return self.kernel.shape[1]


def antilinear_intersection(gamma: complex, a: np.ndarray, tol: float = TAU_DEFAULT) -> AntilinearIntersection:
    """Solve the antilinear intersection equation of the model family.

    The equation ``rho0 y = A~ conj(y)`` with ``rho0 = 1 - |gamma|^2`` and
    ``A~ = 4 |gamma|^2 A`` is realified to the symmetric system

        [[rho0 I - A1, -A2], [-A2, rho0 I + A1]] (u, v) = 0,

    whose kernel (eigenvalues within ``tol`` of the spectral norm, at
    least 1) is returned as orthonormal columns.
    """
    a = linalg.as_matrix(a, square=True)
    n = a.shape[0]
    rho0 = 1.0 - abs(gamma) ** 2
    at = 4.0 * abs(gamma) ** 2 * a
    a1, a2 = at.real, at.imag
    i = np.eye(n)
    r = np.block([[rho0 * i - a1, -a2], [-a2, rho0 * i + a1]])
    w, vecs = linalg.eig_hermitian_real(0.5 * (r + r.T))
    # the spectral norm of the symmetric system is its largest |eigenvalue|
    scale = float(np.max(np.abs(w), initial=1.0))
    return AntilinearIntersection(r, vecs[:, np.abs(w) <= tol * scale])


def boundedness_condition_general(p: FamilyParams, intersection: AntilinearIntersection, tau: float = TAU_DEFAULT):
    """Vanishing of the linear condition on the intersection kernel.

    The condition is the realified functional
    ``y -> Re(gamma conj(c).y + (4 gamma A conj(c) - d).conj(y))``.
    Returns ``(holds, rel_margin)``; the margin is its largest value on the
    orthonormal kernel basis, relative to the sizes of its terms,
    ``||gamma c|| + ||4 gamma A conj(c)|| + ||d||``.  The functional's own
    size is no scale: on the boundary its terms can cancel (on the
    |gamma| = 1 arc with c = gamma d it is round-off).
    """
    if intersection.dim == 0:
        return True, 0.0
    g = p.gamma
    pvec = g * p.c.conj()
    avec = 4.0 * g * (p.A @ p.c.conj())
    svec = avec - p.d
    ell = np.concatenate([(pvec + svec).real, (svec - pvec).imag])
    size = np.linalg.norm(pvec) + np.linalg.norm(avec) + np.linalg.norm(p.d)
    scale = max(float(size), np.finfo(float).tiny)
    values = ell @ intersection.kernel
    rel = float(np.max(np.abs(values)) / scale)
    return bool(rel <= tau), rel


def scalar_a_condition(p: FamilyParams, tau: float = TAU_DEFAULT):
    """Closed-form boundedness condition when A = mu I.

    A second route to :func:`boundedness_condition_general` on scalar A,
    kept as a reference for it; :func:`family_decide` does not call it.

    For ``mu = 0`` the condition is ``c = gamma d`` (only binding when
    ``|gamma| = 1``); for ``mu`` on the boundary circle
    ``mu = (1 - |gamma|^2) / (4 |gamma|^2) e^{i theta}`` it reads

        i e^{-i theta / 2} (conj(gamma) c + 4 gamma mu conj(c) - d)
        is a real vector.

    Returns ``(holds, rel_margin)``.

    Raises
    ------
    PreconditionViolated
        If A is not a scalar matrix, or mu is neither 0 nor on the circle.
    """
    n = p.n
    mu = complex(np.trace(p.A) / n) if n else 0.0
    if linalg.spectral_norm(p.A - mu * np.eye(n)) > 1e-12 * max(abs(mu), 1.0):
        raise PreconditionViolated("scalar condition requires A = mu I")
    g = p.gamma
    g2 = abs(g) ** 2
    scale_c = max(float(np.linalg.norm(p.c)), float(np.linalg.norm(p.d)), np.finfo(float).tiny)
    if abs(mu) <= ZERO_FLOOR:
        if abs(1.0 - abs(g)) > tau:
            # trivial intersection: nothing to check
            return True, 0.0
        rel = float(np.linalg.norm(p.c - g * p.d)) / scale_c
        return bool(rel <= tau), rel
    radius = (1.0 - g2) / (4.0 * g2)
    if radius <= 0 or abs(abs(mu) - radius) > tau * max(radius, 1.0):
        if 4.0 * g2 * abs(mu) < 1.0 - g2:
            return True, 0.0
        raise PreconditionViolated("mu is not on the boundary circle")
    theta = float(np.angle(mu))
    vec = 1j * np.exp(-0.5j * theta) * (np.conj(g) * p.c + 4.0 * g * mu * p.c.conj() - p.d)
    rel = float(np.linalg.norm(vec.imag)) / scale_c
    return bool(rel <= tau), rel


@dataclass(frozen=True)
class FamilyDecision:
    """Both closed-form verdicts plus the quantities behind them."""

    bounded: Verdict
    compact: Verdict
    kernel_dim: int
    condition_holds: bool
    margins: dict


def family_decide(
    p: FamilyParams,
    tau: float = TAU_DEFAULT,
    require_hypothesis: bool = True,
) -> FamilyDecision:
    """Closed-form boundedness and compactness decision.

    The positivity margin ``(1 - |gamma|^2) - 4 |gamma|^2 ||A||`` decides
    everything away from the boundary; on the boundary (within the
    floating-point zero band) the intersection kernel is computed and the
    linear condition tested on it.  Margins inside the tolerance band but
    above the zero band give a ``MARGINAL`` verdict.

    With ``require_hypothesis=False`` the arithmetic is evaluated even for
    parameters outside the admissible region (where the operator is not
    covered by the closed form); callers get the raw inequality verdict.
    """
    if require_hypothesis:
        p.check()
    g2 = abs(p.gamma) ** 2
    scale = 1.0 + g2 + 4.0 * g2 * p.a_norm
    margin = p.positivity_margin
    zero_band = ZERO_FLOOR * scale
    band = max(tau * scale, zero_band)
    margins = {
        "hypothesis": p.hypothesis_margin,
        "positivity": margin,
        "positivity_scale": scale,
    }

    if margin > band:
        margins["condition"] = 0.0
        return FamilyDecision(Verdict.BOUNDED, Verdict.COMPACT, 0, True, margins)
    if margin < -band:
        margins["condition"] = float("inf")
        return FamilyDecision(Verdict.UNBOUNDED, Verdict.NOT_COMPACT, 0, False, margins)
    if abs(margin) > zero_band:
        margins["condition"] = float("nan")
        return FamilyDecision(Verdict.MARGINAL, Verdict.MARGINAL, 0, False, margins)

    # exact boundary: non-strict inequality holds, kernel is non-trivial
    inter = antilinear_intersection(p.gamma, p.A, tol=tau)
    holds, rel = boundedness_condition_general(p, inter, tau)
    margins["condition"] = rel
    bounded = Verdict.BOUNDED if holds else Verdict.UNBOUNDED
    return FamilyDecision(bounded, Verdict.NOT_COMPACT, inter.dim, holds, margins)

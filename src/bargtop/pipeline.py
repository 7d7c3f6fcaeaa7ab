"""End-to-end decision procedures.

The full analysis of an instance (weight, symbol) runs

1. validation of the standing assumptions,
2. Hermitian reduction of the weight,
3. the kernel phase f(x, z) by exact stationary phase,
4. the phase F + alpha of the symbol ``a = C exp(i(F + alpha))`` on the
   graph plane, by a second stationary phase,
5. the canonical transformation through both routes (they must agree),
6. classification of Im F on the plane and the vanishing test for
   Im alpha on its kernel.

The operator is bounded iff the restriction of Im F is positive
semi-definite and Im alpha vanishes on its zero set; it is compact iff the
restriction is positive definite.  All constants are suppressed: reported
quantities are exponents or ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import AssumptionViolated, NotAGraph, NotConcave, NumericalFailure
from .forms import (
    HoloQuadratic2n,
    QuadraticSymbol,
    ValidationReport,
    WeightForm,
    hermitian_reduction,
    polarize_weight,
    to_real_coords,
    trusted,
    validate_instance,
)
from .stationary import QuadCriticalProblem, critical_value
from .symplectic import (
    AffineSymplecticMap,
    LagrangianPlane,
    LinearFunctional2n,
    Positivity,
    PositivityResult,
    TAU_DEFAULT,
    build_kappa,
    build_kappa_tilde,
    image_plane,
    intersection_kernel,
    positivity_class,
)


@dataclass(frozen=True)
class WeylPhase:
    """Phase of the symbol: quadratic part F and linear part alpha.

    The constant is suppressed; F carries no linear or constant terms and
    alpha no constant, so the decomposition is unique.
    """

    F: HoloQuadratic2n
    alpha: LinearFunctional2n

    @property
    def n(self) -> int:
        return self.F.n

    def value(self, rho) -> complex:
        rho = np.asarray(rho, dtype=complex)
        n = self.n
        return self.F.value(rho[:n], rho[n:]) + self.alpha.value(rho)


class Verdict(str, Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    COMPACT = "compact"
    NOT_COMPACT = "not_compact"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class Decision:
    """Decision record for one question (boundedness or compactness)."""

    verdict: Verdict
    positivity: Positivity
    kernel_dim: int
    linear_vanishes: bool
    margins: dict

    def __post_init__(self):
        if self.verdict is Verdict.COMPACT and self.positivity is not Positivity.STRICTLY_POSITIVE:
            raise NumericalFailure("compact verdict requires a strictly positive restriction")


@dataclass(frozen=True)
class Analysis:
    """Everything the pipeline derives from one instance."""

    phi0: WeightForm
    validation: ValidationReport
    reduced: WeightForm
    f: HoloQuadratic2n
    weyl: WeylPhase
    kappa: AffineSymplecticMap
    m_l: LinearFunctional2n
    kappa_tilde: AffineSymplecticMap
    phi1: WeightForm | None
    positivity: PositivityResult
    kernel: np.ndarray
    linear_vanishes: bool
    bounded: Verdict
    compact: Verdict
    margins: dict

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]


def _stationary_phase(phi0: WeightForm, q: QuadraticSymbol, s: float, y_coupling: np.ndarray) -> HoloQuadratic2n:
    """The stationary phase both phases share: the critical value in (y, theta) of

        Q(y, theta) - s Psi0(y, theta) + s Psi0(x, theta) + (y_coupling p).y

    as a polynomial in the parameters ``(x, p)``.  ``phi0`` must be
    reduced, so that ``Psi0(x, y) = (H x).y``.
    """
    ht = polarize_weight(phi0).mxz  # H^T
    z = np.zeros_like(ht)
    m = linalg.block2(q.qyy, q.qyt - s * ht, q.qyt.T - s * ht.T, q.qtt)
    lmap = linalg.block2(z, y_coupling, s * phi0.H, z)
    return critical_value(QuadCriticalProblem(m, lmap, np.concatenate([q.a, q.b]), q.q0))


def compute_f(phi0: WeightForm, q: QuadraticSymbol) -> HoloQuadratic2n:
    """Kernel phase polynomial f(x, z) of the coherent-state images.

    For a reduced weight with polarization Psi0(x, y) = (H x).y, f is half
    the critical value in (y, theta) of

        Q(y, theta) - 2 Psi0(y, theta) + 2 Psi0(x, theta) + 2 Psi0(y, z).

    Requires a validated instance.  The mixed block of f is gated where it
    is inverted, in :func:`bargtop.symplectic.build_kappa`.
    """
    vc = _stationary_phase(phi0, q, 2.0, 2.0 * phi0.H.T)
    return trusted(
        HoloQuadratic2n,
        mxx=0.5 * vc.mxx,
        mxz=0.5 * vc.mxz,
        mzz=0.5 * vc.mzz,
        lx=0.5 * vc.lx,
        lz=0.5 * vc.lz,
        c0=0.5 * vc.c0,
    )


def compute_weyl_phase(phi0: WeightForm, q: QuadraticSymbol) -> WeylPhase:
    """Phase F + alpha of the symbol on the graph plane.

    The phase equals ``-2 x.xi`` plus ``1/i`` times the critical value in
    (y, theta) of

        Q(y, theta) - 4 Psi0(y, theta) + 4 Psi0(x, theta) + 2 i y.xi,

    split into its quadratic part F and linear part alpha; the constant is
    dropped.
    """
    eye = np.eye(phi0.n, dtype=complex)
    vc = _stationary_phase(phi0, q, 4.0, 2j * eye)
    fxx = -1j * vc.mxx
    fxxi = -1j * vc.mxz - 2.0 * eye
    fxixi = -1j * vc.mzz
    zv = np.zeros(phi0.n, dtype=complex)
    fquad = trusted(HoloQuadratic2n, mxx=fxx, mxz=fxxi, mzz=fxixi, lx=zv, lz=zv, c0=0j)
    alpha = LinearFunctional2n(-1j * vc.lx, -1j * vc.lz)
    return WeylPhase(fquad, alpha)


def analyze(phi0: WeightForm, q: QuadraticSymbol, tau: float = TAU_DEFAULT) -> Analysis:
    """Run the full decision pipeline on one instance.

    Raises
    ------
    AssumptionViolated
        When the standing assumptions fail; the exception lists which.
    """
    report = validate_instance(phi0, q)
    if not report.ok:
        raise AssumptionViolated(report.failed(), report)
    reduced, _ = hermitian_reduction(phi0)
    f = compute_f(reduced, q)
    kappa, kappa_q, m_l = build_kappa(f, reduced)
    weyl = compute_weyl_phase(reduced, q)
    kappa_tilde, _, _ = build_kappa_tilde(weyl.F, weyl.alpha)
    if not kappa.isclose(kappa_tilde, tol=1e-9):
        raise NumericalFailure("kernel-phase and symbol-phase maps disagree")

    # the validated reduced weight has H > 0 and S = 0, so its graph plane
    # is I-Lagrangian and R-symplectic without re-proving it
    plane = trusted(LagrangianPlane, phi=reduced, basis=reduced.graph_basis())
    try:
        phi1 = image_plane(kappa_q, plane)
    except NotAGraph:
        phi1 = None

    pos = positivity_class(weyl.F, plane, tau)
    margins = {
        "strict_psh": report.strict_psh_margin,
        "majorization": report.majorization_margin,
        "nondegeneracy": report.nondegenerate_margin,
        "positivity": pos.margin,
        "positivity_scale": pos.scale,
    }
    if pos.classification in (Positivity.POSITIVE, Positivity.STRICTLY_POSITIVE):
        kernel, vanishes, alpha_margin = intersection_kernel(weyl.alpha, pos, plane, tau)
    else:
        kernel = np.zeros((2 * reduced.n, 0))
        vanishes, alpha_margin = False, float("inf")
    margins["alpha_vanishing"] = alpha_margin

    if pos.classification is Positivity.MARGINAL:
        bounded = Verdict.MARGINAL
        compact = Verdict.MARGINAL
    elif pos.classification is Positivity.NOT_POSITIVE:
        bounded = Verdict.UNBOUNDED
        compact = Verdict.NOT_COMPACT
    elif pos.classification is Positivity.STRICTLY_POSITIVE:
        bounded = Verdict.BOUNDED
        compact = Verdict.COMPACT
    else:
        bounded = Verdict.BOUNDED if vanishes else Verdict.UNBOUNDED
        compact = Verdict.NOT_COMPACT

    return Analysis(
        phi0=phi0,
        validation=report,
        reduced=reduced,
        f=f,
        weyl=weyl,
        kappa=kappa,
        m_l=m_l,
        kappa_tilde=kappa_tilde,
        phi1=phi1,
        positivity=pos,
        kernel=kernel,
        linear_vanishes=vanishes,
        bounded=bounded,
        compact=compact,
        margins=margins,
    )


def decide_boundedness(phi0: WeightForm, q: QuadraticSymbol, tau: float = TAU_DEFAULT) -> Decision:
    """Decide whether the Toeplitz operator of exp(q) is bounded."""
    a = analyze(phi0, q, tau)
    return Decision(a.bounded, a.positivity.classification, a.kernel_dim, a.linear_vanishes, a.margins)


def decide_compactness(phi0: WeightForm, q: QuadraticSymbol, tau: float = TAU_DEFAULT) -> Decision:
    """Decide whether the Toeplitz operator of exp(q) is compact."""
    a = analyze(phi0, q, tau)
    return Decision(a.compact, a.positivity.classification, a.kernel_dim, a.linear_vanishes, a.margins)


def coherent_norm_exponent(f: HoloQuadratic2n, phi0: WeightForm, w) -> float:
    """Growth exponent of the coherent-state images.

    Returns ``E(w) = sup_x (4 Re f(x, conj(w)) - 2 Phi0(x)) - 2 Phi0(w)``,
    the logarithm of the squared norm of the image of the coherent state at
    w, up to an additive constant.

    Raises
    ------
    NotConcave
        If the quadratic part of the maximized form is not negative
        definite (the operator then does not map coherent states into the
        space; the instance is inconsistent).
    """
    n = phi0.n
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.shape[0] != n:
        raise NotConcave("dimension mismatch for the probe point")
    # quadratic part in x: 4 Re(1/2 mxx x.x) - 2 Phi0(x)
    s_c, _, _ = to_real_coords(4.0 * f.mxx, None, None, None, None, 0.0, n=n)
    quad = s_c.real - 2.0 * phi0.realified().s
    wq, _ = linalg.eig_hermitian_real(quad)
    if wq[-1] >= -1e-12 * max(linalg.spectral_norm(quad), 1.0):
        raise NotConcave("maximized form is not negative definite")
    # linear part: 4 Re((mxz conj(w) + lx).x)
    coeff = f.mxz @ w.conj() + f.lx
    wemb = linalg.embed_real(n)
    lin = 4.0 * (wemb.T[:, :n] @ coeff).real
    const = 4.0 * (0.5 * (f.mzz @ w.conj()) @ w.conj() + f.lz @ w.conj() + f.c0).real
    r_star = np.linalg.solve(quad, -0.5 * lin)
    sup_val = float((quad @ r_star) @ r_star + lin @ r_star + const)
    return sup_val - 2.0 * phi0.value(w)

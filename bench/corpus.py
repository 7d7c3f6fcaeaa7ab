"""Seeded instance corpora and their known answers.

Every answer here is found apart from bargtop: from how an instance is
built, or from numpy arithmetic on the family parameters.  The only
import is numpy, so the references cannot share a fault with the program.

An instance is a plain :class:`Case` of numpy arrays in bargtop's
conventions: the weight is ``(H x).conj(x) + Re((S x).x)`` and the symbol
``1/2 qyy x.x + (qyt conj(x)).x + 1/2 qtt conj(x).conj(x) + a.x +
b.conj(x) + q0``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: slices of a corpus; ``strict`` instances are off the decision boundary
STRICT, ARC, CIRCLE, DILATED = "strict", "arc", "circle", "dilated"

#: seed of the slice that does not depend on ``--seed`` (see ``dilated_slice``)
DILATED_SEED = 20230506
#: dilation factor of that slice
DILATION = 1.0e4


@dataclass(frozen=True)
class Case:
    """One instance and the answer it must get."""

    n: int
    H: np.ndarray
    S: np.ndarray
    qyy: np.ndarray
    qyt: np.ndarray
    qtt: np.ndarray
    a: np.ndarray
    b: np.ndarray
    q0: complex
    lam: complex
    A: np.ndarray
    c: np.ndarray
    d: np.ndarray
    bounded: bool
    compact: bool
    #: real dimension of the kernel of Im F on the plane; None off the boundary
    kernel_dim: int | None
    slice: str

    @property
    def label(self) -> str:
        """Slice and expected verdict, e.g. ``arc bounded``."""
        return f"{self.slice} {'bounded' if self.bounded else 'unbounded'}"


def cvec(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def cmat(rng, n, scale=1.0, symmetric=False):
    m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return 0.5 * (m + m.T) if symmetric else m


def gamma_of(lam: complex) -> complex:
    return 1.0 / (1.0 - 2.0 * lam)


def positivity_margin(lam: complex, A: np.ndarray) -> float:
    """(1 - |gamma|^2) - 4 |gamma|^2 ||A||; its sign is the verdict."""
    g2 = abs(gamma_of(lam)) ** 2
    return (1.0 - g2) - 4.0 * g2 * float(np.linalg.norm(A, 2))


def hypothesis_margin(lam: complex, A: np.ndarray) -> float:
    """1/4 - Re lambda - ||A||; the family is defined where it is positive."""
    return 0.25 - lam.real - float(np.linalg.norm(A, 2))


def family_case(lam, A, c, d, bounded, compact, kernel_dim, slice_) -> Case:
    """The family instance on the model weight, with its known answer."""
    n = A.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return Case(
        n=n,
        H=0.25 * np.eye(n, dtype=complex),
        S=zero,
        qyy=zero,
        qyt=lam * np.eye(n, dtype=complex),
        qtt=2.0 * A,
        a=c.conj(),
        b=-d,
        q0=0.0j,
        lam=complex(lam),
        A=A,
        c=c,
        d=d,
        bounded=bounded,
        compact=compact,
        kernel_dim=kernel_dim,
        slice=slice_,
    )


def draw_family(rng, n, want_bounded=None, margin=1e-6, lam_box=0.6, lin_scale=1.0) -> Case:
    """The acceptance-1 draw, optionally conditioned on the verdict.

    Parameters with hypothesis and positivity margins above ``margin``; the
    verdict is the sign of the numpy positivity margin.
    """
    while True:
        lam = complex(rng.uniform(-lam_box, 0.24), rng.uniform(-lam_box, lam_box))
        A = cmat(rng, n, symmetric=True)
        room = 0.25 - lam.real
        if room <= 2 * margin:
            continue
        na = np.linalg.norm(A, 2)
        if na > 0:
            A = A * (rng.uniform(0.0, 0.9) * room / na)
        c, d = cvec(rng, n, lin_scale), cvec(rng, n, lin_scale)
        pm = positivity_margin(lam, A)
        if hypothesis_margin(lam, A) <= margin or abs(pm) <= margin:
            continue
        if want_bounded is not None and (pm > 0) != want_bounded:
            continue
        return family_case(lam, A, c, d, pm > 0, pm > 0, None, STRICT)


def draw_arc(rng, n, matched: bool) -> Case:
    """|gamma| = 1 and A = 0: bounded iff c = gamma d; the kernel is all of C^n."""
    theta = rng.uniform(-np.pi / 3 + 0.02, np.pi / 3 - 0.02)
    lam = (1.0 - np.exp(1j * theta)) / 2.0
    g = gamma_of(lam)
    d = cvec(rng, n)
    c = g * d
    if not matched:
        off = cvec(rng, n)
        c = c + rng.uniform(0.2, 0.6) * off / np.linalg.norm(off)
    return family_case(lam, np.zeros((n, n), dtype=complex), c, d, matched, False, 2 * n, ARC)


def draw_circle(rng, n, matched: bool) -> Case:
    """A = mu I with |mu| on the boundary circle; the kernel has real dimension n.

    With ``mu = rho e^{i theta}`` the operator is bounded iff
    ``i e^{-i theta/2} (conj(gamma) c + 4 gamma mu conj(c) - d)`` is real.
    ``d`` is built to make it real; the offset adds ``e^{i theta/2} s`` with
    a real ``s`` of norm at least 0.2, which gives it the imaginary part -s.
    """
    while True:
        gamma_abs = rng.uniform(0.55, 0.95)
        lam = (1.0 - 1.0 / gamma_abs) / 2.0
        theta = rng.uniform(0.0, 2.0 * np.pi)
        radius = (1.0 - gamma_abs**2) / (4.0 * gamma_abs**2)
        if 0.25 - lam - radius > 1e-3:
            break
    mu = radius * np.exp(1j * theta)
    g = gamma_of(lam)
    c = cvec(rng, n)
    d = np.conj(g) * c + 4.0 * g * mu * np.conj(c) + 1j * np.exp(0.5j * theta) * rng.standard_normal(n)
    if not matched:
        s = rng.standard_normal(n)
        d = d + np.exp(0.5j * theta) * s * (rng.uniform(0.2, 0.6) / np.linalg.norm(s))
    return family_case(complex(lam), mu * np.eye(n, dtype=complex), c, d, matched, False, n, CIRCLE)


def strict_draws(rng, n, bounded: int, unbounded: int) -> list[Case]:
    """Acceptance-1 draws, ``bounded`` of one verdict and ``unbounded`` of the other."""
    out = [draw_family(rng, n, want_bounded=True) for _ in range(bounded)]
    return out + [draw_family(rng, n, want_bounded=False) for _ in range(unbounded)]


def family_round(rng, n, bounded: int, unbounded: int) -> list[Case]:
    """Strict draws and one matched and one offset instance on the arc and on the circle."""
    out = strict_draws(rng, n, bounded, unbounded)
    out += [draw_arc(rng, n, True), draw_arc(rng, n, False)]
    return out + [draw_circle(rng, n, True), draw_circle(rng, n, False)]


# ------------------------------------------------------------ equivalences
# Each map below is a unitary equivalence of Toeplitz operators, so the
# transformed instance keeps the verdicts and the kernel dimension of its
# source.


def adjoint(k: Case) -> Case:
    """q -> conj(q): the Toeplitz operator of the adjoint."""
    return replace(
        k,
        qyy=k.qtt.conj(),
        qyt=k.qyt.conj().T,
        qtt=k.qyy.conj(),
        a=k.b.conj(),
        b=k.a.conj(),
        q0=np.conj(k.q0),
    )


def change_variables(k: Case, U: np.ndarray) -> Case:
    """x -> U x, through the unitary f -> det(U) f(U x)."""
    Ut, Uh, Uc = U.T, U.conj().T, U.conj()
    H = Uh @ k.H @ U
    return replace(
        k,
        H=0.5 * (H + H.conj().T),
        S=Ut @ k.S @ U,
        qyy=Ut @ k.qyy @ U,
        qyt=Ut @ k.qyt @ Uc,
        qtt=Uh @ k.qtt @ Uc,
        a=Ut @ k.a,
        b=Uh @ k.b,
    )


def add_pluriharmonic(k: Case, S: np.ndarray) -> Case:
    """Weight + Re(S x.x), through the unitary f -> e^{S x.x} f; q is unchanged."""
    return replace(k, S=k.S + S)


def random_unitary(rng, n):
    q, r = np.linalg.qr(cmat(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_change(rng, n, max_cond=100.0) -> np.ndarray:
    """Complex matrix with condition number between 1 and ``max_cond``."""
    kappa = max_cond ** rng.uniform(0.0, 1.0)
    t = np.sort(rng.uniform(0.0, 1.0, n))
    if n > 1:
        t[0], t[-1] = 0.0, 1.0
    s = kappa ** (t - 0.5)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def general_from(rng, src: Case, use_adjoint: bool) -> Case:
    """Move a family instance to a general weight by exact equivalences."""
    k = adjoint(src) if use_adjoint else src
    k = change_variables(k, random_change(rng, k.n))
    hn = float(np.linalg.norm(k.H, 2))
    S = cmat(rng, k.n, symmetric=True)
    S *= rng.uniform(0.0, 0.5) * hn / float(np.linalg.norm(S, 2))
    return add_pluriharmonic(k, S)


def general_round(rng, n, bounded: int, unbounded: int) -> list[Case]:
    """Strict draws and the circle pair at dimension n, moved to general weights.

    The adjoint is applied to every other source instance.  The arc pair
    is left out: moved by x -> Ux with cond(U) near 100 it sometimes gets
    the wrong verdict (see CHANGES.md), which no fixed slice could keep.
    """
    srcs = strict_draws(rng, n, bounded, unbounded)
    srcs += [draw_circle(rng, n, True), draw_circle(rng, n, False)]
    return [general_from(rng, src, use_adjoint=(i % 2 == 0)) for i, src in enumerate(srcs)]


def dilated_slice(dims=(1, 2, 3, 6)) -> list[Case]:
    """Adjoint instances dilated by x -> 1e4 x, one per dimension.

    The slice is drawn from a fixed seed, never from ``--seed``: every
    instance of it raises ``NotBijective`` in the Cayley gate of
    ``symplectic.build_kappa_tilde`` today, and a fixed slice keeps the
    failed share of every run the same.
    """
    rng = np.random.default_rng(DILATED_SEED)
    out = []
    for n in dims:
        src = draw_family(rng, n, want_bounded=(n % 2 == 1))
        k = change_variables(adjoint(src), DILATION * np.eye(n))
        out.append(replace(k, slice=DILATED))
    return out


# ------------------------------------------------------------ oracle inputs


def zero_linear(lam: complex, n: int) -> Case:
    """The instance with A = c = d = 0; compact iff |gamma| < 1."""
    z = np.zeros(n, dtype=complex)
    bounded = abs(gamma_of(lam)) < 1.0
    return family_case(lam, np.zeros((n, n), dtype=complex), z, z, bounded, bounded, None, STRICT)


def is_zero_linear(case: Case) -> bool:
    return not (np.any(case.A) or np.any(case.c) or np.any(case.d))


def fock_diagonal(rng) -> Case:
    """A = c = d = 0, n = 1: the truncation is diag(gamma^(k+1)) exactly."""
    g = rng.uniform(0.4, 0.95) * np.exp(1j * rng.uniform(-0.3, 0.3))
    return zero_linear((1.0 - 1.0 / g) / 2.0, 1)


def fock_compact(rng) -> Case:
    """Compact with a wide margin (> 0.5), as in acceptance 6."""
    while True:
        g = rng.uniform(0.35, 0.65) * np.exp(1j * rng.uniform(-0.3, 0.3))
        lam = (1.0 - 1.0 / g) / 2.0
        A = rng.uniform(0, 0.02) * np.exp(2j * np.pi * rng.uniform()) * np.eye(1)
        c, d = cvec(rng, 1, 0.3), cvec(rng, 1, 0.3)
        if hypothesis_margin(lam, A) > 1e-3 and positivity_margin(lam, A) > 0.5:
            return family_case(lam, A, c, d, True, True, None, STRICT)


def fock_unbounded(rng) -> Case:
    """Unbounded with a wide margin (< -0.15), as in acceptance 6."""
    while True:
        lam = complex(rng.uniform(0.06, 0.22), rng.uniform(-0.1, 0.1))
        A = rng.uniform(0, 0.01) * np.exp(2j * np.pi * rng.uniform()) * np.eye(1)
        c, d = cvec(rng, 1, 0.3), cvec(rng, 1, 0.3)
        if hypothesis_margin(lam, A) > 1e-3 and positivity_margin(lam, A) < -0.15:
            return family_case(lam, A, c, d, False, False, None, STRICT)


def quadrature_case(rng) -> Case:
    """n = 1 instance of acceptance 4 (margin 0.05, |lambda| box 0.2)."""
    return draw_family(rng, 1, margin=0.05, lam_box=0.2, lin_scale=0.4)


def quadrature_point(rng) -> np.ndarray:
    x = cvec(rng, 1)
    return x * min(1.0, 2.0 / max(abs(x[0]), 1e-12))


def coherent_zero(rng, n) -> Case:
    """A = c = d = 0 at an acceptance-1 lambda: E(w) = (|gamma|^2 - 1) |w|^2 / 2 exactly."""
    return zero_linear(draw_family(rng, n).lam, n)


def fock_reference_diag(lam: complex, size: int) -> np.ndarray:
    """diag(gamma^(k+1)), k < size."""
    g = gamma_of(lam)
    return np.diag(g ** np.arange(1, size + 1))


def coherent_reference(lam: complex, w: np.ndarray) -> float:
    """E(w) for A = c = d = 0."""
    return (abs(gamma_of(lam)) ** 2 - 1.0) * float(np.vdot(w, w).real) / 2.0

"""Brute-force numerical ground truth.

Three independent checks of the analytic pipeline:

* tensor Gauss-Hermite quadrature of the symbol integral
  ``a(x) = C integral exp(-4 Phi0(x - y) + q(y)) L(dy)`` (ratios only, the
  constant cancels),
* truncated matrices of the operator on the monomial basis of the model
  space (n = 1), with singular-value scans,
* growth scans of the coherent-state exponent E(w), through a Schur
  complement of the realified joint form (a maximization path independent
  of the per-point solve in the pipeline).

Every integrand here is the exponential of an inhomogeneous complex
quadratic, so the change of variables by the Cholesky factor of its
decaying real part makes Gauss-Hermite converge geometrically; accuracy is
verified by re-running at a higher order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import NonConvergent, NotConcave, PreconditionViolated, ShapeMismatch
from .forms import QuadraticSymbol, RealQForm, WeightForm, to_real_coords
from .pipeline import compute_f

_CHUNK = 200_000  # max quadrature nodes processed at once
_FOCK_CHUNK = 4096  # quadrature nodes per block of a Fock matrix accumulation


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Hermite settings.

    ``order`` is the number of nodes per real dimension, ``scaling`` an
    extra widening factor on the Gaussian window, and ``rel_tol`` the
    agreement required between successive orders.
    """

    order: int = 40
    scaling: float = 1.0
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.order < 2:
            raise ShapeMismatch("quadrature order must be at least 2")
        if self.rel_tol < 1e-8:
            raise ShapeMismatch("rel_tol below 1e-8 is not resolvable in double precision")
        if self.scaling < 1.0:
            raise ShapeMismatch("scaling narrows the window below the integrand support")


@lru_cache(maxsize=32)
def _hermgauss(order: int):
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, np.log(w)


def _tensor_nodes(order: int, dim: int):
    """All tensor nodes (P, dim) and their log-weights (P,)."""
    x, logw = _hermgauss(order)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    lgrids = np.meshgrid(*([logw] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    lw = np.sum(np.stack([g.ravel() for g in lgrids]), axis=0)
    return nodes, lw


def _standardize(s_c: np.ndarray, l_c: np.ndarray, scaling: float = 1.0):
    """Center and whiten exp((S r).r + l.r).

    Returns ``(linv_t, resid, g_tilde, e_star, el)`` such that with
    ``r = r* + linv_t s`` the exponent equals
    ``e_star - |s|^2 + (resid s).s + g_tilde.s`` where ``Re resid <= 0``
    (zero for scaling = 1) and ``g_tilde`` is purely imaginary.
    """
    re_s = s_c.real
    w = -(re_s + re_s.T) * 0.5
    if np.linalg.eigvalsh(w)[0] <= 0:
        raise NotConcave("integrand does not decay in every direction")
    r_star = np.linalg.solve(2.0 * re_s, -l_c.real)
    el = np.linalg.cholesky(w) / scaling
    linv_t = np.linalg.inv(el).T
    m_tilde = linv_t.T @ s_c @ linv_t  # real part -scaling^2 I
    resid = m_tilde + np.eye(s_c.shape[0])
    g = 2.0 * (s_c @ r_star) + l_c
    g_tilde = linv_t.T @ g
    e_star = complex((s_c @ r_star) @ r_star + l_c @ r_star)
    return r_star, linv_t, resid, g_tilde, e_star, el


def _oscillation_order_floor(resid: np.ndarray, rel_tol: float, degree: int = 0) -> int:
    """Order needed for geometric convergence of exp(i (resid s).s) factors.

    The one-dimensional error of Gauss-Hermite on exp(i a s^2) decays like
    (a / sqrt(4 + a^2))^order; polynomial factors of total degree d shift
    the onset by about d.
    """
    a = float(np.linalg.norm(resid.imag, 2))
    if a < 1e-12:
        return degree + 4
    rate = a / math.sqrt(4.0 + a * a)
    if rate < 0.05:
        return degree + 8
    extra = int(math.ceil(math.log(rel_tol * 1e-2) / math.log(rate)))
    return degree + max(extra, 8)


def _log_gaussian_integral(s_c: np.ndarray, l_c: np.ndarray, c_c: complex, order: int, scaling: float = 1.0) -> complex:
    """Complex log of integral exp((S r).r + l.r + c) dr over R^dim.

    The real part of S must be negative definite.  Gauss-Hermite is applied
    after centering at the real maximizer and whitening by the Cholesky
    factor of the decaying part; the remaining factor then has modulus at
    most one, so the summation is overflow-free.
    """
    dim = s_c.shape[0]
    _, _, resid, g_tilde, e_star, el = _standardize(s_c, l_c, scaling)
    nodes, logw = _tensor_nodes(order, dim)
    total = 0.0 + 0.0j
    mref = float(np.max(logw))
    for start in range(0, nodes.shape[0], _CHUNK):
        s = nodes[start : start + _CHUNK]
        lw = logw[start : start + _CHUNK]
        phase = np.einsum("pi,ij,pj->p", s, resid, s) + s @ g_tilde
        total += np.sum(np.exp(lw - mref + phase))
    logdet = float(np.sum(np.log(np.diag(el))))
    return e_star + c_c - logdet + mref + complex(np.log(total))


def _symbol_exponent(phi0: WeightForm, q: QuadraticSymbol, x):
    """Realified exponent of the symbol integrand -4 Phi0(x - y) + q(y)."""
    n = phi0.n
    x = np.asarray(x, dtype=complex).reshape(-1)
    h = phi0.H
    cyy = q.qyy
    cyybar = q.qyt - 4.0 * h.T
    cybyb = q.qtt
    ly = q.a + 4.0 * (h.T @ x.conj())
    lyb = q.b + 4.0 * (h @ x)
    c0 = q.q0 - 4.0 * phi0.value(x)
    return to_real_coords(cyy, cyybar, cybyb, ly, lyb, c0, n=n)


def _symbol_integral_log(phi0: WeightForm, q: QuadraticSymbol, x, order: int, scaling: float) -> complex:
    """log of integral exp(-4 Phi0(x - y) + q(y)) L(dy) for a reduced weight."""
    s_c, l_c, c_c = _symbol_exponent(phi0, q, x)
    return _log_gaussian_integral(s_c, l_c, c_c, order, scaling)


def weyl_symbol_quadrature(phi0: WeightForm, q: QuadraticSymbol, x, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Ratio a(x, xi(x)) / a(0, 0) of the symbol by direct quadrature.

    Requires a reduced weight and a validated instance (the integrand then
    decays).  Two successive orders must agree within ``spec.rel_tol``.

    Raises
    ------
    NonConvergent
        If the two orders disagree.
    """
    if not phi0.is_reduced:
        raise PreconditionViolated("quadrature oracle expects a reduced weight")
    if phi0.n > 2:
        raise PreconditionViolated("quadrature oracle is desk-scale: n <= 2")
    # the quadratic part is shared by numerator and denominator; bump the
    # order when its oscillation would defeat the requested accuracy
    s_probe, l_probe, _ = _symbol_exponent(phi0, q, np.zeros(phi0.n))
    _, _, resid, _, _, _ = _standardize(s_probe, l_probe, spec.scaling)
    order = max(spec.order, _oscillation_order_floor(resid, spec.rel_tol))
    cap = 400 if phi0.n == 1 else 64
    if order > cap:
        raise NonConvergent("oscillation exceeds the node budget at the requested accuracy")

    def ratio_at(m: int) -> complex:
        num = _symbol_integral_log(phi0, q, x, m, spec.scaling)
        den = _symbol_integral_log(phi0, q, np.zeros(phi0.n), m, spec.scaling)
        return complex(np.exp(num - den))

    while True:
        lo, hi = ratio_at(order), ratio_at(order + 10)
        if abs(lo - hi) <= spec.rel_tol * max(abs(hi), np.finfo(float).tiny):
            return hi
        if 2 * order > cap:
            raise NonConvergent(
                f"orders {order} and {order + 10} disagree: |{lo:.6g} - {hi:.6g}|"
            )
        order *= 2


@dataclass(frozen=True)
class FockTruncation:
    """Truncated matrix of the operator on the normalized monomial basis."""

    N: int
    matrix: np.ndarray
    basis_norms: np.ndarray = field(repr=False)
    order: int = 0

    def norm(self) -> float:
        return linalg.spectral_norm(self.matrix)

    def leading(self, m: int) -> np.ndarray:
        if m > self.N:
            raise ShapeMismatch(f"requested size {m} exceeds truncation {self.N}")
        return self.matrix[:m, :m]


def _monomial_norms(order: int, kmax: int) -> np.ndarray:
    """Norms ||e_k||, k < kmax, in the model space, by quadrature (not assumed).

    ``e_k = x^k / sqrt(2^k k!)`` are the scaled monomials of
    :func:`_fock_matrix_raw`; every term stays finite at any k.
    """
    nodes, logw = _tensor_nodes(order, 2)
    xs = math.sqrt(2.0) * (nodes[:, 0] + 1j * nodes[:, 1])  # whitened by chol(I/2)
    half_mods = 0.5 * np.abs(xs) ** 2
    out = np.empty(kmax)
    acc = np.exp(logw)  # weight times |e_k|^2
    for k in range(kmax):
        if k:
            acc *= half_mods
            acc *= 1.0 / k
        out[k] = 2.0 * float(np.sum(acc))  # 1/det chol(I/2) = 2
    return np.sqrt(out)


def _log_scales(kmax: int) -> np.ndarray:
    """log sqrt(2^k k!), k < kmax: the scale of e_k against x^k."""
    return np.array([0.5 * (k * math.log(2.0) + math.lgamma(k + 1)) for k in range(kmax)])


def _fock_exponent(q: QuadraticSymbol):
    """Realified exponent of the matrix-element integrand q(x) - |x|^2/2."""
    cyy, cyybar, cybyb = q.qyy, q.qyt - 0.5 * np.eye(1), q.qtt
    return to_real_coords(cyy, cyybar, cybyb, q.a, q.b, q.q0, n=1)


def _fock_matrix_raw(q: QuadraticSymbol, nbasis: int, order: int) -> np.ndarray:
    """Entries <e^q e_k, e_j> on the model space, n = 1.

    ``e_k = x^k / sqrt(2^k k!)`` is built by the recurrence
    ``e_k = e_{k-1} x / sqrt(2k)``, which keeps every row finite, and the
    sum over the nodes runs in blocks of ``_FOCK_CHUNK``.

    Raises
    ------
    NonConvergent
        If an entry is not finite.
    """
    s_c, l_c, c_c = _fock_exponent(q)
    r_star, linv_t, resid, g_tilde, e_star, el = _standardize(s_c, l_c)
    nodes, logw = _tensor_nodes(order, 2)
    step = 1.0 / np.sqrt(2.0 * np.arange(1, nbasis))
    raw = np.zeros((nbasis, nbasis), dtype=complex)
    # rows e_k and conj(e_k) * weight over one block, reused block after block
    e_buf = np.empty((nbasis, _FOCK_CHUNK), dtype=complex)
    w_buf = np.empty_like(e_buf)
    for start in range(0, nodes.shape[0], _FOCK_CHUNK):
        s = nodes[start : start + _FOCK_CHUNK]
        rs = r_star[None, :] + s @ linv_t.T
        xs = rs[:, 0] + 1j * rs[:, 1]
        phase = np.einsum("pi,ij,pj->p", s, resid, s) + s @ g_tilde
        coeff = np.exp(logw[start : start + _FOCK_CHUNK] + phase)
        e, ew = e_buf[:, : xs.shape[0]], w_buf[:, : xs.shape[0]]
        e[0] = 1.0
        for k in range(1, nbasis):
            np.multiply(e[k - 1], xs, out=e[k])
            e[k] *= step[k - 1]
        np.conjugate(e, out=ew)
        ew *= coeff
        raw += ew @ e.T
    logdet = float(np.sum(np.log(np.diag(el))))
    raw *= np.exp(e_star + c_c - logdet)
    if not np.all(np.isfinite(raw)):
        raise NonConvergent(f"order {order} gives non-finite Fock matrix entries")
    return raw


def fock_matrix(q: QuadraticSymbol, nbasis: int, spec: QuadratureSpec = QuadratureSpec(order=60)) -> FockTruncation:
    """Truncated operator matrix on the model space (n = 1 only).

    The entry (j, k) is ``<e^q x^k, x^j> / (nu_j nu_k)`` in the weighted
    inner product of the model space; the basis norms ``nu_k`` are
    themselves computed by quadrature and checked against the closed
    Gaussian moments ``nu_k^2 = pi 2^(k+1) k!``.

    The entries are computed on the scaled monomials ``x^k / sqrt(2^k k!)``
    and rescaled by their quadrature norms, so no power of x is formed.

    Raises
    ------
    NonConvergent
        If two successive orders disagree in Frobenius norm, an order gives
        non-finite entries, or the basis norms miss the closed moments.
    """
    if q.n != 1:
        raise PreconditionViolated("truncated matrices are implemented for n = 1")
    s_c, l_c, _ = _fock_exponent(q)
    _, _, resid, _, _, _ = _standardize(s_c, l_c)
    floor = _oscillation_order_floor(resid, spec.rel_tol, degree=2 * nbasis)
    order = max(spec.order, nbasis + 16, floor)
    if order > 360:
        raise NonConvergent("oscillation exceeds the node budget at the requested accuracy")
    norms = _monomial_norms(order, nbasis)
    # nu_k^2 / (pi 2^(k+1) k!) = ||e_k||^2 / (2 pi), with nu_k = ||x^k||
    if not np.max(np.abs(norms**2 / (2.0 * math.pi) - 1.0)) <= spec.rel_tol:
        raise NonConvergent("basis norms disagree with the closed Gaussian moments")
    scale = np.outer(norms, norms)
    while True:
        mats = [_fock_matrix_raw(q, nbasis, o) / scale for o in (order, order + 12)]
        diff = float(np.linalg.norm(mats[0] - mats[1]))
        ref = max(float(np.linalg.norm(mats[1])), np.finfo(float).tiny)
        if diff <= spec.rel_tol * ref:
            basis_norms = norms * np.exp(_log_scales(nbasis))
            return FockTruncation(nbasis, mats[1], basis_norms, order + 12)
        if 2 * order > 360:
            raise NonConvergent(
                f"orders {order} and {order + 12} disagree by {diff / ref:.2e}"
            )
        order *= 2


def operator_norm_scan(q: QuadraticSymbol, sizes, spec: QuadratureSpec = QuadratureSpec(order=60)):
    """Largest singular value of each leading truncation.

    Returns one norm per requested size; the sequence is non-decreasing
    (compressions of one operator on nested subspaces).
    """
    sizes = sorted(int(s) for s in sizes)
    trunc = fock_matrix(q, sizes[-1], spec)
    norms = [linalg.spectral_norm(trunc.leading(s)) for s in sizes]
    for a, b in zip(norms, norms[1:]):
        if b < a - 1e-9 * max(a, 1.0):
            raise NonConvergent("truncation norms are not monotone")
    return norms


def coherent_exponent_form(phi0: WeightForm, q: QuadraticSymbol) -> RealQForm:
    """E(w) as a closed-form real quadratic of the realified w.

    Obtained by maximizing the realified joint form of
    ``4 Re f(x, conj(w)) - 2 Phi0(x)`` over x through a Schur complement,
    then subtracting ``2 Phi0(w)``.

    Raises
    ------
    NotConcave
        If the x-block is not negative definite.
    """
    f = compute_f(phi0, q)
    n = phi0.n
    eye = np.eye(n)
    wx = np.hstack([eye, 1j * eye])
    wxbar = np.hstack([eye, -1j * eye])
    u = np.block(
        [
            [wx, np.zeros((n, 2 * n), dtype=complex)],
            [np.zeros((n, 2 * n), dtype=complex), wxbar],
        ]
    )
    sc4 = linalg.sym(0.5 * (u.T @ f.hessian() @ u))
    l4 = u.T @ f.linear()
    s = 4.0 * sc4.real
    lin = 4.0 * l4.real
    const = 4.0 * f.c0.real
    phir = phi0.realified().s
    s[: 2 * n, : 2 * n] -= 2.0 * phir
    s[2 * n :, 2 * n :] -= 2.0 * phir
    sxx = s[: 2 * n, : 2 * n]
    sxw = s[: 2 * n, 2 * n :]
    sww = s[2 * n :, 2 * n :]
    lx, lw = lin[: 2 * n], lin[2 * n :]
    top = np.linalg.eigvalsh(sxx)[-1]
    if top >= -1e-12 * max(linalg.spectral_norm(sxx), 1.0):
        raise NotConcave("x-block of the joint form is not negative definite")
    sxx_inv_sxw = np.linalg.solve(sxx, sxw)
    sxx_inv_lx = np.linalg.solve(sxx, lx)
    s_e = sww - sxw.T @ sxx_inv_sxw
    l_e = lw - sxw.T @ sxx_inv_lx
    c_e = const - 0.25 * lx @ sxx_inv_lx
    return RealQForm(s_e, l_e, c_e)


def growth_direction(phi0: WeightForm, q: QuadraticSymbol):
    """Unit direction maximizing the quadratic growth rate of E, and the rate."""
    return _top_direction(coherent_exponent_form(phi0, q))


def _top_direction(form: RealQForm):
    """Unit complex direction of the largest eigenvalue of ``form.s``, and that eigenvalue."""
    w, v = linalg.eig_hermitian_real(form.s)
    n = form.dim // 2
    top = v[:, -1]
    return top[:n] + 1j * top[n:], float(w[-1])


def coherent_growth_scan(phi0: WeightForm, q: QuadraticSymbol, direction=None, radii=(0.0, 1.0, 2.0, 4.0, 8.0)):
    """E(t w0) along a ray, from the closed-form quadratic.

    When no direction is given, the eigen-direction of the largest growth
    rate is used (for unbounded instances this is a ray along which E
    increases without bound).  Returns ``(exponents, w0)``.
    """
    form = coherent_exponent_form(phi0, q)
    if direction is None:
        direction, _ = _top_direction(form)
    w0 = np.asarray(direction, dtype=complex).reshape(-1)
    out = []
    for t in radii:
        w = t * w0
        out.append(form.value(np.concatenate([w.real, w.imag])))
    return out, w0

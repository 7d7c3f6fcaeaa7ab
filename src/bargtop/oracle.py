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
_FOCK_BUDGET = 360  # Fock nodes per real dimension, never exceeded
_FOCK_STEP = 12  # order gap between the two Fock orders that must agree


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


def _tensor_nodes(order: int, dim: int, start: int, stop: int):
    """Tensor nodes with flat indices in [start, stop), (P, dim), and their log-weights (P,).

    Built from the one-dimensional rule, so only these nodes are ever held.
    """
    x, logw = _hermgauss(order)
    stop = min(stop, order**dim)
    ids = np.stack(np.unravel_index(np.arange(start, stop), (order,) * dim), axis=-1)
    return x[ids], logw[ids].sum(axis=1)


def _standardize(s_c: np.ndarray, scaling: float = 1.0):
    """Whiten the decaying part of the quadratic (S r).r.

    Returns ``(linv_t, resid, logdet)`` such that with ``r = linv_t s`` the
    quadratic equals ``-|s|^2 + (resid s).s``, where ``Re resid <= 0``
    (zero for scaling = 1), and ``dr = exp(-logdet) ds``.
    """
    re_s = s_c.real
    w = -(re_s + re_s.T) * 0.5
    if np.linalg.eigvalsh(w)[0] <= 0:
        raise NotConcave("integrand does not decay in every direction")
    el = np.linalg.cholesky(w) / scaling
    linv_t = np.linalg.inv(el).T
    resid = linv_t.T @ s_c @ linv_t + np.eye(s_c.shape[0])
    return linv_t, resid, float(np.sum(np.log(np.diag(el))))


def _centre(s_c: np.ndarray, l_c: np.ndarray, linv_t: np.ndarray):
    """Centre exp((S r).r + l.r) at its real maximizer, one column of ``l_c`` each.

    Returns ``(r_star, g_tilde, e_star)``: with ``r = r* + linv_t s`` the
    linear term becomes ``g_tilde.s`` (purely imaginary) and the constant
    ``e_star``; the quadratic is the one of :func:`_standardize`.
    """
    r_star = np.linalg.solve(2.0 * s_c.real, -l_c.real)
    s_r = s_c @ r_star
    e_star = (s_r * r_star).sum(axis=0) + (l_c * r_star).sum(axis=0)
    return r_star, linv_t.T @ (2.0 * s_r + l_c), e_star


def _node_blocks(order: int, dim: int, resid: np.ndarray, g: np.ndarray, chunk: int):
    """Blocks of at most ``chunk`` tensor nodes s with log(w(s) exp((resid s).s + g.s)).

    ``g`` has one column per linear phase; all columns share the nodes and
    the quadratic phase, and the log-coefficients have one row per column.
    With ``Re resid <= 0`` and ``g`` purely imaginary every coefficient has
    modulus at most ``w(s) < 1``, so no sum over the nodes can overflow.
    """
    for start in range(0, order**dim, chunk):
        s, lw = _tensor_nodes(order, dim, start, start + chunk)
        quad = ((s @ resid) * s).sum(axis=1)
        yield s, (lw + quad) + (s @ g).T


def _oscillation_order_floor(resid: np.ndarray, rel_tol: float, degree: int = 0) -> int:
    """Order needed for geometric convergence of exp(i (resid s).s) factors.

    The one-dimensional error of Gauss-Hermite on exp(i a s^2) decays like
    (a / sqrt(4 + a^2))^order.  A polynomial factor of total degree below
    ``degree`` shifts the onset by ``degree / 2`` nodes: m nodes per
    dimension integrate polynomials of degree 2m - 1 exactly.
    """
    shift = degree // 2
    a = float(np.linalg.norm(resid.imag, 2))
    if a < 1e-12:
        return shift + 4
    rate = a / math.sqrt(4.0 + a * a)
    if rate < 0.05:
        return shift + 8
    extra = int(math.ceil(math.log(rel_tol * 1e-2) / math.log(rate)))
    return shift + max(extra, 8)


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
    s_c, l_x, c_x = _symbol_exponent(phi0, q, x)
    _, l_0, c_0 = _symbol_exponent(phi0, q, np.zeros(phi0.n))
    # the quadratic part is shared by numerator and denominator; bump the
    # order when its oscillation would defeat the requested accuracy
    linv_t, resid, _ = _standardize(s_c, spec.scaling)
    order = max(spec.order, _oscillation_order_floor(resid, spec.rel_tol))
    cap = 400 if phi0.n == 1 else 64
    if order > cap:
        raise NonConvergent("oscillation exceeds the node budget at the requested accuracy")
    # the numerator (x) and the denominator (0) differ only in their linear
    # phase and constant; the Jacobian cancels in the ratio
    _, g, e_star = _centre(s_c, np.stack([l_x, l_0], axis=1), linv_t)
    log_const = e_star + np.array([c_x, c_0])

    def ratio_at(m: int) -> complex:
        sums = np.zeros(2, dtype=complex)
        for _, logc in _node_blocks(m, s_c.shape[0], resid, g, _CHUNK):
            # row by row: numpy sums a 1-D array pairwise, not a 2-D one along an axis
            sums += [row.sum() for row in np.exp(logc)]
        num, den = log_const + np.log(sums)
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
    nodes, logw = _tensor_nodes(order, 2, 0, order**2)
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


def _fock_form(q: QuadraticSymbol):
    """The matrix-element integrand exp(q(x) - |x|^2/2), whitened and centred.

    Returns ``(r_star, linv_t, resid, g_tilde, log_const)``: at
    ``r = r* + linv_t s`` the integrand times ``dr`` is
    ``exp(log_const - |s|^2 + (resid s).s + g_tilde.s) ds``.
    """
    s_c, l_c, c_c = to_real_coords(q.qyy, q.qyt - 0.5 * np.eye(1), q.qtt, q.a, q.b, q.q0, n=1)
    linv_t, resid, logdet = _standardize(s_c)
    r_star, g_tilde, e_star = _centre(s_c, l_c, linv_t)
    return r_star, linv_t, resid, g_tilde, e_star + c_c - logdet


def _fock_matrix_raw(q: QuadraticSymbol, nbasis: int, order: int, form=None) -> np.ndarray:
    """Entries <e^q e_k, e_j> on the model space, n = 1.

    ``e_k = x^k / sqrt(2^k k!)`` is built by the recurrence
    ``e_k = e_{k-1} x / sqrt(2k)``, which keeps every row finite, and the
    sum over the nodes runs in blocks of ``_FOCK_CHUNK``.  ``form`` is
    ``_fock_form(q)``, computed here when not given.

    Raises
    ------
    NonConvergent
        If an entry is not finite.
    """
    r_star, linv_t, resid, g_tilde, log_const = _fock_form(q) if form is None else form
    step = 1.0 / np.sqrt(2.0 * np.arange(1, nbasis))
    raw = np.zeros((nbasis, nbasis), dtype=complex)
    # rows e_k and conj(e_k) * weight over one block, reused block after block
    e_buf = np.empty((nbasis, _FOCK_CHUNK), dtype=complex)
    w_buf = np.empty_like(e_buf)
    for s, logc in _node_blocks(order, 2, resid, g_tilde[:, None], _FOCK_CHUNK):
        rs = r_star[None, :] + s @ linv_t.T
        xs = rs[:, 0] + 1j * rs[:, 1]
        e, ew = e_buf[:, : xs.shape[0]], w_buf[:, : xs.shape[0]]
        e[0] = 1.0
        for k in range(1, nbasis):
            np.multiply(e[k - 1], xs, out=e[k])
            e[k] *= step[k - 1]
        np.conjugate(e, out=ew)
        ew *= np.exp(logc[0])
        raw += ew @ e.T
    raw *= np.exp(log_const)
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

    The first order is the one the integrand needs: ``nbasis + 16`` nodes
    for the basis norms, or more when the oscillation of ``exp(q)`` asks
    for it.  Orders m and m + 12 must agree; when they do not, m becomes
    ``min(2 m, 348)``, so that m + 12 never passes the budget of 360 nodes
    per dimension, and the pair is tried again.

    Raises
    ------
    NonConvergent
        If two successive orders disagree in Frobenius norm at the budget,
        an order gives non-finite entries, or the basis norms miss the
        closed moments.
    """
    if q.n != 1:
        raise PreconditionViolated("truncated matrices are implemented for n = 1")
    form = _fock_form(q)
    # conj(e_j) e_k has total degree below 2 nbasis
    floor = _oscillation_order_floor(form[2], spec.rel_tol, degree=2 * nbasis)
    order = max(spec.order, nbasis + 16, floor)
    if order + _FOCK_STEP > _FOCK_BUDGET:
        raise NonConvergent("oscillation exceeds the node budget at the requested accuracy")
    norms = _monomial_norms(order, nbasis)
    # nu_k^2 / (pi 2^(k+1) k!) = ||e_k||^2 / (2 pi), with nu_k = ||x^k||
    if not np.max(np.abs(norms**2 / (2.0 * math.pi) - 1.0)) <= spec.rel_tol:
        raise NonConvergent("basis norms disagree with the closed Gaussian moments")
    scale = np.outer(norms, norms)
    while True:
        mats = [_fock_matrix_raw(q, nbasis, o, form) / scale for o in (order, order + _FOCK_STEP)]
        diff = float(np.linalg.norm(mats[0] - mats[1]))
        ref = max(float(np.linalg.norm(mats[1])), np.finfo(float).tiny)
        if diff <= spec.rel_tol * ref:
            basis_norms = norms * np.exp(_log_scales(nbasis))
            return FockTruncation(nbasis, mats[1], basis_norms, order + _FOCK_STEP)
        if order + _FOCK_STEP >= _FOCK_BUDGET:
            raise NonConvergent(
                f"orders {order} and {order + _FOCK_STEP} disagree by {diff / ref:.2e}"
            )
        order = min(2 * order, _FOCK_BUDGET - _FOCK_STEP)


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

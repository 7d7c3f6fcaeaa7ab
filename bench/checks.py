"""Output checks against answers found apart from the program.

Each check takes plain values (verdict strings, numbers, arrays) and
returns a list of problems; an empty list means the output is correct.
No check reads a clock.
"""

from __future__ import annotations

import json

import numpy as np

from corpus import Case, coherent_reference, fock_reference_diag, is_zero_linear

QUADRATURE_TOL = 5e-6
FOCK_DIAG_RTOL = 1e-8
FOCK_TAIL_MAX = 1e-6
FOCK_TAIL_FROM = 40
FOCK_MIN_GROWTH = 2.0
ROUTE_RTOL = 1e-9
COHERENT_RTOL = 1e-10
#: Phi0 - Phi1 eigenvalue bands of acceptance 5, relative to its norm
GAP_SIGN_RTOL = 1e-9
GAP_ZERO_RTOL = 1e-7


def expected_words(case: Case):
    return (
        "bounded" if case.bounded else "unbounded",
        "compact" if case.compact else "not_compact",
    )


def verdicts(case: Case, bounded: str, compact: str, kernel_dim=None, route="pipeline") -> list[str]:
    """Both verdicts, and the kernel dimension on boundary instances."""
    eb, ec = expected_words(case)
    out = []
    if bounded != eb:
        out.append(f"{route}: bounded verdict {bounded}, expected {eb}")
    if compact != ec:
        out.append(f"{route}: compact verdict {compact}, expected {ec}")
    if case.kernel_dim is not None and kernel_dim != case.kernel_dim:
        out.append(f"{route}: kernel dimension {kernel_dim}, expected {case.kernel_dim}")
    return out


def routes(kappa_m, kappa_t, tilde_m, tilde_t) -> list[str]:
    """kappa and kappa-tilde agree to ROUTE_RTOL, as in acceptance 2."""
    dm = np.linalg.norm(kappa_m - tilde_m, 2) / max(np.linalg.norm(kappa_m, 2), 1.0)
    dt = np.linalg.norm(kappa_t - tilde_t) / max(np.linalg.norm(kappa_t), 1.0)
    dev = max(dm, dt)
    return [] if dev <= ROUTE_RTOL else [f"kappa and kappa-tilde differ by {dev:.2e}"]


def positivity_gap(classification: str, phi0_real, phi1_real) -> list[str]:
    """The positivity class agrees with the eigenvalues of Phi0 - Phi1.

    ``phi1_real`` is None when the image plane is not a graph; the check
    then has nothing to compare.
    """
    if phi1_real is None:
        return []
    gap = phi0_real - phi1_real
    ev0 = float(np.linalg.eigvalsh(gap)[0])
    scale = max(float(np.linalg.norm(gap, 2)), 1e-30)
    ok = {
        "strictly_positive": ev0 > -GAP_SIGN_RTOL * scale,
        "not_positive": ev0 < GAP_SIGN_RTOL * scale,
        "positive": abs(ev0) <= GAP_ZERO_RTOL * scale,
    }.get(classification, False)
    return [] if ok else [f"class {classification} but min eig of Phi0 - Phi1 is {ev0 / scale:.2e} x norm"]


def quadrature(ratio: complex, expected: complex) -> list[str]:
    err = abs(ratio - expected)
    return [] if err <= QUADRATURE_TOL else [f"quadrature ratio off exp(i(F + alpha)) by {err:.2e}"]


def fock(case: Case, matrix: np.ndarray) -> list[str]:
    """Truncated-matrix checks; the leading-block norms never decrease in N."""
    out = []
    size = matrix.shape[0]
    norms = [np.linalg.norm(matrix[:m, :m], 2) for m in range(10, size + 1, 10)]
    for a, b in zip(norms, norms[1:]):
        if b < a - 1e-9 * max(a, 1.0):
            out.append("leading-block norms decrease in N")
            break
    if is_zero_linear(case):
        ref = fock_reference_diag(case.lam, size)
        err = np.linalg.norm(matrix - ref) / np.linalg.norm(ref)
        if not err <= FOCK_DIAG_RTOL:
            out.append(f"matrix off diag(gamma^(k+1)) by {err:.2e} relative")
    elif case.compact:
        tail = float(np.max(np.linalg.svd(matrix, compute_uv=False)[FOCK_TAIL_FROM:]))
        if not tail < FOCK_TAIL_MAX:
            out.append(f"compact instance with tail singular value {tail:.2e}")
    elif not case.bounded:
        growth = norms[-1] / max(np.linalg.norm(matrix[:20, :20], 2), 1e-300)
        if not growth >= FOCK_MIN_GROWTH:
            out.append(f"unbounded instance grows only {growth:.2f}x from N = 20 to {size}")
    return out


def coherent(case: Case, exponents, direct, points) -> list[str]:
    """The scan matches the per-point exponent, and the closed form when A = c = d = 0."""
    out = []
    err = max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(exponents, direct))
    if not err <= COHERENT_RTOL:
        out.append(f"scan off the per-point exponent by {err:.2e}")
    if is_zero_linear(case):
        ref = [coherent_reference(case.lam, w) for w in points]
        err = max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(exponents, ref))
        if not err <= COHERENT_RTOL:
            out.append(f"scan off (|gamma|^2 - 1)|w|^2/2 by {err:.2e}")
    return out


def cli_report(case: Case, exit_code: int, report: bytes, first: bytes | None) -> list[str]:
    """Exit code 0, the expected verdict words, and the same bytes on every run."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    doc = json.loads(report)
    words = {"bounded": "yes", "unbounded": "no", "compact": "yes", "not_compact": "no"}
    eb, ec = expected_words(case)
    out = []
    got = doc.get("verdicts", {})
    if got.get("bounded") != words[eb] or got.get("compact") != words[ec]:
        out.append(f"report verdicts {got}, expected bounded={words[eb]} compact={words[ec]}")
    if case.kernel_dim is not None and doc.get("kernel_dim") != case.kernel_dim:
        out.append(f"report kernel_dim {doc.get('kernel_dim')}, expected {case.kernel_dim}")
    if first is not None and report != first:
        out.append("report bytes differ from the first run on the same file")
    return out

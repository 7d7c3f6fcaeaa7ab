"""Each output check of the benchmark can fail.

Run with ``python -m pytest bench/test_checks.py``.  Every test feeds a
check the exact answer, which must pass, and a wrong one, which must be
reported as incorrect.  Only numpy is needed: the checks never call
bargtop.
"""

import json

import numpy as np
import pytest

import checks
import corpus as C


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def test_flipped_verdict_is_reported(rng):
    case = C.draw_family(rng, 2, want_bounded=True)
    assert checks.verdicts(case, "bounded", "compact") == []
    assert checks.verdicts(case, "unbounded", "compact")
    assert checks.verdicts(case, "bounded", "not_compact")
    assert checks.verdicts(case, "marginal", "marginal")


def test_wrong_kernel_dimension_is_reported(rng):
    arc = C.draw_arc(rng, 3, matched=True)
    circle = C.draw_circle(rng, 3, matched=False)
    assert checks.verdicts(arc, "bounded", "not_compact", kernel_dim=6) == []
    assert checks.verdicts(circle, "unbounded", "not_compact", kernel_dim=3) == []
    assert checks.verdicts(arc, "bounded", "not_compact", kernel_dim=3)
    assert checks.verdicts(circle, "unbounded", "not_compact", kernel_dim=6)


def test_perturbed_fock_entry_is_reported(rng):
    case = C.fock_diagonal(rng)
    exact = C.fock_reference_diag(case.lam, 60)
    assert checks.fock(case, exact) == []
    off_diagonal = exact.copy()
    off_diagonal[3, 5] += 1e-6
    assert checks.fock(case, off_diagonal)
    scaled = exact.copy()
    scaled[0, 0] *= 1.0 + 1e-6
    assert checks.fock(case, scaled)


def test_fock_dichotomy_checks_fail(rng):
    compact = C.fock_compact(rng)
    decaying = np.diag(0.5 ** np.arange(60)).astype(complex)
    assert checks.fock(compact, decaying) == []
    # the tail is the 20 smallest singular values, as in acceptance 6
    heavy_tail = decaying + 1e-3 * np.eye(60)
    assert checks.fock(compact, heavy_tail)

    unbounded = C.fock_unbounded(rng)
    growing = np.diag(1.1 ** np.arange(60)).astype(complex)
    assert checks.fock(unbounded, growing) == []
    assert checks.fock(unbounded, np.eye(60, dtype=complex))
    shrinking = growing.copy()
    shrinking[:, :] = 0.0
    shrinking[0, 0] = 2.0
    assert checks.fock(unbounded, shrinking)


def test_perturbed_quadrature_ratio_is_reported():
    expected = complex(np.exp(1j * (0.3 - 0.2j)))
    assert checks.quadrature(expected, expected) == []
    assert checks.quadrature(expected * (1.0 + 4e-6), expected) == []
    assert checks.quadrature(expected * (1.0 + 1e-5), expected)
    assert checks.quadrature(expected + 1e-5j, expected)


def test_coherent_checks_fail(rng):
    case = C.coherent_zero(rng, 2)
    w0 = np.array([0.6, 0.8j])
    points = [t * w0 for t in (0.0, 1.0, 2.0, 4.0, 8.0)]
    exact = [C.coherent_reference(case.lam, w) for w in points]
    assert checks.coherent(case, exact, exact, points) == []
    bad = list(exact)
    bad[3] += 1e-8
    assert checks.coherent(case, bad, exact, points)
    assert checks.coherent(case, bad, bad, points)


def test_route_and_gap_checks_fail(rng):
    m = C.cmat(rng, 4)
    t = C.cvec(rng, 4)
    assert checks.routes(m, t, m, t) == []
    assert checks.routes(m, t, m + 1e-6, t)
    assert checks.routes(m, t, m, t * (1 + 1e-6))
    phi0 = np.eye(4)
    assert checks.positivity_gap("strictly_positive", phi0, 0.5 * phi0) == []
    assert checks.positivity_gap("not_positive", phi0, 0.5 * phi0)
    assert checks.positivity_gap("positive", phi0, np.diag([1.0, 0.5, 0.5, 0.5])) == []
    assert checks.positivity_gap("positive", phi0, 0.5 * phi0)


def test_cli_report_checks_fail(rng):
    case = C.draw_circle(rng, 2, matched=True)
    doc = {"verdicts": {"bounded": "yes", "compact": "no"}, "kernel_dim": 2}
    good = json.dumps(doc).encode()
    assert checks.cli_report(case, 0, good, None) == []
    assert checks.cli_report(case, 0, good, good) == []
    assert checks.cli_report(case, 2, b"", None)
    flipped = json.dumps({"verdicts": {"bounded": "no", "compact": "no"}, "kernel_dim": 2}).encode()
    assert checks.cli_report(case, 0, flipped, None)
    wrong_dim = json.dumps({"verdicts": {"bounded": "yes", "compact": "no"}, "kernel_dim": 4}).encode()
    assert checks.cli_report(case, 0, wrong_dim, None)
    assert checks.cli_report(case, 0, good, good + b" ")


def test_same_seed_same_inputs():
    a = C.general_round(np.random.default_rng(9), 3, 2, 1)
    b = C.general_round(np.random.default_rng(9), 3, 2, 1)
    for x, y in zip(a, b):
        assert np.array_equal(x.H, y.H) and np.array_equal(x.qtt, y.qtt) and x.bounded == y.bounded
    fixed = [k.qyy for k in C.dilated_slice()]
    assert all(np.array_equal(p, q) for p, q in zip(fixed, [k.qyy for k in C.dilated_slice()]))


def test_equivalences_preserve_the_symbol_values(rng):
    """x -> Ux and q -> conj(q) act on the values as stated."""
    src = C.draw_family(rng, 3)
    u = C.random_change(rng, 3)
    moved = C.change_variables(C.adjoint(src), u)
    x = C.cvec(rng, 3)

    def weight(k, y):
        return float(((k.H @ y) @ y.conj()).real + ((k.S @ y) @ y).real)

    def symbol(k, y):
        yb = y.conj()
        return (0.5 * (k.qyy @ y) @ y + (k.qyt @ yb) @ y + 0.5 * (k.qtt @ yb) @ yb + k.a @ y + k.b @ yb + k.q0)

    assert weight(moved, x) == pytest.approx(weight(src, u @ x), rel=1e-12)
    assert symbol(moved, x) == pytest.approx(np.conj(symbol(src, u @ x)), rel=1e-12)
    assert np.linalg.cond(u) <= 100.0 + 1e-9

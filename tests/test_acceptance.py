"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s`` to see them on success).  Tolerances are pinned
here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from bargtop import (
    FamilyParams,
    LagrangianPlane,
    Positivity,
    QuadratureSpec,
    Verdict,
    analyze,
    coherent_growth_scan,
    coherent_norm_exponent,
    compute_f,
    decide_boundedness,
    decide_compactness,
    family_decide,
    family_instance,
    family_kappa,
    fock_matrix,
    operator_norm_scan,
    scalar_a_condition,
    weyl_symbol_quadrature,
)
from bargtop.family import antilinear_intersection, boundedness_condition_general

from conftest import cvec, random_family, random_instance


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_acceptance_1_family_agreement():
    """Closed-form family verdicts equal the generic pipeline, n = 1, 2, 3."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    total = 0
    for n in (1, 2, 3):
        for _ in range(500):
            p = random_family(rng, n, margin=1e-6)
            phi0, q = family_instance(p)
            fd = family_decide(p)
            b = decide_boundedness(phi0, q)
            c = decide_compactness(phi0, q)
            assert b.verdict is fd.bounded, (n, p.lam, b.verdict, fd.bounded)
            assert c.verdict is fd.compact, (n, p.lam, c.verdict, fd.compact)
            total += 1
    elapsed = time.monotonic() - t0
    _report(1, "family-agreement", elapsed < 30.0, f"{total} instances, {elapsed:.1f}s")


def test_acceptance_2_two_phase_routes_agree():
    """Kernel-phase and symbol-phase maps agree to 1e-9, general weights."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(1, 4))
        phi, q = random_instance(rng, n, pluriharmonic=(k % 2 == 0))
        a = analyze(phi, q)
        dm = np.linalg.norm(a.kappa.m - a.kappa_tilde.m, 2) / max(
            np.linalg.norm(a.kappa.m, 2), 1.0
        )
        dt = np.linalg.norm(a.kappa.t - a.kappa_tilde.t) / max(
            np.linalg.norm(a.kappa.t), 1.0
        )
        worst = max(worst, dm, dt)
    _report(2, "two-route-map-equality", worst <= 1e-9, f"worst rel dev {worst:.2e}")


def test_acceptance_3_closed_form_kappa():
    """Pipeline map reproduces the explicit family map to 1e-10."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = random_family(rng, n)
        phi0, q = family_instance(p)
        a = analyze(phi0, q)
        k = family_kappa(p)
        dm = np.linalg.norm(a.kappa.m - k.m, 2) / max(np.linalg.norm(k.m, 2), 1.0)
        dt = np.linalg.norm(a.kappa.t - k.t) / max(np.linalg.norm(k.t), 1.0)
        worst = max(worst, dm, dt)
    _report(3, "closed-form-kappa", worst <= 1e-10, f"worst rel dev {worst:.2e}")


def test_acceptance_4_quadrature_vs_phase():
    """Quadrature ratios match exp(i(F + alpha)) to 5e-6, order 60, < 5 s."""
    rng = np.random.default_rng(104)
    spec = QuadratureSpec(order=60, rel_tol=1e-8)
    worst_err, worst_time = 0.0, 0.0
    for _ in range(5):
        p = random_family(rng, 1, margin=0.05, lam_box=0.2, lin_scale=0.4)
        phi0, q = family_instance(p)
        a = analyze(phi0, q)
        plane = LagrangianPlane(a.reduced)
        t0 = time.monotonic()
        for _ in range(10):
            x = cvec(rng, 1)
            x *= min(1.0, 2.0 / max(abs(x[0]), 1e-12))
            ratio = weyl_symbol_quadrature(phi0, q, x, spec)
            expected = np.exp(1j * a.weyl.value(plane.point(x)))
            worst_err = max(worst_err, abs(ratio - expected))
        worst_time = max(worst_time, time.monotonic() - t0)
    ok = worst_err <= 5e-6 and worst_time < 5.0
    _report(4, "quadrature-vs-phase", ok, f"worst err {worst_err:.2e}, {worst_time:.2f}s/instance")


def test_acceptance_5_positivity_path_equivalence():
    """Im F classification equals the definiteness of Phi0 - Phi1."""
    rng = np.random.default_rng(105)
    counts = {Positivity.STRICTLY_POSITIVE: 0, Positivity.NOT_POSITIVE: 0, Positivity.POSITIVE: 0}
    checked = 0
    while checked < 500:
        if checked % 2 == 0:
            n = int(rng.integers(1, 3))
            p = random_family(rng, n, margin=1e-5)
            phi, q = family_instance(p)
        else:
            phi, q = random_instance(rng, int(rng.integers(1, 3)))
        a = analyze(phi, q)
        pos = a.positivity.classification
        if pos is Positivity.MARGINAL or a.phi1 is None:
            continue
        gap = a.reduced.realified().s - a.phi1.realified().s
        ev = np.linalg.eigvalsh(gap)
        scale = max(np.linalg.norm(gap, 2), 1e-30)
        if abs(a.positivity.margin) <= 1e-7 * max(a.positivity.scale, 1e-30):
            continue  # within the excluded marginal band
        if pos is Positivity.STRICTLY_POSITIVE:
            assert ev[0] > -1e-9 * scale, (ev, pos)
        elif pos is Positivity.NOT_POSITIVE:
            assert ev[0] < 1e-9 * scale, (ev, pos)
        else:
            assert abs(ev[0]) <= 1e-7 * scale, (ev, pos)
        counts[pos] += 1
        checked += 1
    ok = counts[Positivity.STRICTLY_POSITIVE] >= 50 and counts[Positivity.NOT_POSITIVE] >= 50
    _report(
        5,
        "positivity-path-equivalence",
        ok,
        f"500 checked: {counts[Positivity.STRICTLY_POSITIVE]} strict, "
        f"{counts[Positivity.NOT_POSITIVE]} non-positive, {counts[Positivity.POSITIVE]} boundary",
    )


def _compact_params(rng):
    r = rng.uniform(0.35, 0.65)
    phi = rng.uniform(-0.35, 0.35)
    gamma = r * np.exp(1j * phi)
    lam = (1.0 - 1.0 / gamma) / 2.0
    mu = rng.uniform(0, 0.02) * np.exp(2j * np.pi * rng.uniform())
    return FamilyParams(lam, mu * np.eye(1), cvec(rng, 1, 0.3), cvec(rng, 1, 0.3))


def _unbounded_params(rng):
    lam = complex(rng.uniform(0.06, 0.22), rng.uniform(-0.1, 0.1))
    mu = rng.uniform(0, 0.01) * np.exp(2j * np.pi * rng.uniform())
    p = FamilyParams(lam, mu * np.eye(1), cvec(rng, 1, 0.3), cvec(rng, 1, 0.3))
    return p


def test_acceptance_6_fock_dichotomy():
    """Truncation norms converge for compact verdicts, grow for unbounded."""
    rng = np.random.default_rng(106)
    n_compact = n_unbounded = 0
    worst_gap, worst_tail, worst_growth = 0.0, 0.0, np.inf
    while n_compact < 20:
        p = _compact_params(rng)
        if p.hypothesis_margin <= 1e-3 or p.positivity_margin <= 0.5:
            continue
        phi0, q = family_instance(p)
        assert decide_compactness(phi0, q).verdict is Verdict.COMPACT
        norms = operator_norm_scan(q, [40, 60])
        gap = abs(norms[1] - norms[0])
        tail = float(np.max(np.linalg.svd(fock_matrix(q, 60).matrix, compute_uv=False)[40:]))
        worst_gap, worst_tail = max(worst_gap, gap), max(worst_tail, tail)
        assert gap < 1e-4 and tail < 1e-6, (p.lam, gap, tail)
        n_compact += 1
    while n_unbounded < 20:
        p = _unbounded_params(rng)
        if p.hypothesis_margin <= 1e-3 or p.positivity_margin >= -0.15:
            continue
        phi0, q = family_instance(p)
        assert decide_boundedness(phi0, q).verdict is Verdict.UNBOUNDED
        norms = operator_norm_scan(q, [20, 60])
        growth = norms[1] / max(norms[0], 1e-300)
        worst_growth = min(worst_growth, growth)
        assert growth >= 2.0, (p.lam, growth)
        n_unbounded += 1
    _report(
        6,
        "fock-dichotomy",
        True,
        f"20+20 instances, worst gap {worst_gap:.1e}, tail {worst_tail:.1e}, "
        f"min growth {worst_growth:.1f}x",
    )


def test_acceptance_7_coherent_exponent():
    """E(w) equals the closed form and the independent scan to 1e-10."""
    rng = np.random.default_rng(107)
    worst_closed, worst_scan = 0.0, 0.0
    for _ in range(50):
        # closed form for A = c = d = 0
        p0 = random_family(rng, 1, lin_scale=0.0)
        p0 = FamilyParams(p0.lam, np.zeros((1, 1)), [0], [0])
        phi0, q0 = family_instance(p0)
        f = compute_f(phi0, q0)
        w = cvec(rng, 1, 1.5)
        closed = (abs(p0.gamma) ** 2 - 1.0) * float(abs(w[0]) ** 2) / 2.0
        worst_closed = max(worst_closed, abs(coherent_norm_exponent(f, phi0, w) - closed))
        # general instance: per-point maximization vs Schur-complement scan
        n = int(rng.integers(1, 3))
        p = random_family(rng, n)
        phi0, q = family_instance(p)
        fgen = compute_f(phi0, q)
        radii = [0.0, 0.8, 2.3]
        exps, w0 = coherent_growth_scan(phi0, q, radii=radii)
        direct = [coherent_norm_exponent(fgen, phi0, t * w0) for t in radii]
        worst_scan = max(worst_scan, max(abs(x - y) for x, y in zip(exps, direct)))
    ok = worst_closed <= 1e-10 and worst_scan <= 1e-10
    _report(7, "coherent-exponent", ok, f"closed {worst_closed:.1e}, scan {worst_scan:.1e}")


def test_acceptance_8_identity_sanity():
    """The trivial symbol gives the identity in every representation."""
    p = FamilyParams(0.0, np.zeros((1, 1)), [0], [0])
    phi0, q = family_instance(p)
    a = analyze(phi0, q)
    checks = {
        "F=0": np.linalg.norm(a.weyl.F.hessian()) <= 1e-12,
        "alpha=0": a.weyl.alpha.norm() <= 1e-12,
        "kappa=id": np.linalg.norm(a.kappa.m - np.eye(2)) <= 1e-12
        and np.linalg.norm(a.kappa.t) <= 1e-12,
        "bounded": a.bounded is Verdict.BOUNDED,
        "not compact": a.compact is Verdict.NOT_COMPACT,
    }
    rng = np.random.default_rng(108)
    spec = QuadratureSpec(order=40)
    ratios = [
        weyl_symbol_quadrature(phi0, q, cvec(rng, 1, 1.5), spec) for _ in range(5)
    ]
    checks["oracle ratios=1"] = max(abs(r - 1.0) for r in ratios) <= 1e-8
    ok = all(checks.values())
    _report(8, "identity-sanity", ok, ", ".join(k for k, v in checks.items() if not v) or "all checks")


def test_acceptance_9_scalar_fast_path():
    """The scalar-A shortcut agrees with the general kernel condition."""
    rng = np.random.default_rng(109)
    # |gamma| = 1 arc: bounded iff c = gamma d
    for _ in range(50):
        theta = rng.uniform(-np.pi / 3 + 0.02, np.pi / 3 - 0.02)
        lam = (1.0 - np.exp(1j * theta)) / 2.0
        gamma = 1.0 / (1.0 - 2.0 * lam)
        n = int(rng.integers(1, 3))
        d = cvec(rng, n)
        matched = FamilyParams(lam, np.zeros((n, n)), gamma * d, d)
        offset = FamilyParams(lam, np.zeros((n, n)), gamma * d + cvec(rng, n, 0.5), d)
        for p, want, tag in ((matched, True, "matched"), (offset, False, "offset")):
            fast_holds, _ = scalar_a_condition(p)
            general_holds, _ = boundedness_condition_general(p, antilinear_intersection(p.gamma, p.A))
            assert fast_holds is general_holds is want, (theta, tag, fast_holds, general_holds)
            verdict = Verdict.BOUNDED if want else Verdict.UNBOUNDED
            assert family_decide(p).bounded is verdict, (theta, tag)
    # A = mu I on the boundary circle: fast path == general condition
    # (the admissible region requires |gamma| > 1/2, where the circle
    # radius stays below 1/4 - Re lambda)
    done = 0
    while done < 50:
        gamma_abs = rng.uniform(0.55, 0.95)
        lam = (1.0 - 1.0 / gamma_abs) / 2.0
        theta = rng.uniform(0.0, 2.0 * np.pi)
        radius = (1.0 - gamma_abs**2) / (4.0 * gamma_abs**2)
        n = int(rng.integers(1, 3))
        mu = radius * np.exp(1j * theta)
        if 0.25 - lam.real - radius <= 1e-3:
            continue
        done += 1
        if rng.uniform() < 0.5:
            c = cvec(rng, n)
            d = cvec(rng, n)
        else:
            # construct the condition to hold exactly
            g = 1.0 / (1.0 - 2.0 * lam)
            c = cvec(rng, n)
            d = np.conj(g) * c + 4.0 * g * mu * np.conj(c) + 1j * np.exp(0.5j * theta) * rng.standard_normal(n)
        p = FamilyParams(lam, mu * np.eye(n), c, d)
        fast_holds, _ = scalar_a_condition(p)
        inter = antilinear_intersection(p.gamma, p.A)
        general_holds, _ = boundedness_condition_general(p, inter)
        assert fast_holds == general_holds, (gamma_abs, theta)
        verdict = Verdict.BOUNDED if fast_holds else Verdict.UNBOUNDED
        assert family_decide(p).bounded is verdict, (gamma_abs, theta)
    _report(9, "scalar-fast-path", True, "50 arc + 50 boundary instances")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])

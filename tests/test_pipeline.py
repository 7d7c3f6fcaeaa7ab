import numpy as np
import pytest

from bargtop import (
    AssumptionViolated,
    FamilyParams,
    LagrangianPlane,
    NotConcave,
    Positivity,
    Verdict,
    analyze,
    coherent_norm_exponent,
    compute_f,
    compute_weyl_phase,
    decide_boundedness,
    decide_compactness,
    family_instance,
    family_kappa,
)
from bargtop.forms import HoloQuadratic2n, WeightForm

from conftest import cvec, random_family, random_instance
from oracles import schur_block_invert


def family(lam=0.0, mu=0.0, c=0.0, d=0.0):
    p = FamilyParams(lam, mu * np.eye(1), [c], [d])
    return p, *family_instance(p)


class TestComputeF:
    def test_trivial_symbol(self):
        _, phi0, q = family()
        f = compute_f(phi0, q)
        assert abs(f.value([1.0], [1.0]) - 0.25) < 1e-14
        assert np.allclose(f.mxz, [[0.25]])

    def test_scalar_lambda(self):
        lam = 0.1 - 0.2j
        gamma = 1 / (1 - 2 * lam)
        _, phi0, q = family(lam=lam)
        f = compute_f(phi0, q)
        assert abs(f.mxz[0, 0] - gamma / 4) < 1e-13

    def test_pure_linear_symbol_map(self):
        # lam = A = 0 with linear terms: kappa(y, eta) = (y + 2d, eta - i conj(c))
        c, d = 0.4 + 0.1j, -0.3 + 0.2j
        p, phi0, q = family(c=c, d=d)
        a = analyze(phi0, q)
        assert np.allclose(a.kappa.m, np.eye(2), atol=1e-12)
        assert np.allclose(a.kappa.t, [2 * d, -1j * np.conj(c)], atol=1e-12)


class TestComputeWeylPhase:
    def test_trivial_symbol(self):
        _, phi0, q = family()
        w = compute_weyl_phase(phi0, q)
        assert np.linalg.norm(w.F.hessian()) < 1e-13
        assert w.alpha.norm() < 1e-13

    def test_scalar_lambda_closed_form(self):
        lam = 0.2
        _, phi0, q = family(lam=lam)
        w = compute_weyl_phase(phi0, q)
        want = 2 * lam / (1 - lam)
        assert abs(w.F.mxz[0, 0] - want) < 1e-13
        assert w.alpha.norm() < 1e-13

    def test_pure_linear_symbol_alpha(self):
        c, d = 0.4 + 0.1j, -0.3 + 0.2j
        _, phi0, q = family(c=c, d=d)
        w = compute_weyl_phase(phi0, q)
        assert np.linalg.norm(w.F.hessian()) < 1e-13
        assert np.allclose(w.alpha.gx, [-1j * np.conj(c)], atol=1e-13)
        assert np.allclose(w.alpha.gxi, [-2 * d], atol=1e-13)

    def test_pure_linear_bounded_iff_c_equals_d(self):
        d = 0.7 - 0.2j
        _, phi0, q = family(c=d, d=d)
        assert decide_boundedness(phi0, q).verdict is Verdict.BOUNDED
        _, phi0, q = family(c=d + 0.5, d=d)
        assert decide_boundedness(phi0, q).verdict is Verdict.UNBOUNDED


class TestDecisions:
    def test_identity_operator(self):
        _, phi0, q = family()
        b = decide_boundedness(phi0, q)
        c = decide_compactness(phi0, q)
        assert b.verdict is Verdict.BOUNDED
        assert c.verdict is Verdict.NOT_COMPACT
        assert b.kernel_dim == 2 and b.linear_vanishes

    def test_expanding_lambda_unbounded(self):
        _, phi0, q = family(lam=0.2)
        assert decide_boundedness(phi0, q).verdict is Verdict.UNBOUNDED
        assert decide_compactness(phi0, q).verdict is Verdict.NOT_COMPACT

    def test_contracting_lambda_compact(self):
        _, phi0, q = family(lam=-1.0)
        assert decide_boundedness(phi0, q).verdict is Verdict.BOUNDED
        assert decide_compactness(phi0, q).verdict is Verdict.COMPACT

    def test_imaginary_lambda_compact(self):
        _, phi0, q = family(lam=0.4j)
        assert decide_compactness(phi0, q).verdict is Verdict.COMPACT

    def test_unit_modulus_gamma_with_matched_linear(self):
        theta = np.pi / 4
        lam = (1 - np.exp(1j * theta)) / 2
        gamma = 1 / (1 - 2 * lam)
        d = 0.8 + 0.3j
        _, phi0, q = family(lam=lam, c=gamma * d, d=d)
        deci = decide_boundedness(phi0, q)
        assert deci.verdict is Verdict.BOUNDED
        assert deci.positivity is Positivity.POSITIVE
        _, phi0, q = family(lam=lam, c=gamma * d + 0.4, d=d)
        assert decide_boundedness(phi0, q).verdict is Verdict.UNBOUNDED

    def test_assumption_violated(self):
        from bargtop import polarize

        phi0 = WeightForm(0.25 * np.eye(1), np.zeros((1, 1)))
        q = polarize(None, 0.3 * np.eye(1), None, None, None)
        with pytest.raises(AssumptionViolated) as exc:
            decide_boundedness(phi0, q)
        assert "majorization" in exc.value.failed

    def test_scaling_covariance_of_linear_terms(self, rng):
        # (c, d) -> (t c, t d) scales alpha linearly, leaves positivity alone
        p = random_family(rng, 1)
        base = FamilyParams(p.lam, p.A, p.c, p.d)
        scaled = FamilyParams(p.lam, p.A, 3.0 * p.c, 3.0 * p.d)
        a1 = analyze(*family_instance(base))
        a2 = analyze(*family_instance(scaled))
        assert a1.positivity.classification == a2.positivity.classification
        assert np.allclose(3.0 * a1.weyl.alpha.vector(), a2.weyl.alpha.vector(), atol=1e-10)
        assert np.allclose(3.0 * a1.m_l.vector(), a2.m_l.vector(), atol=1e-10)


class TestRouteConsistency:
    def test_kappa_equals_kappa_tilde_general_weights(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            phi, q = random_instance(rng, n, pluriharmonic=True)
            a = analyze(phi, q)  # raises NumericalFailure on route mismatch
            assert a.kappa.isclose(a.kappa_tilde, tol=1e-9)

    def test_family_golden_kappa(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = random_family(rng, n)
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            assert a.kappa.isclose(family_kappa(p), tol=1e-10)

    def test_positivity_matches_weight_gap(self, rng):
        matched = 0
        for _ in range(40):
            n = int(rng.integers(1, 3))
            p = random_family(rng, n, margin=1e-5)
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            if a.phi1 is None or a.positivity.classification is Positivity.MARGINAL:
                continue
            gap = a.reduced.realified().s - a.phi1.realified().s
            ev = np.linalg.eigvalsh(gap)
            scale = max(np.linalg.norm(gap, 2), 1e-30)
            if abs(ev[0]) <= 1e-8 * scale:
                continue
            want = Positivity.STRICTLY_POSITIVE if ev[0] > 0 else Positivity.NOT_POSITIVE
            assert a.positivity.classification is want
            matched += 1
        assert matched >= 20


class TestSchurRoute:
    def test_mixed_block_from_block_inverse(self, rng):
        # independent route to the mixed block of the kernel phase: with
        # A = [[2H - Qty, -Qtt], [-Qyy, 2H^T - Qyt]] and B = A^{-1},
        # the mixed block equals 2 H^T B22 H^T
        for _ in range(10):
            n = int(rng.integers(1, 4))
            phi, q = random_instance(rng, n, pluriharmonic=False)
            f = compute_f(phi, q)
            h = phi.H
            amat = np.block(
                [
                    [2.0 * h - q.qyt.T, -q.qtt],
                    [-q.qyy, 2.0 * h.T - q.qyt],
                ]
            )
            b = schur_block_invert(amat, n)
            want = 2.0 * h.T @ b[n:, n:] @ h.T
            assert np.linalg.norm(f.mxz - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


class TestSymbolGrid:
    def test_decision_matches_grid_sup(self, rng):
        # bounded <=> the log-modulus of the symbol does not grow with the
        # radius of the realified grid
        for _ in range(10):
            p = random_family(rng, 1, margin=1e-3)
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            plane = LagrangianPlane(a.reduced)
            scale = 1.0 + float(np.linalg.norm(p.c)) + float(np.linalg.norm(p.d))

            def grid_sup(radius):
                ticks = np.linspace(-radius, radius, 41)
                vals = []
                for u in ticks:
                    for v in ticks:
                        rho = plane.point([complex(u, v)])
                        vals.append(-a.weyl.value(rho).imag)
                return max(vals)

            inner, outer = grid_sup(5 * scale), grid_sup(10 * scale)
            if a.bounded is Verdict.BOUNDED:
                assert outer <= inner + 1e-6 * max(1.0, abs(inner))
            else:
                assert outer > inner + 1.0


class TestCoherentExponent:
    def test_trivial_symbol_zero(self, rng):
        _, phi0, q = family()
        f = compute_f(phi0, q)
        for _ in range(5):
            w = cvec(rng, 1, scale=2.0)
            assert abs(coherent_norm_exponent(f, phi0, w)) < 1e-12

    def test_contracting_decay(self):
        _, phi0, q = family(lam=-1.0)
        f = compute_f(phi0, q)
        e = coherent_norm_exponent(f, phi0, [1.0])
        assert abs(e - (-4.0 / 9.0)) < 1e-12

    def test_expanding_growth(self):
        _, phi0, q = family(lam=0.2)
        f = compute_f(phi0, q)
        gamma2 = 1.0 / 0.6**2
        e = coherent_norm_exponent(f, phi0, [1.0])
        assert abs(e - (gamma2 - 1.0) / 2.0) < 1e-12
        assert e > 0

    def test_closed_form_family(self, rng):
        for _ in range(10):
            p = random_family(rng, 1, lin_scale=0.0)
            p = FamilyParams(p.lam, np.zeros((1, 1)), [0], [0])
            phi0, q = family_instance(p)
            f = compute_f(phi0, q)
            w = cvec(rng, 1, scale=1.5)
            want = (abs(p.gamma) ** 2 - 1.0) * float(np.abs(w[0]) ** 2) / 2.0
            assert abs(coherent_norm_exponent(f, phi0, w) - want) <= 1e-10

    def test_growth_dichotomy(self, rng):
        from bargtop.oracle import coherent_growth_scan

        for _ in range(10):
            p = random_family(rng, 1, margin=1e-2)
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            exps, _ = coherent_growth_scan(phi0, q, radii=[0.0, 4.0, 16.0, 64.0])
            if a.bounded is Verdict.BOUNDED:
                assert exps[-1] <= exps[0] + 10.0 * (1 + np.linalg.norm(p.c) + np.linalg.norm(p.d)) ** 2
            else:
                assert exps[-1] > exps[-2] > exps[1]

    def test_not_concave_for_inconsistent_phase(self):
        _, phi0, _ = family()
        bad = HoloQuadratic2n(
            np.array([[10.0]]), np.array([[0.25]]), np.zeros((1, 1)), [0], [0], 0.0
        )
        with pytest.raises(NotConcave):
            coherent_norm_exponent(bad, phi0, [1.0])

import numpy as np
import pytest

from bargtop import (
    FamilyParams,
    HypothesisViolated,
    LagrangianPlane,
    Verdict,
    analyze,
    compute_f,
    compute_weyl_phase,
    family_decide,
    family_instance,
    family_kappa,
    intersection_kernel,
    positivity_class,
    scalar_a_condition,
)
from bargtop.family import antilinear_intersection, boundedness_condition_general
from bargtop.symplectic import AffineSymplecticMap, build_kappa

from conftest import cvec, random_family
from oracles import intersection_plane_eq


def general_condition(p):
    """The general boundary test on the closed-form intersection kernel."""
    return boundedness_condition_general(p, antilinear_intersection(p.gamma, p.A))


class TestInstance:
    def test_trivial(self):
        p = FamilyParams(0.0, np.zeros((1, 1)), [0], [0])
        phi0, q = family_instance(p)
        assert np.allclose(phi0.H, 0.25 * np.eye(1))
        assert q.value([1.3 + 0.4j]) == 0

    def test_contracting(self):
        p = FamilyParams(-1.0, np.zeros((1, 1)), [0], [0])
        _, q = family_instance(p)
        x = 0.8 - 0.1j
        assert abs(q.value([x]) + abs(x) ** 2) < 1e-14

    def test_validation_margin(self):
        p = FamilyParams(0.0, 0.1 * np.eye(2), [1, 0], [0, 1j])
        assert abs(p.hypothesis_margin - 0.15) < 1e-14
        phi0, q = family_instance(p)
        from bargtop import validate_instance

        assert validate_instance(phi0, q).ok

    def test_hypothesis_violated(self):
        p = FamilyParams(0.3, np.zeros((1, 1)), [0], [0])
        with pytest.raises(HypothesisViolated):
            family_instance(p)


class TestKappa:
    def test_identity(self):
        p = FamilyParams(0.0, np.zeros((1, 1)), [0], [0])
        assert family_kappa(p).isclose(AffineSymplecticMap.identity(1), tol=1e-14)

    def test_contracting(self):
        p = FamilyParams(-1.0, np.zeros((1, 1)), [0], [0])
        k = family_kappa(p)
        assert np.allclose(k.m, np.diag([3.0, 1.0 / 3.0]))

    def test_translation_only(self):
        c, d = 0.5 - 0.1j, 0.2 + 0.9j
        p = FamilyParams(0.0, np.zeros((1, 1)), [c], [d])
        k = family_kappa(p)
        assert np.allclose(k.m, np.eye(2))
        assert np.allclose(k.t, [2 * d, -1j * np.conj(c)])

    def test_golden_cross_check(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_family(rng, n)
            phi0, q = family_instance(p)
            kappa, _, _ = build_kappa(compute_f(phi0, q), phi0)
            assert kappa.isclose(family_kappa(p), tol=1e-10)


class TestDecide:
    def test_identity_bounded_not_compact(self):
        p = FamilyParams(0.0, np.zeros((1, 1)), [0], [0])
        fd = family_decide(p)
        assert fd.bounded is Verdict.BOUNDED
        assert fd.compact is Verdict.NOT_COMPACT
        assert fd.condition_holds

    def test_contracting_compact(self):
        fd = family_decide(FamilyParams(-1.0, np.zeros((1, 1)), [0], [0]))
        assert fd.compact is Verdict.COMPACT

    def test_unit_circle_gamma_mismatch_unbounded(self):
        lam = (1 - np.exp(1j * np.pi / 4)) / 2
        gamma = 1 / (1 - 2 * lam)
        d = np.array([1.0])
        fd = family_decide(FamilyParams(lam, np.zeros((1, 1)), gamma * d + 0.2, d))
        assert fd.bounded is Verdict.UNBOUNDED

    def test_inequality_arithmetic(self):
        # lam = 0.1, mu = 0.2: 4|g|^2 mu = 1.25 > 1 - |g|^2 = -0.5625;
        # outside the admissible region, so only the raw arithmetic applies
        p = FamilyParams(0.1, 0.2 * np.eye(1), [0], [0])
        with pytest.raises(HypothesisViolated):
            family_decide(p)
        fd = family_decide(p, require_hypothesis=False)
        assert fd.bounded is Verdict.UNBOUNDED

    def test_marginal_near_boundary(self):
        gamma = 0.8
        lam = (1 - 1 / gamma) / 2
        radius = (1 - gamma**2) / (4 * gamma**2)
        p = FamilyParams(lam, (radius * (1 + 5e-10)) * np.eye(1), [0.3], [0.1])
        fd = family_decide(p)
        assert fd.bounded is Verdict.MARGINAL
        assert fd.compact is Verdict.MARGINAL

    def test_matches_pipeline(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = random_family(rng, n, margin=1e-5)
            fd = family_decide(p)
            a = analyze(*family_instance(p))
            assert fd.bounded is a.bounded
            assert fd.compact is a.compact


class TestIntersectionDimensions:
    def test_kernel_dims_agree(self, rng):
        # boundary-circle instances have non-trivial intersections; the
        # closed-form dimension must match the generic kernel
        for theta in (0.0, 0.6, 2.0):
            gamma = 0.75
            lam = (1 - 1 / gamma) / 2
            radius = (1 - gamma**2) / (4 * gamma**2)
            p = FamilyParams(lam, radius * np.exp(1j * theta) * np.eye(1), [0.1], [0.2])
            phi0, q = family_instance(p)
            _, kq, _ = build_kappa(compute_f(phi0, q), phi0)
            closed = intersection_plane_eq(kq, phi0)
            w = compute_weyl_phase(phi0, q)
            plane = LagrangianPlane(phi0)
            kernel, _, _ = intersection_kernel(w.alpha, positivity_class(w.F, plane), plane)
            assert closed.dim == kernel.shape[1] == 1
            fd = family_decide(p)
            assert fd.kernel_dim == 1


class TestScalarFastPath:
    def test_mu_zero_reduces_to_c_equals_gamma_d(self, rng):
        for _ in range(20):
            theta = rng.uniform(-np.pi / 3 + 0.05, np.pi / 3 - 0.05)
            lam = (1 - np.exp(1j * theta)) / 2
            gamma = 1 / (1 - 2 * lam)
            d = cvec(rng, 2)
            good = FamilyParams(lam, np.zeros((2, 2)), gamma * d, d)
            bad = FamilyParams(lam, np.zeros((2, 2)), gamma * d + 0.3, d)
            assert scalar_a_condition(good)[0]
            assert not scalar_a_condition(bad)[0]
            assert general_condition(good)[0]
            assert not general_condition(bad)[0]
            assert family_decide(good).bounded is Verdict.BOUNDED
            assert family_decide(bad).bounded is Verdict.UNBOUNDED

    def test_arc_agrees_with_general_across_scales(self, rng):
        # on the |gamma| = 1 arc (A = 0) the terms of the condition cancel
        # when c = gamma d; the verdict must not depend on the size of d
        for d_scale in 10.0 ** np.arange(-3, 4):
            for _ in range(4):
                theta = rng.uniform(-np.pi / 3 + 0.05, np.pi / 3 - 0.05)
                lam = (1 - np.exp(1j * theta)) / 2
                gamma = 1 / (1 - 2 * lam)
                n = int(rng.integers(1, 3))
                d = cvec(rng, n, d_scale)
                for matched in (True, False):
                    c = gamma * d if matched else gamma * d + cvec(rng, n, 0.3 * d_scale)
                    p = FamilyParams(lam, np.zeros((n, n)), c, d)
                    assert scalar_a_condition(p)[0] is matched, (d_scale, matched)
                    assert general_condition(p)[0] is matched, (d_scale, matched)
                    want = Verdict.BOUNDED if matched else Verdict.UNBOUNDED
                    assert family_decide(p).bounded is want

    def test_boundary_circle_agrees_with_general(self, rng):
        for _ in range(20):
            gamma_abs = rng.uniform(0.5, 0.95)
            lam = (1 - 1 / gamma_abs) / 2  # real, gives |gamma| = gamma_abs
            theta = rng.uniform(0, 2 * np.pi)
            radius = (1 - gamma_abs**2) / (4 * gamma_abs**2)
            n = int(rng.integers(1, 3))
            mu = radius * np.exp(1j * theta)
            c, d = cvec(rng, n), cvec(rng, n)
            p = FamilyParams(lam, mu * np.eye(n), c, d)
            holds, _ = scalar_a_condition(p)
            assert general_condition(p)[0] is holds
            fd = family_decide(p)
            assert fd.bounded is (Verdict.BOUNDED if holds else Verdict.UNBOUNDED)
            assert fd.compact is Verdict.NOT_COMPACT

    def test_condition_constructed_to_hold(self, rng):
        gamma_abs = 0.8
        lam = (1 - 1 / gamma_abs) / 2
        gamma = 1 / (1 - 2 * lam)
        theta = 1.1
        mu = (1 - gamma_abs**2) / (4 * gamma_abs**2) * np.exp(1j * theta)
        c = cvec(rng, 1)
        real_vec = rng.standard_normal(1)
        d = np.conj(gamma) * c + 4 * gamma * mu * np.conj(c) + 1j * np.exp(1j * theta / 2) * real_vec
        p = FamilyParams(lam, mu * np.eye(1), c, d)
        assert scalar_a_condition(p)[0]
        fd = family_decide(p)
        assert fd.bounded is Verdict.BOUNDED and fd.compact is Verdict.NOT_COMPACT
        a = analyze(*family_instance(p))
        assert a.bounded is Verdict.BOUNDED and a.compact is Verdict.NOT_COMPACT

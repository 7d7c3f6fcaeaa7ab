import numpy as np
import pytest

from bargtop import (
    AffineSymplecticMap,
    FamilyParams,
    LagrangianPlane,
    LinearFunctional2n,
    NotAGraph,
    NumericalFailure,
    Positivity,
    PreconditionViolated,
    WeightForm,
    build_kappa,
    build_kappa_tilde,
    compute_f,
    compute_weyl_phase,
    family_instance,
    image_plane,
    intersection_kernel,
    positivity_class,
)
from bargtop.forms import HoloQuadratic2n
from bargtop.symplectic import symplectic_j

from conftest import cvec, random_family, random_instance, random_weight
from oracles import intersection_plane_eq


def model_weight(n=1):
    return WeightForm(0.25 * np.eye(n), np.zeros((n, n)))


def model_plane(n=1):
    return LagrangianPlane(model_weight(n))


def kernel_on(fquad, alpha, phi):
    """Classify Im F on the graph plane of ``phi``, then test alpha on its kernel."""
    plane = LagrangianPlane(phi)
    return intersection_kernel(alpha, positivity_class(fquad, plane), plane)


def scalar_phase(coeff, n=1):
    """F = coeff * x.xi as a quadratic phase."""
    z = np.zeros((n, n), dtype=complex)
    zv = np.zeros(n, dtype=complex)
    return HoloQuadratic2n(z, coeff * np.eye(n), z, zv, zv, 0.0)


class TestAffineSymplecticMap:
    def test_identity(self):
        k = AffineSymplecticMap.identity(2)
        rho = np.arange(4) + 0j
        assert np.allclose(k.apply(rho), rho)

    def test_rejects_non_symplectic(self):
        with pytest.raises(NumericalFailure):
            AffineSymplecticMap(np.diag([2.0, 2.0]).astype(complex), np.zeros(2))

    def test_compose_inverse(self, rng):
        p = random_family(rng, 2)
        phi0, q = family_instance(p)
        kappa, _, _ = build_kappa(compute_f(phi0, q), phi0)
        ident = kappa.compose(kappa.inverse())
        assert ident.isclose(AffineSymplecticMap.identity(2), tol=1e-10)

    def test_invariant_random_maps(self, rng):
        j = symplectic_j(2)
        for _ in range(20):
            p = random_family(rng, 2)
            phi0, q = family_instance(p)
            kappa, kq, _ = build_kappa(compute_f(phi0, q), phi0)
            for m in (kappa.m, kq.m):
                defect = np.linalg.norm(m.T @ j @ m - j, 2)
                assert defect <= 1e-10 * np.linalg.norm(m, 2) ** 2


class TestLagrangianPlane:
    def test_model_basis(self):
        plane = LagrangianPlane(model_weight())
        assert np.allclose(plane.basis[:, 0], [1.0, -0.5j])
        assert np.allclose(plane.basis[:, 1], [1j, -0.5])

    def test_graph_points(self, rng):
        phi = random_weight(rng, 2, pluriharmonic=True)
        plane = LagrangianPlane(phi)
        x = cvec(rng, 2)
        pt = plane.point(x)
        r = np.concatenate([x.real, x.imag])
        assert np.allclose(plane.embed(r), pt)

    def test_invariant_for_random_weights(self, rng):
        for n in (1, 2, 3):
            LagrangianPlane(random_weight(rng, n, pluriharmonic=True))  # must not raise


class TestBuildKappa:
    def test_trivial_symbol_identity(self):
        phi0, q = family_instance(FamilyParams(0.0, np.zeros((1, 1)), [0], [0]))
        kappa, kq, ml = build_kappa(compute_f(phi0, q), phi0)
        assert kappa.isclose(AffineSymplecticMap.identity(1), tol=1e-12)
        assert kq.isclose(AffineSymplecticMap.identity(1), tol=1e-12)
        assert ml.norm() < 1e-14

    def test_family_closed_form_n1(self):
        lam, mu = 0.05 - 0.1j, 0.02 + 0.03j
        c, d = 0.3 + 0.2j, 0.1 - 0.4j
        p = FamilyParams(lam, mu * np.eye(1), [c], [d])
        g = p.gamma
        phi0, q = family_instance(p)
        kappa, kq, ml = build_kappa(compute_f(phi0, q), phi0)
        m_want = np.array([[1 / g, -8j * g * mu], [0.0, g]])
        t_want = np.array([-8 * g * mu * np.conj(c) + 2 * d, -1j * g * np.conj(c)])
        assert np.allclose(kappa.m, m_want, atol=1e-12)
        assert np.allclose(kappa.t, t_want, atol=1e-12)
        assert np.allclose(kq.m, m_want, atol=1e-12)
        # m_l(x, xi) = i gamma conj(c).x + (2d - 8 gamma A conj(c)).xi
        assert np.allclose(ml.gx, [1j * g * np.conj(c)], atol=1e-12)
        assert np.allclose(ml.gxi, [2 * d - 8 * g * mu * np.conj(c)], atol=1e-12)

    def test_factorization(self, rng):
        p = random_family(rng, 2)
        phi0, q = family_instance(p)
        kappa, kq, ml = build_kappa(compute_f(phi0, q), phi0)
        translation = AffineSymplecticMap(np.eye(4, dtype=complex), ml.hamilton())
        assert translation.compose(kq).isclose(kappa, tol=1e-10)


class TestBuildKappaTilde:
    def test_zero_phase(self):
        kt, kf, fund = build_kappa_tilde(scalar_phase(0.0), LinearFunctional2n.zero(1))
        assert kt.isclose(AffineSymplecticMap.identity(1), tol=1e-14)
        assert np.linalg.norm(fund) == 0

    def test_scalar_lambda_cayley(self):
        lam = 0.12 - 0.3j
        gamma = 1.0 / (1.0 - 2.0 * lam)
        coeff = 2.0 * lam / (1.0 - lam)
        kt, kf, _ = build_kappa_tilde(scalar_phase(coeff), LinearFunctional2n.zero(1))
        assert np.allclose(kf.m, np.diag([1.0 / gamma, gamma]), atol=1e-12)

    def test_routes_agree_on_random_family(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 3))
            p = random_family(rng, n)
            phi0, q = family_instance(p)
            kappa, kq, ml = build_kappa(compute_f(phi0, q), phi0)
            w = compute_weyl_phase(phi0, q)
            kt, kf, _ = build_kappa_tilde(w.F, w.alpha)
            assert kappa.isclose(kt, tol=1e-9)
            # the linear/translation factorizations match piecewise
            assert kq.isclose(kf, tol=1e-9)
            g_alpha = w.alpha.vector()
            g_comp = np.linalg.solve(kf.m.T, g_alpha)
            want = -0.5 * (g_comp + g_alpha)
            assert np.linalg.norm(ml.vector() - want) <= 1e-9 * max(
                1.0, np.linalg.norm(want)
            )

    def test_routes_agree_general_weights(self, rng):
        for _ in range(20):
            phi, q = random_instance(rng, 2, pluriharmonic=False)
            kappa, _, _ = build_kappa(compute_f(phi, q), phi)
            w = compute_weyl_phase(phi, q)
            kt, _, _ = build_kappa_tilde(w.F, w.alpha)
            assert kappa.isclose(kt, tol=1e-9)

    def test_cayley_gates_hold_on_valid_instances(self, rng):
        for _ in range(20):
            p = random_family(rng, 2)
            phi0, q = family_instance(p)
            w = compute_weyl_phase(phi0, q)
            _, _, fund = build_kappa_tilde(w.F, w.alpha)  # would raise NotBijective
            for sign in (+1, -1):
                gate = np.eye(4) + sign * 0.5 * fund
                assert np.linalg.svd(gate, compute_uv=False)[-1] > 1e-10


class TestImagePlane:
    def test_identity_map(self):
        phi0 = model_weight()
        phi1 = image_plane(AffineSymplecticMap.identity(1), LagrangianPlane(phi0))
        assert np.allclose(phi1.H, phi0.H)
        assert np.allclose(phi1.S, 0)

    def test_scaling_map(self):
        gamma = 1.0 / 3.0
        kq = AffineSymplecticMap(np.diag([1.0 / gamma, gamma]).astype(complex), np.zeros(2))
        phi1 = image_plane(kq, model_plane())
        assert np.allclose(phi1.H, gamma**2 * 0.25 * np.eye(1), atol=1e-12)

    def test_strictly_positive_gap(self):
        phi0, q = family_instance(FamilyParams(-1.0, np.zeros((1, 1)), [0], [0]))
        _, kq, _ = build_kappa(compute_f(phi0, q), phi0)
        phi1 = image_plane(kq, LagrangianPlane(phi0))
        gap = phi0.realified().s - phi1.realified().s
        assert np.linalg.eigvalsh(gap)[0] > 0
        assert np.allclose(gap, (1 - 1 / 9) * 0.25 * np.eye(2), atol=1e-12)

    def test_not_a_graph(self):
        shear = AffineSymplecticMap(np.array([[1.0, 2j], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(NotAGraph):
            image_plane(shear, model_plane())

    def test_requires_linear(self):
        k = AffineSymplecticMap(np.eye(2, dtype=complex), np.array([1.0, 0.0]))
        with pytest.raises(PreconditionViolated):
            image_plane(k, model_plane())


class TestPositivity:
    def test_zero_phase_positive_full_kernel(self):
        res = positivity_class(scalar_phase(0.0), model_plane())
        assert res.classification is Positivity.POSITIVE
        assert res.kernel().shape[1] == 2

    def test_strict_case_eigenvalues(self):
        # lam = -1: Im F on the plane is |x|^2 / 2
        coeff = 2.0 * (-1.0) / (1.0 - (-1.0))
        res = positivity_class(scalar_phase(coeff), model_plane())
        assert res.classification is Positivity.STRICTLY_POSITIVE
        assert np.allclose(res.eigenvalues, [0.5, 0.5])

    def test_not_positive_case(self):
        coeff = 2.0 * 0.2 / (1.0 - 0.2)
        res = positivity_class(scalar_phase(coeff), model_plane())
        assert res.classification is Positivity.NOT_POSITIVE
        assert np.allclose(res.eigenvalues, [-0.25, -0.25])

    def test_marginal_between_bands(self):
        # restriction with eigenvalues (1, 3e-10): above the noise floor,
        # inside the tolerance band
        plane = model_plane()
        b = plane.basis
        binv = np.linalg.inv(b)
        d = np.diag([1.0, 3e-10])
        fmat = 2j * (binv.T @ d @ binv)
        f = HoloQuadratic2n.from_hessian(0.5 * (fmat + fmat.T))
        res = positivity_class(f, plane)
        assert res.classification is Positivity.MARGINAL

    def test_scale_invariance(self):
        # proportional scaling of the phase must not change the class
        coeff = 2.0 * (-0.3) / (1.0 + 0.3)
        for t in (1.0, 1e-6, 1e6):
            res = positivity_class(scalar_phase(t * coeff), model_plane())
            assert res.classification is Positivity.STRICTLY_POSITIVE


class TestIntersectionKernel:
    def test_zero_phase_full_kernel_vanishing(self):
        kernel, vanishes, margin = kernel_on(scalar_phase(0.0), LinearFunctional2n.zero(1), model_weight())
        assert kernel.shape[1] == 2 and vanishes and margin == 0.0

    def test_unit_circle_gamma_cases(self):
        theta = 0.9
        lam = (1 - np.exp(1j * theta)) / 2
        gamma = 1 / (1 - 2 * lam)
        d = np.array([0.4 - 0.7j])
        for c, want in [(gamma * d, True), (gamma * d + 0.3, False)]:
            phi0, q = family_instance(FamilyParams(lam, np.zeros((1, 1)), c, d))
            w = compute_weyl_phase(phi0, q)
            kernel, vanishes, _ = kernel_on(w.F, w.alpha, phi0)
            assert kernel.shape[1] == 2
            assert vanishes is want

    def test_precondition(self):
        coeff = 2.0 * 0.2 / (1.0 - 0.2)
        plane = model_plane()
        pos = positivity_class(scalar_phase(coeff), plane)
        assert pos.classification is Positivity.NOT_POSITIVE
        with pytest.raises(PreconditionViolated):
            intersection_kernel(LinearFunctional2n.zero(1), pos, plane)


class TestIntersectionPlaneEq:
    def test_contracting_map_trivial(self):
        phi0, q = family_instance(FamilyParams(-1.0, np.zeros((1, 1)), [0], [0]))
        _, kq, _ = build_kappa(compute_f(phi0, q), phi0)
        inter = intersection_plane_eq(kq, phi0)
        assert inter.dim == 0

    def test_unit_circle_full(self):
        lam = (1 - np.exp(0.5j)) / 2
        phi0, q = family_instance(FamilyParams(lam, np.zeros((1, 1)), [0], [0]))
        _, kq, _ = build_kappa(compute_f(phi0, q), phi0)
        inter = intersection_plane_eq(kq, phi0)
        assert inter.dim == 2

    def test_boundary_circle_proper_subspace(self):
        gamma = 0.8
        lam = (1 - 1 / gamma) / 2
        mu = (1 - gamma**2) / (4 * gamma**2) * np.exp(0.6j)
        p = FamilyParams(lam, mu * np.eye(1), [0], [0])
        phi0, q = family_instance(p)
        _, kq, _ = build_kappa(compute_f(phi0, q), phi0)
        inter = intersection_plane_eq(kq, phi0)
        assert inter.dim == 1
        # cross-check against the generic kernel dimension
        w = compute_weyl_phase(phi0, q)
        kernel, _, _ = kernel_on(w.F, w.alpha, phi0)
        assert kernel.shape[1] == 1

import math
import warnings

import numpy as np
import pytest

from bargtop import (
    FamilyParams,
    LagrangianPlane,
    NonConvergent,
    PreconditionViolated,
    QuadratureSpec,
    analyze,
    coherent_growth_scan,
    coherent_norm_exponent,
    family_instance,
    fock_matrix,
    operator_norm_scan,
    weyl_symbol_quadrature,
)
from bargtop import oracle
from bargtop.oracle import growth_direction

from conftest import cvec, random_family


def family(lam=0.0, mu=0.0, c=0.0, d=0.0):
    p = FamilyParams(lam, mu * np.eye(1), [c], [d])
    return (p, *family_instance(p))


class TestWeylSymbolQuadrature:
    def test_trivial_symbol_ratio_one(self, rng):
        _, phi0, q = family()
        for _ in range(3):
            x = cvec(rng, 1, scale=1.5)
            r = weyl_symbol_quadrature(phi0, q, x, QuadratureSpec(order=40))
            assert abs(r - 1.0) < 1e-10

    def test_contracting_closed_value(self):
        _, phi0, q = family(lam=-1.0)
        r = weyl_symbol_quadrature(phi0, q, [1.0], QuadratureSpec(order=40))
        assert abs(r - math.exp(-0.5)) < 1e-10

    def test_expanding_closed_value(self):
        _, phi0, q = family(lam=0.2)
        r = weyl_symbol_quadrature(phi0, q, [2.0], QuadratureSpec(order=60))
        assert abs(r - math.e) < 1e-9 * math.e

    def test_matches_phase_exponential(self, rng):
        # |ratio - exp(i(F + alpha))| <= 5 rel_tol at sample points
        spec = QuadratureSpec(order=60, rel_tol=1e-8)
        for _ in range(3):
            p = random_family(rng, 1, margin=0.05, lam_box=0.2, lin_scale=0.4)
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            plane = LagrangianPlane(a.reduced)
            for _ in range(10):
                x = cvec(rng, 1)
                x *= min(1.0, 2.0 / abs(x[0]))
                ratio = weyl_symbol_quadrature(phi0, q, x, spec)
                expected = np.exp(1j * a.weyl.value(plane.point(x)))
                assert abs(ratio - expected) <= 5 * spec.rel_tol * max(1.0, abs(expected))

    def test_two_dimensional_instance(self, rng):
        p = random_family(rng, 2, margin=0.05, lam_box=0.15, lin_scale=0.3)
        phi0, q = family_instance(p)
        a = analyze(phi0, q)
        plane = LagrangianPlane(a.reduced)
        x = 0.5 * cvec(rng, 2)
        ratio = weyl_symbol_quadrature(phi0, q, x, QuadratureSpec(order=24))
        expected = np.exp(1j * a.weyl.value(plane.point(x)))
        assert abs(ratio - expected) <= 1e-6 * max(1.0, abs(expected))

    def test_tiny_requested_order_escalates(self):
        # a small requested order is escalated until two orders agree
        _, phi0, q = family(lam=0.2 + 0.3j)
        r = weyl_symbol_quadrature(phi0, q, [1.0], QuadratureSpec(order=4))
        r_ref = weyl_symbol_quadrature(phi0, q, [1.0], QuadratureSpec(order=60))
        assert abs(r - r_ref) < 1e-7 * abs(r_ref)

    def test_nonconvergent_beyond_node_budget(self, rng):
        # two-dimensional instance with violent rotation: the required order
        # exceeds the 4-d node budget
        p = FamilyParams(0.24 + 3.0j, np.zeros((2, 2)), [0, 0], [0, 0])
        phi0, q = family_instance(p)
        with pytest.raises(NonConvergent):
            weyl_symbol_quadrature(phi0, q, [1.0, 0.5], QuadratureSpec(order=20))
        pf = FamilyParams(0.24 + 2.5j, np.zeros((1, 1)), [0], [0])
        _, qf = family_instance(pf)
        with pytest.raises(NonConvergent):
            fock_matrix(qf, 50)

    def test_rejects_unreduced_weight(self, rng):
        from bargtop import WeightForm, polarize

        phi = WeightForm(0.25 * np.eye(1), 0.05 * np.eye(1))
        q = polarize(None, np.zeros((1, 1)), None, None, None)
        with pytest.raises(PreconditionViolated):
            weyl_symbol_quadrature(phi, q, [1.0])


class TestFockMatrix:
    def test_trivial_symbol_identity(self):
        _, _, q = family()
        ft = fock_matrix(q, 24)
        assert np.linalg.norm(ft.matrix - np.eye(24)) < 1e-10

    def test_basis_norms_match_closed_moments(self):
        _, _, q = family()
        ft = fock_matrix(q, 24)
        closed = np.array([math.pi * 2.0 ** (k + 1) * math.factorial(k) for k in range(24)])
        assert np.max(np.abs(ft.basis_norms**2 - closed) / closed) < 1e-10

    def test_contracting_diagonal(self):
        _, _, q = family(lam=-1.0)
        ft = fock_matrix(q, 40)
        diag = np.diag(ft.matrix)
        want = (1.0 / 3.0) ** (np.arange(40) + 1)
        assert np.max(np.abs(diag - want)) < 1e-12
        off = ft.matrix - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-12
        assert np.all(np.diff(np.abs(diag)) < 0)

    def test_rotating_symbol_unitary_like_diagonal(self):
        # q = i t |x|^2: diagonal of modulus |gamma|^{k+1} < 1, decaying
        _, _, q = family(lam=1j)
        ft = fock_matrix(q, 30)
        diag = np.diag(ft.matrix)
        gamma = 1.0 / (1.0 - 2.0j)
        want = gamma ** (np.arange(30) + 1)
        assert np.max(np.abs(diag - want)) < 1e-12
        assert np.all(np.abs(diag) < 1.0)
        assert np.all(np.diff(np.abs(diag)) < 0)

    def test_hermitian_for_real_symbols(self, rng):
        # real-valued q: lam real, A = 0, c = -d makes conj(c).x - d.conj(x)
        # real... simplest: pure real lam
        _, _, q = family(lam=-0.4)
        ft = fock_matrix(q, 20)
        assert np.linalg.norm(ft.matrix - ft.matrix.conj().T) < 1e-12

    def test_requires_n1(self, rng):
        p = random_family(rng, 2)
        _, q = family_instance(p)
        with pytest.raises(PreconditionViolated):
            fock_matrix(q, 10)

    def test_large_truncation_stays_finite(self):
        # x^k overflowed here before the rows were scaled by sqrt(2^k k!)
        _, _, q = family(lam=-0.3 + 0.1j, mu=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ft = fock_matrix(q, 100)
        assert np.all(np.isfinite(ft.matrix))
        assert np.all(np.isfinite(ft.basis_norms))
        assert ft.order <= 360

    def test_non_finite_entries_raise(self, monkeypatch):
        _, _, q = family(lam=-1.0)
        nodes = oracle._tensor_nodes

        def with_nan(order, dim):
            x, logw = nodes(order, dim)
            return x, np.where(np.arange(logw.size) == 7, np.nan, logw)

        monkeypatch.setattr(oracle, "_tensor_nodes", with_nan)
        with pytest.raises(NonConvergent, match="non-finite"):
            oracle._fock_matrix_raw(q, 10, 40)
        with pytest.raises(NonConvergent):
            fock_matrix(q, 10)

    def test_chunked_sum_matches_one_block(self, monkeypatch):
        _, _, q = family(lam=-0.5 + 0.2j, mu=0.01, c=0.2, d=0.1j)
        chunked = oracle._fock_matrix_raw(q, 30, 90)
        monkeypatch.setattr(oracle, "_FOCK_CHUNK", 90 * 90)
        whole = oracle._fock_matrix_raw(q, 30, 90)
        assert np.linalg.norm(chunked - whole) <= 1e-14 * np.linalg.norm(whole)


class TestOperatorNormScan:
    def test_trivial_symbol_all_ones(self):
        _, _, q = family()
        norms = operator_norm_scan(q, [10, 20, 30])
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_compact_instance_converges(self):
        _, _, q = family(lam=-1.0)
        norms = operator_norm_scan(q, [20, 40, 60])
        assert abs(norms[2] - norms[1]) < 1e-4
        ft = fock_matrix(q, 60)
        tail = np.linalg.svd(ft.matrix, compute_uv=False)[40:]
        assert np.max(tail) < 1e-6

    def test_unbounded_instance_grows(self):
        _, _, q = family(lam=0.2)
        norms = operator_norm_scan(q, [20, 40, 60])
        assert norms[2] / norms[0] >= 2.0

    def test_monotone(self, rng):
        p = random_family(rng, 1, lin_scale=0.3)
        _, q = family_instance(p)
        norms = operator_norm_scan(q, [10, 20, 30, 40])
        assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))


class TestCriticalValueVsIntegrand:
    def test_exp_of_critical_value_is_gaussian_peak(self, rng):
        # for a real negative-definite exponent the exponential of the
        # critical value equals the maximum of the integrand on the slice
        from bargtop import QuadCriticalProblem, critical_value

        for _ in range(5):
            d = 2
            m = rng.standard_normal((d, d))
            m = -(m @ m.T) - 2.0 * np.eye(d)  # negative definite, symmetric
            lmap = rng.standard_normal((d, 2))
            prob = QuadCriticalProblem(m + 0j, lmap + 0j, rng.standard_normal(d) + 0j, 0.3)
            vc = critical_value(prob)
            p = rng.standard_normal(2)
            grid = np.linspace(-8, 8, 401)
            best = -np.inf
            for u in grid:
                for v in grid:
                    w = np.array([u, v])
                    best = max(best, prob.objective(w, p).real)
            got = vc.value(p[:1], p[1:]).real
            assert got >= best - 1e-9
            assert got - best <= 1e-2  # grid resolution bound


class TestCoherentGrowthScan:
    def test_trivial_symbol_zero(self):
        _, phi0, q = family()
        exps, _ = coherent_growth_scan(phi0, q, radii=[0.0, 1.0, 5.0])
        assert np.allclose(exps, 0.0, atol=1e-12)

    def test_contracting_decreases(self):
        _, phi0, q = family(lam=-1.0)
        radii = [0.0, 1.0, 2.0, 3.0]
        exps, w0 = coherent_growth_scan(phi0, q, direction=[1.0], radii=radii)
        want = [-(4.0 / 9.0) * t**2 for t in radii]
        assert np.allclose(exps, want, atol=1e-12)
        assert all(b < a for a, b in zip(exps[1:], exps[2:]))

    def test_expanding_increases(self):
        _, phi0, q = family(lam=0.2)
        exps, _ = coherent_growth_scan(phi0, q, radii=[0.0, 1.0, 2.0, 4.0])
        assert all(b > a for a, b in zip(exps, exps[1:]))

    def test_matches_pipeline_exponent(self, rng):
        for _ in range(10):
            p = random_family(rng, int(rng.integers(1, 3)))
            phi0, q = family_instance(p)
            a = analyze(phi0, q)
            exps, w0 = coherent_growth_scan(phi0, q, radii=[0.0, 0.7, 1.9])
            direct = [coherent_norm_exponent(a.f, a.reduced, t * w0) for t in (0.0, 0.7, 1.9)]
            assert max(abs(x - y) for x, y in zip(exps, direct)) <= 1e-10

    def test_growth_direction_is_unbounded_ray(self, rng):
        _, phi0, q = family(lam=0.21)
        w0, rate = growth_direction(phi0, q)
        assert rate > 0
        exps, _ = coherent_growth_scan(phi0, q, direction=w0, radii=[1.0, 10.0, 100.0])
        assert exps[2] > exps[1] > exps[0]

    def test_scan_builds_the_exponent_form_once(self, monkeypatch):
        _, phi0, q = family(lam=0.21)
        calls = []
        build = oracle.coherent_exponent_form

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(oracle, "coherent_exponent_form", counted)
        coherent_growth_scan(phi0, q)
        assert len(calls) == 1

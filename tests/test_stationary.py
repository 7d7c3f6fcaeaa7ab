import numpy as np
import pytest

from bargtop import (
    DegeneratePhase,
    QuadCriticalProblem,
    critical_value,
    polarize,
    polarize_weight,
)
from bargtop.forms import WeightForm

from conftest import cvec
from oracles import nondegeneracy_check


def model_psi0():
    return polarize_weight(WeightForm(0.25 * np.eye(1), np.zeros((1, 1))))


def kernel_phase_problem(lam=0.0):
    """Critical-value problem whose value is twice the kernel phase, n = 1."""
    h = 0.25
    m = np.array([[0.0, lam - 2 * h], [lam - 2 * h, 0.0]], dtype=complex)
    lmap = np.array([[0.0, 2 * h], [2 * h, 0.0]], dtype=complex)
    return QuadCriticalProblem(m, lmap, np.zeros(2), 0.0)


class TestCriticalValue:
    def test_pure_quadratic_is_zero(self):
        prob = QuadCriticalProblem(np.eye(2, dtype=complex), np.zeros((2, 2)), np.zeros(2), 0.0)
        vc = critical_value(prob)
        assert np.linalg.norm(vc.hessian()) < 1e-14
        assert abs(vc.c0) < 1e-14

    def test_trivial_symbol_gives_polarized_weight(self):
        # vc = x z / 2, i.e. twice Psi0(x, z) = x z / 4
        vc = critical_value(kernel_phase_problem(0.0))
        assert abs(vc.value([1.0], [1.0]) - 0.5) < 1e-14
        assert np.allclose(vc.mxz, [[0.5]])

    def test_scalar_lambda_closed_form(self):
        lam = 0.15 - 0.25j
        gamma = 1.0 / (1.0 - 2.0 * lam)
        vc = critical_value(kernel_phase_problem(lam))
        assert abs(vc.mxz[0, 0] - gamma / 2.0) < 1e-13

    def test_value_matches_objective_at_solved_point(self, rng):
        # independent check: evaluate the objective at the directly solved
        # critical point and compare with the returned polynomial
        for _ in range(10):
            k, p = 2, 2
            m = rng.standard_normal((2 * k, 2 * k)) + 1j * rng.standard_normal((2 * k, 2 * k))
            m = 0.5 * (m + m.T) + 3 * np.eye(2 * k)
            lmap = rng.standard_normal((2 * k, 2 * p)) + 1j * rng.standard_normal((2 * k, 2 * p))
            r0 = cvec(rng, 2 * k)
            prob = QuadCriticalProblem(m, lmap, r0, complex(rng.standard_normal()))
            vc = critical_value(prob)
            pvec = cvec(rng, 2 * p)
            w_star = -np.linalg.solve(m, lmap @ pvec + r0)
            assert np.linalg.norm(prob.gradient_w(w_star, pvec)) < 1e-10
            direct = prob.objective(w_star, pvec)
            got = vc.value(pvec[:p], pvec[p:])
            assert abs(got - direct) < 1e-10 * max(abs(direct), 1.0)

    def test_degenerate_raises(self):
        # lam = 1/2 kills the mixed block entirely
        with pytest.raises(DegeneratePhase):
            critical_value(kernel_phase_problem(0.5))


class TestNondegeneracy:
    def test_trivial_symbol_s2(self):
        q = polarize(None, np.zeros((1, 1)), None, None, None)
        ok, margin = nondegeneracy_check(q, model_psi0(), 2)
        assert ok and abs(margin - 0.5) < 1e-14

    def test_trivial_symbol_s4(self):
        q = polarize(None, np.zeros((1, 1)), None, None, None)
        ok, margin = nondegeneracy_check(q, model_psi0(), 4)
        assert ok and abs(margin - 1.0) < 1e-14

    def test_degenerate_at_lambda_half(self):
        q = polarize(None, 0.5 * np.eye(1), None, None, None)
        ok, margin = nondegeneracy_check(q, model_psi0(), 2)
        assert not ok and margin < 1e-14

    def test_invalid_s(self):
        q = polarize(None, np.zeros((1, 1)), None, None, None)
        with pytest.raises(ValueError):
            nondegeneracy_check(q, model_psi0(), 3)

"""The verification layer: gate costs and the boundaries of every self-check.

Gates decide with one SVD (``linalg.gate``); self-check residuals that only
need a scale use Frobenius norms.  Each such check is tested just inside
and just outside its threshold.
"""

import importlib

import numpy as np
import pytest

from bargtop import (
    AffineSymplecticMap,
    FamilyParams,
    NumericalFailure,
    QuadCriticalProblem,
    QuadraticSymbol,
    ShapeMismatch,
    SingularMatrix,
    WeightForm,
    analyze,
    family_decide,
    family_instance,
    linalg,
)
from bargtop.linalg import EPS_SING, TOL_EIG, TOL_SOLVE, eig_hermitian_real, gate, require_regular, solve

from conftest import random_family, random_instance

BELOW, ABOVE = 0.99, 1.01


def _count_svds(monkeypatch):
    """Count every numpy SVD, including those inside ``np.linalg.norm(m, 2)``."""
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        try:
            inner = importlib.import_module(name)
        except ImportError:
            continue
        if getattr(inner, "svd", None) is svd:
            monkeypatch.setattr(inner, "svd", counted)
    return calls


class TestSvdBudget:
    def test_analyze_n2_at_most_9_svds(self, rng, monkeypatch):
        family = family_instance(random_family(rng, 2))
        general = random_instance(rng, 2)
        calls = _count_svds(monkeypatch)
        for phi, q in (family, general):
            calls[0] = 0
            analyze(phi, q)
            assert 0 < calls[0] <= 9, calls[0]

    def test_family_params_one_svd(self, rng, monkeypatch):
        a = random_family(rng, 2).A
        calls = _count_svds(monkeypatch)
        p = FamilyParams(0.0, a, [0, 0], [0, 0])
        assert calls[0] == 1
        assert p.a_norm == np.linalg.svd(a, compute_uv=False)[0]

    def test_family_decide_strict_no_svd(self, rng, monkeypatch):
        p = random_family(rng, 2, margin=1e-3)
        calls = _count_svds(monkeypatch)
        family_decide(p)
        assert calls[0] == 0

    def test_family_decide_boundary_at_most_one_svd(self, monkeypatch):
        # circle (A = mu I, |mu| = radius) and arc (|gamma| = 1, A = 0)
        gamma = 0.8
        radius = (1 - gamma**2) / (4 * gamma**2)
        circle = FamilyParams((1 - 1 / gamma) / 2, radius * np.exp(0.6j) * np.eye(2), [0.1, 0.2], [0.3, 0.4])
        arc = FamilyParams((1 - np.exp(0.5j)) / 2, np.zeros((2, 2)), [0.1, 0.2], [0.3, 0.4])
        calls = _count_svds(monkeypatch)
        for p in (circle, arc):
            calls[0] = 0
            assert family_decide(p).kernel_dim > 0
            assert calls[0] <= 1, calls[0]

    def test_counter_sees_norm_2(self, monkeypatch):
        calls = _count_svds(monkeypatch)
        np.linalg.norm(np.eye(3), 2)
        assert calls[0] == 1


class TestGate:
    def test_one_svd_gives_both_ends(self, monkeypatch):
        m = np.diag([3.0, 0.5, 2.0])
        calls = _count_svds(monkeypatch)
        assert gate(m) == (0.5, 3.0)
        assert calls[0] == 1

    def test_empty(self):
        assert gate(np.zeros((0, 0))) == (0.0, 0.0)

    def test_just_above_threshold_passes(self):
        m = np.diag([1.0, ABOVE * EPS_SING])
        smin, smax = require_regular(m)
        assert smax == pytest.approx(1.0) and smin == pytest.approx(ABOVE * EPS_SING)

    def test_just_below_threshold_raises(self):
        with pytest.raises(SingularMatrix, match="smin"):
            require_regular(np.diag([1.0, BELOW * EPS_SING]))

    def test_threshold_is_relative(self):
        require_regular(1e-30 * np.diag([1.0, ABOVE * EPS_SING]))
        with pytest.raises(SingularMatrix):
            require_regular(1e30 * np.diag([1.0, BELOW * EPS_SING]))


class TestSymmetryChecks:
    """``forms._mat`` and ``QuadCriticalProblem``: ||A - A^T||_F <= 1e-12 max(||A||_F, 1)."""

    @staticmethod
    def skew(delta):
        # ||a - a^T||_F = sqrt(2) delta and ||a||_F = sqrt(2 + delta^2)
        return np.array([[1.0, delta], [0.0, 1.0]], dtype=complex)

    def test_symbol_symmetric_block(self):
        z = np.zeros((2, 2))
        QuadraticSymbol(self.skew(BELOW * 1e-12), z, z, None, None)
        with pytest.raises(ShapeMismatch, match="not symmetric"):
            QuadraticSymbol(self.skew(ABOVE * 1e-12), z, z, None, None)

    def test_weight_hermitian_part(self):
        WeightForm(self.skew(BELOW * 1e-12), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch, match="not Hermitian"):
            WeightForm(self.skew(ABOVE * 1e-12), np.zeros((2, 2)))

    def test_critical_problem_hessian(self):
        lmap, r0 = np.eye(2), np.zeros(2)
        QuadCriticalProblem(self.skew(BELOW * 1e-12), lmap, r0)
        with pytest.raises(ShapeMismatch, match="symmetric"):
            QuadCriticalProblem(self.skew(ABOVE * 1e-12), lmap, r0)

    def test_scale_floor_of_one(self):
        # below unit scale the bound is absolute: sqrt(2) delta <= 1e-12
        def small(delta):
            return np.array([[1e-3, delta], [0.0, 1e-3]])

        WeightForm(small(BELOW * 1e-12 / np.sqrt(2.0)), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            WeightForm(small(ABOVE * 1e-12 / np.sqrt(2.0)), np.zeros((2, 2)))


class TestSolveResidual:
    """||M X - B||_F <= TOL_SOLVE ||B||_F."""

    @staticmethod
    def off_by(monkeypatch, delta):
        exact = np.linalg.solve

        def perturbed(m, b):
            x = exact(m, b)
            return x + delta * np.eye(2) / np.sqrt(2.0)

        monkeypatch.setattr(np.linalg, "solve", perturbed)

    def test_inside(self, monkeypatch):
        # M = B = I_2: residual is the perturbation, ||B||_F = sqrt(2)
        self.off_by(monkeypatch, BELOW * TOL_SOLVE * np.sqrt(2.0))
        solve(np.eye(2), np.eye(2))

    def test_outside(self, monkeypatch):
        self.off_by(monkeypatch, ABOVE * TOL_SOLVE * np.sqrt(2.0))
        with pytest.raises(NumericalFailure, match="residual"):
            solve(np.eye(2), np.eye(2))


class TestEigChecks:
    """Reconstruction <= TOL_EIG max(||S||_F, 1); orthonormality <= TOL_EIG."""

    s = np.diag([1.0, 2.0])  # ||S||_F = sqrt(5)

    def patch_eigh(self, monkeypatch, dw=0.0, grow=0.0):
        def fake(a):
            return np.array([1.0 + dw, 2.0]), (1.0 + grow) * np.eye(2)

        monkeypatch.setattr(np.linalg, "eigh", fake)

    def test_reconstruction_inside(self, monkeypatch):
        self.patch_eigh(monkeypatch, dw=BELOW * TOL_EIG * np.sqrt(5.0))
        eig_hermitian_real(self.s)

    def test_reconstruction_outside(self, monkeypatch):
        self.patch_eigh(monkeypatch, dw=ABOVE * TOL_EIG * np.sqrt(5.0))
        with pytest.raises(NumericalFailure, match="reconstruction"):
            eig_hermitian_real(self.s)

    @staticmethod
    def grow_for(defect):
        # V = (1 + g) I gives ||V^T V - I||_F = sqrt(2) (2g + g^2)
        return np.sqrt(1.0 + defect / np.sqrt(2.0)) - 1.0

    def test_orthonormality_inside(self, monkeypatch):
        self.patch_eigh(monkeypatch, grow=self.grow_for(BELOW * TOL_EIG))
        eig_hermitian_real(self.s)

    def test_orthonormality_outside(self, monkeypatch):
        # the reconstruction is off by sqrt(5/2) times less than its bound
        self.patch_eigh(monkeypatch, grow=self.grow_for(ABOVE * TOL_EIG))
        with pytest.raises(NumericalFailure, match="orthonormal"):
            eig_hermitian_real(self.s)

    def test_symmetry(self):
        # ||a - a^T||_F = sqrt(2) delta against TOL_SYM max(||a||_F, 1) = TOL_SYM
        def small(delta):
            return np.array([[0.1, delta], [0.0, 0.1]])

        eig_hermitian_real(small(BELOW * linalg.TOL_SYM / np.sqrt(2.0)))
        with pytest.raises(NumericalFailure, match="not symmetric"):
            eig_hermitian_real(small(ABOVE * linalg.TOL_SYM / np.sqrt(2.0)))


class TestCriticalPointResidual:
    """||M (M^-1 L) - L||_F + ||M (M^-1 r0) - r0|| <= 1e-10 max(||M||, ||r0||, 1) size."""

    @staticmethod
    def check(monkeypatch, delta):
        from bargtop import critical_value

        exact = np.linalg.solve

        def perturbed(m, b):
            x = exact(m, b)
            return x + delta * np.eye(2) / np.sqrt(2.0) if x.ndim == 2 else x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        # M = L = I_2, r0 = 0: the residual is delta, size = ||I + delta I / sqrt 2||_F
        return critical_value(QuadCriticalProblem(np.eye(2), np.eye(2), np.zeros(2)))

    def test_inside(self, monkeypatch):
        self.check(monkeypatch, BELOW * np.sqrt(2.0) * 1e-10)

    def test_outside(self, monkeypatch):
        with pytest.raises(NumericalFailure, match="gradient"):
            self.check(monkeypatch, ABOVE * np.sqrt(2.0) * 1e-10)


class TestSymplecticDefect:
    """||M^T J M - J||_F <= 1e-10 ||M||_F^2."""

    @staticmethod
    def scaled(excess):
        # for n = 1, M^T J M = det(M) J, so M = diag(1 + e, 1) has defect
        # sqrt(2) e against 1e-10 ((1 + e)^2 + 1)
        return np.diag([1.0 + excess, 1.0]).astype(complex)

    def test_inside(self):
        AffineSymplecticMap(self.scaled(BELOW * np.sqrt(2.0) * 1e-10), np.zeros(2))

    def test_outside(self):
        with pytest.raises(NumericalFailure, match="not symplectic"):
            AffineSymplecticMap(self.scaled(ABOVE * np.sqrt(2.0) * 1e-10), np.zeros(2))


class TestIsclose:
    """||dM||_F <= tol max(||M||_F, ||M'||_F, 1), and the same for t."""

    ident = AffineSymplecticMap.identity(1)

    @staticmethod
    def shear(c):
        return AffineSymplecticMap(np.array([[1.0, 0.0], [c, 1.0]]), np.zeros(2))

    def test_linear_part(self):
        # ||I + c E21||_F = sqrt(2 + c^2), so the bound is tol sqrt(2 + c^2)
        tol = 1e-9
        assert self.ident.isclose(self.shear(BELOW * tol * np.sqrt(2.0)), tol)
        assert not self.ident.isclose(self.shear(ABOVE * tol * np.sqrt(2.0)), tol)

    def test_translation(self):
        tol = 1e-9
        near = AffineSymplecticMap(np.eye(2), [BELOW * tol, 0.0])
        far = AffineSymplecticMap(np.eye(2), [ABOVE * tol, 0.0])
        assert self.ident.isclose(near, tol)
        assert not self.ident.isclose(far, tol)


class TestTrustedValues:
    def test_internal_values_skip_constructor_checks(self, rng, monkeypatch):
        # analyze builds its weights, polynomials, maps and planes itself;
        # only the caller's inputs go through the checking constructors
        phi, q = random_instance(rng, 2)
        built = []
        for cls in (WeightForm, AffineSymplecticMap):
            post = cls.__post_init__

            def counted(self, post=post):
                built.append(type(self).__name__)
                post(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        a = analyze(phi, q)
        assert built.count("WeightForm") == 0
        # one checked map per distinct linear part: kappa_q and kappa_f
        assert built.count("AffineSymplecticMap") == 2
        assert a.phi1 is not None and np.allclose(a.phi1.H, a.phi1.H.conj().T)

    def test_reduction_residual_catches_a_wrong_reduced_weight(self, monkeypatch):
        from bargtop import forms, hermitian_reduction

        phi = WeightForm(np.eye(2), 0.1 * np.eye(2))
        reduced, shear = hermitian_reduction(phi)
        assert np.allclose(shear.m @ phi.graph_basis(), reduced.graph_basis())
        monkeypatch.setattr(
            forms.WeightForm,
            "herm_part",
            lambda self: forms.trusted(WeightForm, H=1.001 * self.H, S=0 * self.S),
        )
        with pytest.raises(NumericalFailure, match="shear"):
            hermitian_reduction(phi)

    def test_frobenius_is_the_residual_norm(self):
        m = np.array([[3.0, 4.0j], [0.0, 0.0]])
        assert linalg.frob(m) == 5.0

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from dswave import lorentz
from dswave.geometry import SpacetimeConfig, minkowski_dot, origin


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator AB - BA."""
    return A @ B - B @ A


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_residual_machine_zero(n):
    assert lorentz.structure_residual(SpacetimeConfig(n=n)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iwasawa_ad_relation_exact(n):
    # [a, n_i] = n_i with the root-positive normalization
    cfg = SpacetimeConfig(n=n)
    assert lorentz.iwasawa_ad_residual(cfg) == 0.0


def test_commutator_of_generator_with_itself():
    cfg = SpacetimeConfig(n=3)
    m12 = lorentz.generator(cfg, "rotation", 1, 2)
    assert np.max(np.abs(commutator(m12, m12))) == 0.0


def test_rotation_generator_annihilates_time_axis():
    cfg = SpacetimeConfig(n=3)
    m12 = lorentz.generator(cfg, "rotation", 1, 2)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert_allclose(e0 @ m12, 0.0, atol=1e-15)


def test_exp_boost_generator_reproduces_group_matrix():
    cfg = SpacetimeConfig(n=4, R=1.7)
    for tau in (-0.9, 0.3, 2.0):
        g = expm((tau / cfg.R) * lorentz.generator(cfg, "boost", cfg.n, 0))
        assert np.max(np.abs(g - lorentz.boost_a(cfg, tau))) < 1e-12


def test_exp_iwasawa_a_flows_opposite_to_boost_family():
    # the root-positive a generator exponentiates to a(-tau); the a(tau)
    # family itself comes from the boost(n, 0) generator
    cfg = SpacetimeConfig(n=3)
    a = lorentz.generator(cfg, "iwasawa_a")
    g = expm(0.8 * a)
    assert np.max(np.abs(g - lorentz.boost_a(cfg, -0.8))) < 1e-12


def test_exp_horospheric_generators_exact():
    cfg = SpacetimeConfig(n=4, R=2.0)
    y = np.array([0.7, -1.1, 0.4])
    gen = sum(y[i] / cfg.R * lorentz.generator(cfg, "iwasawa_n", i + 1)
              for i in range(3))
    # nilpotent of order 3: the exponential closes after the square term
    g_exact = np.eye(5) + gen + gen @ gen / 2.0
    assert_allclose(g_exact, expm(gen), atol=1e-13)
    assert np.max(np.abs(g_exact - lorentz.horo_n(cfg, y))) < 1e-12


def test_group_inverses():
    cfg = SpacetimeConfig(n=3, R=1.3)
    assert_allclose(lorentz.boost_a(cfg, 0.0), np.eye(4))
    assert_allclose(lorentz.horo_n(cfg, np.zeros(2)), np.eye(4))
    assert_allclose(lorentz.boost_a(cfg, 0.6) @ lorentz.boost_a(cfg, -0.6),
                    np.eye(4), atol=1e-14)
    y = np.array([0.4, -0.9])
    assert_allclose(lorentz.horo_n(cfg, y) @ lorentz.horo_n(cfg, -y),
                    np.eye(4), atol=1e-14)


def test_one_parameter_group_laws():
    cfg = SpacetimeConfig(n=3, R=0.9)
    assert_allclose(lorentz.boost_a(cfg, 0.3) @ lorentz.boost_a(cfg, 1.1),
                    lorentz.boost_a(cfg, 1.4), atol=1e-13)
    y1, y2 = np.array([0.2, 0.5]), np.array([-0.7, 0.1])
    assert_allclose(lorentz.horo_n(cfg, y1) @ lorentz.horo_n(cfg, y2),
                    lorentz.horo_n(cfg, y1 + y2), atol=1e-13)


def test_translated_origin_matches_chart_formula():
    cfg = SpacetimeConfig(n=3, R=2.0)
    y = np.array([0.6, -0.8])
    x = lorentz.act(cfg, lorentz.horo_n(cfg, y), origin(cfg))
    q = 0.5 * (y @ y) / cfg.R**2
    assert_allclose(x, cfg.R * np.array([-q, -y[0] / cfg.R, -y[1] / cfg.R, 1 - q]),
                    atol=1e-14)


def test_act_identity_and_isometry_check():
    cfg = SpacetimeConfig(n=2)
    x = origin(cfg)
    assert_allclose(lorentz.act(cfg, np.eye(3), x), x)
    bad = np.eye(3)
    bad[1, 1] = 2.0
    with pytest.raises(ValueError):
        lorentz.act(cfg, bad, x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_words_preserve_form(n):
    rng = np.random.default_rng(100 + n)
    cfg = SpacetimeConfig(n=n, R=1.4)
    for _ in range(200):
        g = lorentz.random_group_word(cfg, rng)
        assert lorentz.is_isometry(cfg, g, tol=1e-10)
        x = lorentz.act(cfg, g, origin(cfg))
        assert abs(minkowski_dot(x, x) - cfg.R**2) < 1e-10 * cfg.R**2


def test_scaled_translations_almost_commute():
    cfg = SpacetimeConfig(n=4)
    for R in (10.0, 100.0):
        a = lorentz.generator(cfg, "iwasawa_a") / R
        for i in (1, 2, 3):
            ni = lorentz.generator(cfg, "iwasawa_n", i) / R
            # [a', n'_i] = n'_i / R: vanishes like 1/R^2 in the pair scale
            comm = commutator(a, ni)
            assert_allclose(comm, ni / R, atol=1e-15)
        n1 = lorentz.generator(cfg, "iwasawa_n", 1) / R
        n2 = lorentz.generator(cfg, "iwasawa_n", 2) / R
        assert np.max(np.abs(commutator(n1, n2))) < 1e-16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_poincare_residual_slope(n):
    cfg = SpacetimeConfig(n=n)
    scan = np.array([10.0, 100.0, 1000.0, 10000.0])
    res = np.array([lorentz.poincare_residual(cfg, R) for R in scan])
    slope = np.polyfit(np.log(scan), np.log(res), 1)[0]
    assert abs(slope + 1.0) < 0.05
    # R * residual bounded above and below
    prod = res * scan
    assert prod.max() / prod.min() < 1.5
    assert prod.min() > 0


def test_poincare_residual_monotone():
    cfg = SpacetimeConfig(n=4)
    assert lorentz.poincare_residual(cfg, 1000.0) < lorentz.poincare_residual(cfg, 100.0) / 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_casimir_defining_multiple(n):
    # Schur multiple of the defining-representation Casimir combination
    c = lorentz.casimir_defining_multiple(SpacetimeConfig(n=n))
    assert_allclose(c, -float(n))


def test_generator_argument_errors():
    cfg = SpacetimeConfig(n=3)
    with pytest.raises(ValueError):
        lorentz.generator(cfg, "rotation", 2, 2)
    with pytest.raises(ValueError):
        lorentz.generator(cfg, "iwasawa_n", 3)
    with pytest.raises(ValueError):
        lorentz.generator(cfg, "nonsense")


def _structure_table_per_pair(mats, tol=1e-9):
    """Reference: one least-squares solve per commutator, in a loop."""
    k = len(mats)
    B = np.stack([m.reshape(-1) for m in mats], axis=1)
    C = np.empty((k, k, k))
    for p in range(k):
        for q in range(k):
            target = (mats[p] @ mats[q] - mats[q] @ mats[p]).reshape(-1)
            coef = np.linalg.lstsq(B, target, rcond=None)[0]
            assert np.max(np.abs(B @ coef - target)) <= tol * max(1.0, np.max(np.abs(target)))
            C[p, q] = coef
    return C


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("R", [10.0, 1e4])
def test_structure_table_matches_per_pair_solves(n, R):
    for mats in (lorentz._scaled_ds_basis(SpacetimeConfig(n=n), R),
                 lorentz._poincare_basis(n)):
        C = lorentz._structure_table(mats)
        k = len(mats)
        assert C.shape == (k, k, k) == (n * (n + 1) // 2,) * 3
        assert np.max(np.abs(C - _structure_table_per_pair(mats))) <= 1e-15


def test_structure_table_refuses_basis_that_does_not_close():
    # [M_10, M_20] is the rotation M_12 (up to sign), outside the span
    cfg = SpacetimeConfig(n=3)
    boosts = np.stack([lorentz.generator(cfg, "boost", 1),
                       lorentz.generator(cfg, "boost", 2)])
    with pytest.raises(ValueError, match="does not close"):
        lorentz._structure_table(boosts)


def test_generator_returns_fresh_array():
    cfg = SpacetimeConfig(n=3)
    for args in (("rotation", 1, 2), ("boost", 3), ("iwasawa_a",), ("iwasawa_n", 1)):
        first = lorentz.generator(cfg, *args)
        expect = first.copy()
        first[...] = 7.0
        assert np.array_equal(lorentz.generator(cfg, *args), expect)

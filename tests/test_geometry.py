import numpy as np
import pytest
from numpy.testing import assert_allclose

from dswave import geometry
from dswave.errors import ChartSingularError
from dswave.geometry import (HoroChart, HyperChart, SpacetimeConfig,
                             absolute_covector, central_differences,
                             cone_measure_weight,
                             cone_measure_weight_fd, from_horo, from_hyper,
                             minkowski_dot, origin, sphere_point, to_horo)


def test_minkowski_dot_origin():
    cfg = SpacetimeConfig(n=3, R=2.0)
    th = origin(cfg)
    assert_allclose(minkowski_dot(th, th), cfg.R**2)


def test_minkowski_dot_null_and_mixed():
    xi = np.array([1.0, 0, 0, 1.0])
    assert minkowski_dot(xi, xi) == 0.0
    cfg = SpacetimeConfig(n=3, R=1.7)
    # hand evaluation: theta . xi = R * xi_n
    assert_allclose(minkowski_dot(origin(cfg), xi), cfg.R)


def test_minkowski_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski_dot(np.ones(3), np.ones(4))


def test_from_horo_origin():
    cfg = SpacetimeConfig(n=4)
    x = from_horo(cfg, HoroChart(0.0, (0.0,) * 3, 1))
    assert_allclose(x, origin(cfg))


def test_from_horo_hand_value():
    # tau = R ln 2, y = 0: sinh = 3/4, cosh = 5/4
    cfg = SpacetimeConfig(n=3, R=2.0)
    x = from_horo(cfg, HoroChart(cfg.R * np.log(2.0), (0.0, 0.0), 1))
    assert_allclose(x, [0.75 * cfg.R, 0.0, 0.0, 1.25 * cfg.R], atol=1e-14)


def test_from_horo_matches_group_translation():
    # x(0, y) = theta . n(y), the matrix-product oracle
    from dswave import lorentz
    cfg = SpacetimeConfig(n=4, R=1.5)
    y = (0.3, -0.8, 0.45)
    x_chart = from_horo(cfg, HoroChart(0.0, y, 1))
    x_group = lorentz.act(cfg, lorentz.horo_n(cfg, np.array(y)), origin(cfg))
    assert_allclose(x_chart, x_group, atol=1e-14)


def test_from_horo_full_iwasawa_orbit():
    from dswave import lorentz
    cfg = SpacetimeConfig(n=3, R=0.8)
    tau, y = -0.6, (0.9, 0.2)
    x_chart = from_horo(cfg, HoroChart(tau, y, 1))
    g = lorentz.boost_a(cfg, tau) @ lorentz.horo_n(cfg, np.array(y))
    assert_allclose(x_chart, lorentz.act(cfg, g, origin(cfg)), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_horo_points_on_shell(n):
    rng = np.random.default_rng(n)
    cfg = SpacetimeConfig(n=n, R=1.0 + n / 3.0)
    for _ in range(25):
        ch = HoroChart(rng.normal(), tuple(rng.normal(size=n - 1)),
                       1 if rng.random() < 0.5 else -1)
        x = from_horo(cfg, ch)
        assert abs(minkowski_dot(x, x) - cfg.R**2) <= 1e-12 * cfg.R**2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_horo_round_trip(n):
    rng = np.random.default_rng(10 + n)
    cfg = SpacetimeConfig(n=n, R=2.3)
    for _ in range(25):
        ch = HoroChart(rng.normal(), tuple(0.8 * rng.normal(size=n - 1)),
                       1 if rng.random() < 0.5 else -1)
        x = from_horo(cfg, ch)
        back = to_horo(cfg, x)
        assert back.eps == ch.eps
        assert_allclose(back.tau, ch.tau, rtol=1e-10, atol=1e-10)
        assert_allclose(back.y, ch.y, rtol=1e-10, atol=1e-10)


def test_to_horo_origin_and_singular():
    cfg = SpacetimeConfig(n=3)
    ch = to_horo(cfg, origin(cfg))
    assert ch.eps == 1
    assert_allclose([ch.tau, *ch.y], [0.0, 0.0, 0.0], atol=1e-14)
    # inverse of the hand value
    back = to_horo(cfg, np.array([0.75, 0, 0, 1.25]))
    assert_allclose(back.tau, np.log(2.0), rtol=1e-12)
    # x_n = x_0 (null chart edge)
    sick = np.array([1.3, np.sqrt(1.0 + 2 * 1.3**2) * 0 + np.sqrt(1 + 0), 0, 1.3])
    sick[1] = np.sqrt(cfg.R**2 + sick[0] ** 2 - sick[3] ** 2)
    with pytest.raises(ChartSingularError):
        to_horo(cfg, sick)


def test_to_horo_antisymmetric_point_singular():
    cfg = SpacetimeConfig(n=2)
    x = np.array([0.7, np.sqrt(cfg.R**2 + 0.0), -0.7])
    x[1] = np.sqrt(cfg.R**2 + x[0] ** 2 - x[2] ** 2)
    with pytest.raises(ChartSingularError):
        to_horo(cfg, x)


def test_from_hyper_origin_and_circle():
    cfg2 = SpacetimeConfig(n=2)
    assert_allclose(from_hyper(cfg2, HyperChart(0.0, (), 0.0)),
                    [0.0, 0.0, 1.0], atol=1e-15)
    # quarter turn on the circle chart
    assert_allclose(from_hyper(cfg2, HyperChart(0.0, (), np.pi / 2)),
                    [0.0, 1.0, 0.0], atol=1e-15)
    cfg4 = SpacetimeConfig(n=4, R=3.0)
    assert_allclose(from_hyper(cfg4, HyperChart(0.0, (0.0, 0.0), 0.0)),
                    [0, 0, 0, 0, 3.0], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hyper_points_on_shell(n):
    rng = np.random.default_rng(20 + n)
    cfg = SpacetimeConfig(n=n, R=0.9)
    for _ in range(25):
        ch = HyperChart(rng.normal(), tuple(rng.uniform(0, np.pi, n - 2)),
                        rng.uniform(0, 2 * np.pi))
        x = from_hyper(cfg, ch)
        assert abs(minkowski_dot(x, x) - cfg.R**2) <= 1e-12 * cfg.R**2


def test_absolute_covector_basics():
    xi = absolute_covector(np.array([0.0, 0.0, 1.0]))
    assert_allclose(xi, [1, 0, 0, 1])
    assert minkowski_dot(xi, xi) == 0.0
    assert xi[0] == 1.0
    with pytest.raises(ValueError):
        absolute_covector(np.array([0.0, 0.0, 2.0]))


def test_absolute_covectors_rotate_into_each_other():
    from dswave import lorentz
    cfg = SpacetimeConfig(n=3)
    u1 = np.array([0.0, 0.0, 1.0])
    ang = 0.77
    g = lorentz.rotation_k(cfg, 1, 3, ang)
    xi1 = absolute_covector(u1)
    xi2 = lorentz.act(cfg, g, xi1)
    assert_allclose(minkowski_dot(xi2, xi2), 0.0, atol=1e-14)
    assert_allclose(xi2[0], 1.0)
    # explicit target: rotation by ang in the 1-3 plane
    assert_allclose(xi2, absolute_covector(np.array(u1 @ g[1:, 1:])), atol=1e-14)


def test_central_differences_quadratic_exact():
    # the three-point and cross stencils are exact on quadratics
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    A = A + A.T
    b = rng.normal(size=3)
    q = np.array([0.3, -0.7, 1.1])

    def F(x):
        return 0.5 * x @ A @ x + b @ x + 2.0

    val, g, H = central_differences(F, q, 0.25, mixed=True)
    assert val == F(q)
    assert_allclose(g, A @ q + b, rtol=0, atol=1e-13)
    assert_allclose(H, A, rtol=0, atol=1e-13)
    assert np.array_equal(H, H.T)
    _, _, H_diag = central_differences(F, q, 0.25)
    assert np.array_equal(H_diag, np.diag(np.diag(H)))


def test_central_differences_richardson_quartic():
    # on x^4 the plain stencils are off by 4 x h^2 and 2 h^2; the
    # Richardson combination removes the h^2 term exactly
    c = np.array([1.5, -0.5])
    q = np.array([0.8, -1.3])
    h = 0.1

    def F(x):
        return c @ x**4 + x[0] * x[1]

    _, g, H = central_differences(F, q, h)
    assert_allclose(np.diag(H), 12 * c * q**2 + 2 * c * h**2, rtol=1e-11)
    assert_allclose(g, 4 * c * q**3 + q[::-1] + 4 * c * q * h**2, rtol=1e-11)
    _, g, H = central_differences(F, q, h, richardson=True)
    assert_allclose(np.diag(H), 12 * c * q**2, rtol=1e-11)
    assert_allclose(g, 4 * c * q**3 + q[::-1], rtol=1e-11)
    assert H[0, 1] == 0.0


def test_central_differences_vector_valued_shapes():
    # each derivative adds a trailing coordinate axis, entry by entry the
    # scalar result of that component
    M = np.arange(6.0).reshape(2, 3)

    def F(x):
        return np.exp(1j * M * x[0]) * (1.0 + x[1] ** 2 + x[0] * x[2])

    def F01(x):
        return F(x)[0, 1]

    q = np.array([0.4, -0.2, 0.9])
    for kw in ({}, {"richardson": True}, {"mixed": True}):
        val, g, H = central_differences(F, q, 1e-3, **kw)
        assert val.shape == (2, 3) and val.dtype == complex
        assert g.shape == (2, 3, 3)
        assert H.shape == (2, 3, 3, 3)
        v1, g1, H1 = central_differences(F01, q, 1e-3, **kw)
        assert val[0, 1] == v1
        assert np.array_equal(g[0, 1], g1)
        assert np.array_equal(H[0, 1], H1)


def test_cone_measure_n2_constant_half():
    cfg = SpacetimeConfig(n=2)
    for phi in (0.0, 1.1, 3.0):
        assert_allclose(cone_measure_weight(cfg, (), phi), 0.5)
        assert_allclose(cone_measure_weight_fd(cfg, (), phi), 0.5, rtol=1e-8)


def test_cone_measure_n3_half_sin():
    cfg = SpacetimeConfig(n=3)
    for p in (0.3, 1.0, 2.2):
        assert_allclose(cone_measure_weight(cfg, (p,), 0.4), 0.5 * np.sin(p))
        assert_allclose(cone_measure_weight_fd(cfg, (p,), 0.4),
                        0.5 * np.sin(p), rtol=1e-7)


@pytest.mark.parametrize("n,phis", [(2, ()), (3, (0.8,)), (4, (0.8, 2.0)),
                                    (5, (0.5, 1.2, 2.4))])
def test_cone_measure_matches_fd_oracle(n, phis):
    cfg = SpacetimeConfig(n=n)
    w = cone_measure_weight(cfg, phis, 0.9)
    w_fd = cone_measure_weight_fd(cfg, phis, 0.9)
    assert_allclose(w, w_fd, rtol=1e-6)
    assert w > 0


def test_cone_measure_total_mass():
    # integral over S^{n-1} equals half the sphere volume
    from dswave.transform import SphereGrid
    for n, vol in ((2, 2 * np.pi), (3, 4 * np.pi)):
        grid = SphereGrid.build(n, n_polar=24, n_azimuth=48)
        phis_cols = [p for p in grid.phis]
        total = 0.0
        for i in range(grid.size):
            dens = cone_measure_weight(SpacetimeConfig(n=n),
                                       tuple(c[i] for c in phis_cols),
                                       grid.phi[i])
            # grid weights already include the sphere density
            base = geometry.sphere_density(n, [c[i] for c in phis_cols])
            total += grid.weights[i] * dens / max(base, 1e-300)
        assert_allclose(total, 0.5 * vol, rtol=1e-9)


def test_sphere_point_unit_norm():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for _ in range(10):
            u = sphere_point(n, rng.uniform(0, np.pi, n - 2), rng.uniform(0, 2 * np.pi))
            assert_allclose(np.linalg.norm(u), 1.0, rtol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_grid_points_match_sphere_point(n):
    from dswave.transform import SphereGrid
    grid = SphereGrid.build(n, n_polar=6, n_azimuth=10)
    pts = grid.points()
    assert pts.shape == (grid.size, n)
    for i in range(grid.size):
        row = sphere_point(n, [p[i] for p in grid.phis], grid.phi[i])
        assert np.array_equal(pts[i], row)

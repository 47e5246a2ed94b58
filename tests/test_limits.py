import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from dswave import limits, specfun
from dswave.errors import AccuracyError, OnSingularSurfaceError, PoleError
from dswave.geometry import (HyperChart, SpacetimeConfig, from_hyper,
                             minkowski_dot, origin)
from dswave.limits import (appendix_d_oracle, bessel_pair_integral,
                           casimir_action_limit, decay_fit,
                           flat_limit_deviation, gamma_gradient_shell,
                           gamma_phase_split, minkowski_covector,
                           off_shell_damping, phase_gradient,
                           phase_gradient_min, spectral_smearing_contrast)

mp.mp.dps = 25


# ------------------------------------------------------- flat-side builders


def test_minkowski_covector_mass_shell():
    mu = 1.3
    sp = np.array([0.4, -0.7])
    xi = np.concatenate([[math.hypot(*sp, mu)], sp, [mu]])
    xibar = minkowski_covector(xi, mu=mu)
    q = -xibar[0] ** 2 + xibar[1:] @ xibar[1:]
    assert abs(q + mu**2) <= 1e-10 * mu**2
    assert_allclose(xibar, [xi[0], -0.4, 0.7])


def test_minkowski_covector_off_shell_raises():
    xi = np.array([math.hypot(0.4, 1.5), 0.4, 1.5])
    with pytest.raises(ValueError):
        minkowski_covector(xi, mu=1.0)


def test_minkowski_pair():
    # the flat pairing y.xibar of the limits is the ambient bilinear form
    assert_allclose(minkowski_dot([2.0, 3.0], [1.5, 0.5]), -3.0 + 1.5)


# --------------------------------------------------------- stationary phase


def test_phase_gradient_hand_value():
    cfg = SpacetimeConfig(n=3, R=2.0)
    xi = np.array([1.0, 0.0, 0.0, 1.0])
    g = phase_gradient(origin(cfg), xi)
    expect = np.zeros(3)
    expect[-1] = 1.0 / cfg.R
    assert_allclose(g, expect, rtol=1e-14)


def test_phase_gradient_singular():
    xi = np.array([1.0, 0.0, 1.0])
    x = np.array([1.0, math.sqrt(2.0), 1.0])
    with pytest.raises(OnSingularSurfaceError):
        phase_gradient(x, xi)


def _phase_grid(n, n_points, n_dirs, seed):
    rng = np.random.default_rng(seed)
    cfg = SpacetimeConfig(n=n, R=1.3)
    pts = np.array([from_hyper(cfg, HyperChart(rng.normal(),
                                               tuple(rng.uniform(0.2, 2.9, n - 2)),
                                               rng.uniform(0, 2 * np.pi)))
                    for _ in range(n_points)])
    u = rng.normal(size=(n_dirs, n))
    xis = np.concatenate([np.ones((n_dirs, 1)),
                          u / np.linalg.norm(u, axis=1, keepdims=True)], axis=1)
    return cfg, pts, xis


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phase_gradient_batch_matches_scalar_calls(n):
    cfg, pts, xis = _phase_grid(n, 7, 11, seed=n)
    g = phase_gradient(pts[:, None], xis)
    assert g.shape == (7, 11, n)
    for p, x in enumerate(pts):
        for d, xi in enumerate(xis):
            ref = phase_gradient(x, xi)
            assert np.all(np.abs(g[p, d] - ref) <= 4 * np.spacing(np.abs(ref)))


def test_phase_gradient_batch_singular_pair():
    cfg, pts, xis = _phase_grid(2, 5, 6, seed=9)
    # the point (1, sqrt 2, 1) lies on x.xi = 0 for xi = (1, 0, 1)
    pts[3] = [1.0, math.sqrt(2.0), 1.0]
    xis[4] = [1.0, 0.0, 1.0]
    assert minkowski_dot(pts[3], xis[4]) == 0.0
    with pytest.raises(OnSingularSurfaceError):
        phase_gradient(pts[:, None], xis)
    with pytest.raises(OnSingularSurfaceError):
        phase_gradient_min(pts, xis[:, 1:])


def test_phase_gradient_never_vanishes():
    cfg = SpacetimeConfig(n=3)
    rng = np.random.default_rng(3)
    pts = [from_hyper(cfg, HyperChart(rng.normal(), (rng.uniform(0.2, 2.9),),
                                      rng.uniform(0, 2 * np.pi)))
           for _ in range(15)]
    dirs = []
    for th in np.linspace(0.1, np.pi - 0.1, 8):
        for ph in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            dirs.append(np.array([np.sin(th) * np.sin(ph),
                                  np.sin(th) * np.cos(ph), np.cos(th)]))
    assert phase_gradient_min(pts, dirs) > 1e-3


def test_fixed_point_would_force_zero_radius():
    # the fixed-point equations x_i = x_0 xi_i / xi_0 force |x|^2 = x_0^2,
    # i.e. R = 0; verify the residual stays away from matching on-shell
    cfg = SpacetimeConfig(n=2, R=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = from_hyper(cfg, HyperChart(rng.normal(), (), rng.uniform(0, 2 * np.pi)))
        # min over xi of |x_i - x_0 xi_i / xi_0| cannot reach 0 for all i
        best = np.inf
        for th in np.linspace(0, 2 * np.pi, 200, endpoint=False):
            u = np.array([np.sin(th), np.cos(th)])
            best = min(best, float(np.linalg.norm(x[1:] - x[0] * u)))
        # |x| - |x_0| >= R^2 / (|x| + |x_0|) > 0
        assert best >= cfg.R**2 / (np.linalg.norm(x[1:]) + abs(x[0]) + 1.0) - 1e-9


# -------------------------------------------------------------- decay fits


def test_decay_fit_power_law():
    s = np.geomspace(1.0, 1e4, 400)
    fit = decay_fit(s, s ** (-2.5), n_windows=3)
    for sl in fit.slopes:
        assert_allclose(sl, 2.5, atol=1e-6)
    assert fit.non_decreasing


def test_decay_fit_zero_field_and_noise():
    s = np.geomspace(1.0, 100.0, 50)
    fit = decay_fit(s, np.zeros(50))
    assert fit.status == "zero-field"
    fit = decay_fit(s, 1e-20 * s ** (-1.0), noise_floor=1e-15)
    assert fit.status == "noise-limited"


def test_decay_fit_no_window_fitted():
    # 10 samples over 4 windows: no window holds the 6 samples a fit needs
    s = np.geomspace(2.0, 250.0, 10)
    fit = decay_fit(s, s ** (-1.0), n_windows=4)
    assert fit.slopes == []
    assert fit.status == "no-fit"


def test_decay_fit_partial_fit_stays_ok():
    # the second window holds 3 samples and is skipped; the first is fitted
    s = np.concatenate([np.geomspace(1.0, 9.0, 30), [50.0, 100.0]])
    fit = decay_fit(s, s ** (-2.0), n_windows=2)
    assert len(fit.slopes) == 1
    assert_allclose(fit.slopes[0], 2.0, atol=1e-9)
    assert fit.status == "ok"


def test_decay_fit_oscillating_envelope():
    # |cos| modulation rides on s^-1; envelope bins recover the power
    s = np.geomspace(10.0, 1e5, 3000)
    f = s ** (-1.0) * np.abs(np.cos(3.0 * np.log(s)))
    fit = decay_fit(s, f, n_windows=3, bin_width=np.pi / 3.0 * 1.1)
    for sl in fit.slopes:
        assert abs(sl - 1.0) < 0.05


def _decay_fit_loop(s_values, f_values, n_windows, bin_width):
    """decay_fit's envelope path as one argmax per bin, in a Python loop."""
    s, f = np.asarray(s_values, dtype=float), np.abs(np.asarray(f_values))
    edges = np.geomspace(s.min(), s.max(), n_windows + 1)
    slopes, residuals = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (s >= lo) & (s <= hi)
        if sel.sum() < 6:
            continue
        ss, ff = s[sel], f[sel]
        nbins = max(3, int(round(math.log(hi / lo) / bin_width)))
        which = np.digitize(ss, np.geomspace(lo, hi, nbins + 1))
        ss_env, ff_env = [], []
        for b in np.unique(which):
            m = which == b
            j = np.argmax(ff[m])
            ss_env.append(ss[m][j])
            ff_env.append(ff[m][j])
        ss, ff = np.asarray(ss_env), np.asarray(ff_env)
        good = ff > 0
        if good.sum() < 3:
            continue
        coef, res = np.polyfit(np.log(ss[good]), np.log(ff[good]), 1, full=True)[:2]
        slopes.append(float(-coef[0]))
        residuals.append(float(res[0]) if len(res) else 0.0)
    return slopes, residuals


@pytest.mark.parametrize("seed", range(6))
def test_decay_fit_envelope_matches_per_bin_loop(monkeypatch, seed):
    # unsorted s, |f| rounded so most bins hold tied maxima at different s:
    # the same samples reach the fit, and the slopes agree bitwise
    rng = np.random.default_rng(seed)
    size = int(rng.integers(40, 400))
    s = rng.permutation(np.exp(rng.uniform(0.5, 6.0, size)))
    f = np.round(s ** -1.5 * (1.0 + np.abs(np.cos(4.0 * np.log(s)))), 3)
    f = f * np.exp(1j * rng.uniform(0.0, 6.0, size))
    bin_width = float(rng.uniform(0.05, 0.6))
    fitted = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda x, y, *a, **k:
                        fitted.append((x.copy(), y.copy())) or polyfit(x, y, *a, **k))
    fit = decay_fit(s, f, n_windows=3, bin_width=bin_width)
    new_inputs = fitted[:]
    fitted.clear()
    slopes, residuals = _decay_fit_loop(s, f, 3, bin_width)
    assert len(new_inputs) == len(fitted) == len(slopes) > 0
    for (x, y), (x_ref, y_ref) in zip(new_inputs, fitted):
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
    assert fit.slopes == slopes
    assert fit.residuals == residuals


def test_single_wave_envelope_exponent():
    from dswave.planewave import HyperWave, radial_profile
    from dswave.specfun import HarmonicIndex
    rho = 2.5
    for n in (2, 3, 4):
        w = HyperWave(2, rho, HarmonicIndex(n, 0, tuple([0] * (n - 2))))
        betas = np.linspace(2.5, 14.0, 1200)
        fit = decay_fit(np.exp(betas), radial_profile(w, betas), n_windows=3,
                        bin_width=np.pi / rho * 1.05)
        for sl in fit.slopes:
            assert abs(sl - 0.5 * (n - 1)) < 0.05


def test_spectral_smearing_contrast():
    out = spectral_smearing_contrast()
    sharp = out[0.0]
    # sharp packet: envelope-normalized peaks constant
    assert max(sharp) / min(sharp) < 1.02
    # smeared packets: decaying, faster for wider smearing
    for w in (0.6, 1.2):
        peaks = out[w]
        assert peaks[2] < peaks[0]
    assert out[1.2][2] < out[0.6][2]


# ---------------------------------------------------------------- flat limit


def test_flat_limit_trivial_point():
    mu = 1.0
    xi = np.array([mu, 0.0, 0.0, mu])
    out = flat_limit_deviation(3, mu, xi, np.zeros(3), [10.0, 1000.0])
    assert_allclose(out["deviation"], 0.0, atol=1e-14)


def test_flat_limit_rate():
    mu = 1.0
    sp = np.array([0.3, 0.0])
    xi = np.concatenate([[math.hypot(*sp, mu)], sp, [mu]])
    y = np.array([0.7, -0.4, 0.2])
    out = flat_limit_deviation(3, mu, xi, y, [10.0, 100.0, 1000.0, 10000.0])
    assert abs(out["slope"] + 1.0) < 0.15
    assert out["deviation"][-1] < out["deviation"][0] * 1e-2


def test_flat_limit_pure_time_target():
    # y = (tau, 0): target e^{-i tau mu} at xi = (mu, 0, mu)
    mu, tau = 1.0, 0.8
    xi = np.array([mu, 0.0, mu])
    out = flat_limit_deviation(2, mu, xi, np.array([tau, 0.0]),
                               [100.0, 10000.0])
    assert out["deviation"][-1] < 1e-3
    from dswave.geometry import HoroChart, from_horo
    from dswave.planewave import AmbientWave, principal_mass, psi_ambient
    cfg = SpacetimeConfig(n=2, R=10000.0)
    x = from_horo(cfg, HoroChart(tau, (0.0,), 1))
    val = psi_ambient(AmbientWave(tuple(xi), principal_mass(cfg, mu)), x)
    assert abs(val - np.exp(-1j * tau * mu)) < 1e-3


def test_flat_limit_requires_shell():
    xi = np.array([math.hypot(0.3, 1.5), 0.3, 1.5])
    with pytest.raises(ValueError):
        flat_limit_deviation(2, 1.0, xi, np.zeros(2), [10.0])


def test_off_shell_damping_decays():
    y = np.array([0.7, -0.4, 0.2])
    out = off_shell_damping(3, 1.0, np.array([0.3, 0.0]), y,
                            [10.0, 100.0, 1000.0])
    a = out["averaged"]
    # at least 1/R decay between scan points (actually much faster)
    assert a[1] < a[0] * 0.2
    assert a[2] < a[1] * 0.2
    # pointwise modulus stays order one while averages collapse
    from dswave.geometry import HoroChart, from_horo
    from dswave.planewave import AmbientWave, principal_mass, psi_ambient
    cfg = SpacetimeConfig(n=3, R=1000.0)
    x = from_horo(cfg, HoroChart(0.7, (-0.4, 0.2), 1))
    nu = 1.3
    xi = np.array([math.hypot(0.3, nu), 0.3, 0.0, nu])
    val = psi_ambient(AmbientWave(tuple(xi), principal_mass(cfg, 1.0)), x)
    assert 0.1 < abs(val) < math.exp(math.pi)


def test_off_shell_wider_window_faster():
    y = np.array([0.7, -0.4, 0.2])
    narrow = off_shell_damping(3, 1.0, np.array([0.3, 0.0]), y, [100.0],
                               window=(1.1, 1.6))
    wide = off_shell_damping(3, 1.0, np.array([0.3, 0.0]), y, [100.0],
                             window=(1.1, 2.1))
    assert wide["averaged"][0] < narrow["averaged"][0]


# ------------------------------------------------------------ Casimir limit


def test_casimir_action_limit_structure():
    mu = 1.0
    sp = np.array([0.3, 0.0])
    xi = np.concatenate([[math.hypot(*sp, mu)], sp, [mu]])
    y = np.array([0.7, -0.4, 0.2])
    out = casimir_action_limit(3, mu, xi, y, [50.0, 200.0, 800.0],
                               h_values=(4e-3, 2e-3))
    fits = out["fits"]
    for key in ("r_n", "r_a", "r_c"):
        assert fits[key] is not None
        assert fits[key]["c_R"] > 0
    # residuals fall like 1/R at fixed h
    tab = {(r["R"], r["h"]): r for r in out["table"]}
    assert tab[(800.0, 2e-3)]["r_c"] < tab[(50.0, 2e-3)]["r_c"] / 8


def test_casimir_spatial_target_zero_for_axial_covector():
    # xi = (mu, 0, .., mu): spatial components vanish, so n'_i n'_i Psi -> 0
    mu = 1.0
    xi = np.array([mu, 0.0, 0.0, mu])
    y = np.array([0.4, 0.3, -0.2])
    out = casimir_action_limit(3, mu, xi, y, [100.0, 1000.0], h_values=(2e-3,))
    # the wave is y-independent for the axial covector, so the applied
    # operator is zero up to FD roundoff at every R
    for r in out["table"]:
        assert r["r_n"] < 1e-6


def test_casimir_eigenvalue_matches_contraction():
    # the combined operator recovers -mu^2, mirroring the algebra result
    from dswave import lorentz
    mu = 1.0
    xi = np.array([mu, 0.0, mu])
    out = casimir_action_limit(2, mu, xi, np.array([0.5, -0.3]),
                               [200.0, 2000.0], h_values=(2e-3,))
    small = [r for r in out["table"] if r["R"] == 2000.0][0]
    assert small["r_c"] < 2e-3
    # and the matrix side contracts with slope -1 (algebra engine)
    res = [lorentz.poincare_residual(SpacetimeConfig(n=2), R)
           for R in (10.0, 100.0)]
    assert res[1] < res[0] / 5


# -------------------------------------------------------------- phase split


def test_gamma_phase_split_values():
    mu = 1.0
    sp = np.array([0.3, 0.0])
    xi = np.concatenate([[math.hypot(*sp, mu)], sp, [mu]])
    y = np.array([0.7, -0.4, 0.2])
    brackets = []
    for R in (100.0, 1000.0, 10000.0):
        br, g = gamma_phase_split(3, mu, xi, y, R)
        brackets.append(abs(br))
    assert brackets[1] < brackets[0] and brackets[2] < brackets[1]
    # y = 0 gives Gamma = 0
    _, g0 = gamma_phase_split(3, mu, xi, np.zeros(3), 100.0)
    assert_allclose(g0, 0.0, atol=1e-14)


def test_gamma_gradient_has_root_inside_cone():
    from scipy.optimize import brentq
    mu, y = 1.0, np.array([2.0, 1.0])
    root = brentq(lambda q: gamma_gradient_shell(mu, y, q), -5.0, 5.0)
    # stationary direction: q/e = y_1 / tau
    e = math.hypot(mu, root)
    assert_allclose(root / e, y[1] / y[0], rtol=1e-9)


# --------------------------------------------------------- appendix oracle


def test_bessel_pair_integral_vs_closed_form():
    # Weber-Schafheitlin continuation (closed Gamma-product expression)
    def closed(n, j, rho, k):
        s = 1 if k % 2 == 1 else -1
        A = mp.mpf(n + 2 * j)
        num = mp.gamma(-1j * rho) * mp.gamma((A + s) / 4 + 1j * rho / 2)
        den = (mp.gamma((-A + s) / 4 + 1 - 1j * rho / 2)
               * mp.gamma((A + s) / 4 - 1j * rho / 2)
               * mp.gamma((A - s) / 4 - 1j * rho / 2))
        return complex(2 ** (1j * rho) * num / den)

    for (n, j, k, rho) in [(2, 1, 1, 0.5), (3, 1, 0, 2.0), (4, 1, 0, 2.0)]:
        eps = np.geomspace(2e-3, 1.5e-1, 10)
        vals = np.array([bessel_pair_integral(n, j, k, rho, e) for e in eps])
        cols = []
        for m2 in range(4):
            cols.append(eps ** m2)
            cols.append(eps ** (m2 - 1j * rho))
        coef, *_ = np.linalg.lstsq(np.array(cols).T, vals, rcond=None)
        ref = closed(n, j, rho, k)
        assert abs(coef[0] - ref) / abs(ref) < 1e-6


@pytest.mark.parametrize("eps", [
    np.geomspace(2e-3, 1.5e-1, 10),
    np.array([0.07, 2e-3, 0.15, 0.011, 0.03]),
    np.array([0.4, 1.6, 3.0]),  # eps Y0 > 10: the tail's Gammas take the fraction
], ids=["default", "unsorted", "floor"])
def test_bessel_pair_integral_array_matches_scalar(eps):
    # one call for all eps equals one call per eps
    for (n, j, k, rho) in [(2, 0, 0, 1.0), (3, 1, 1, 0.5), (4, 2, 1, 2.0)]:
        scalar = [bessel_pair_integral(n, j, k, rho, float(e)) for e in eps]
        assert all(type(v) is complex for v in scalar)
        nested = bessel_pair_integral(n, j, k, rho, eps)
        assert nested.shape == eps.shape
        assert np.all(np.abs(nested - scalar) <= 1e-13 * np.abs(scalar))


def test_bessel_panels_built_once_per_order():
    # the panel nodes, weights and Bessel values come from a read-only
    # cache keyed by the order (eta, nu): a second call of one order reads
    # them and returns bitwise the first call's I(eps), whatever rho came
    # between; every order has its own entry, and the cache is bounded
    eps = np.geomspace(2e-3, 1.5e-1, 10)
    limits._bessel_panels.cache_clear()
    first = bessel_pair_integral(3, 1, 0, 0.7, eps)
    panels = limits._bessel_panels(1.5, -0.5)
    assert limits._bessel_panels.cache_info().currsize == 1
    bessel_pair_integral(3, 1, 0, 2.0, eps)
    assert np.array_equal(bessel_pair_integral(3, 1, 0, 0.7, eps), first)
    assert limits._bessel_panels(1.5, -0.5) is panels
    for arr in panels:
        assert arr.shape == panels[0].shape
        with pytest.raises(ValueError):
            arr[0] = 0.0
    bessel_pair_integral(3, 1, 1, 0.7, eps)
    other = limits._bessel_panels(1.5, 0.5)
    assert limits._bessel_panels.cache_info().currsize == 2
    assert other is not panels and not np.array_equal(other[3], panels[3])
    assert np.array_equal(other[0], panels[0])  # one Y0, one set of nodes
    # the panels end at the order's Hankel cut Y0
    y0 = limits._hankel_terms(1.5)[0]
    assert panels[0].max() < y0 and panels[0].max() > y0 - limits._PANEL_WIDTH
    maxsize = limits._bessel_panels.cache_info().maxsize
    assert maxsize == limits._PANEL_CACHE_ORDERS
    for eta in 0.5 * np.arange(maxsize + 2):
        limits._bessel_panels(float(eta), 0.5)
    assert limits._bessel_panels.cache_info().currsize == maxsize


def test_bessel_pair_integral_large_eps_vs_mpmath():
    # eps * y_split of 3.2 and 6: the e^{-eps y} factor of the series panel
    # must be summed in full, not cut after a fixed number of Taylor terms
    n, j, k, rho = 4, 2, 1, 2.0
    eta, nu = mp.mpf(n + 2 * j - 2) / 2, mp.mpf(1) / 2
    for eps in (1.6, 3.0):
        ref = complex(mp.quad(
            lambda y: (y ** (1j * rho) * mp.besselj(eta, y) * mp.besselj(nu, y)
                       * mp.exp(-eps * y)),
            [0, 0.5, 2] + [2 + 2 * i for i in range(1, int(40 / eps) // 2 + 2)]))
        got = bessel_pair_integral(n, j, k, rho, eps)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_bessel_pair_integral_rejects_underflowing_eps():
    bessel_pair_integral(3, 0, 1, 0.7, 350.0)
    with pytest.raises(AccuracyError, match="underflows"):
        bessel_pair_integral(3, 0, 1, 0.7, 351.0)


@pytest.mark.parametrize("eps", [0.0, np.nan, np.inf])
def test_bessel_pair_integral_rejects_zero_or_nonfinite_eps(eps):
    with pytest.raises(ValueError, match="positive and finite"):
        bessel_pair_integral(2, 0, 0, 1.0, eps)


def test_bessel_pair_integral_rejects_negative_eps():
    # a negative eps would truncate the integral of a growing integrand
    with pytest.raises(ValueError, match="positive and finite"):
        bessel_pair_integral(2, 0, 0, 1.0, -0.01)
    with pytest.raises(ValueError, match="positive and finite"):
        bessel_pair_integral(2, 0, 0, 1.0, np.array([0.01, -0.01]))


def test_appendix_oracle_rejects_zero_eps():
    with pytest.raises(ValueError, match="positive and finite"):
        appendix_d_oracle(2, 0, 0, 1.0,
                          eps_values=[0.0, *np.geomspace(2e-3, 1.5e-1, 9)])


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.5, 3.0, 9.0])
def test_hankel_terms_match_bessel_j(eta):
    # the kept terms reproduce J_eta past Y0 to the truncation target
    # (eta = 9 needs Y0 = 80; eta = 3/2 terminates)
    y0, b, est = limits._hankel_terms(eta)
    assert est <= limits._HANKEL_TOL and (est == 0.0) == (eta % 1 == 0.5)
    y = np.linspace(y0, 4 * y0, 301)
    # e^{iy} apart from the constant phase: y up to 4 Y0 rounds as an angle
    phase = np.exp(1j * y) * np.exp(-0.5j * math.pi * (eta + 0.5))
    series = ((1j ** np.arange(b.size)) * b) @ ((y0 / y) ** np.arange(b.size)[:, None])
    env = np.sqrt(2.0 / (math.pi * y))
    hankel = env * (phase * series).real
    assert np.max(np.abs(hankel - specfun.bessel_j(eta, y)) / env) <= 1e-14


@pytest.mark.parametrize("n,j,k", [(4, 0, 0), (3, 1, 1)],
                         ids=["eta=1", "eta=3/2"])
def test_hankel_tail_vs_gauss_panels(n, j, k):
    # the closed-form tail on [Y0, inf) against Gauss panels of bessel_j
    # out to 34/eps, where the damping is below 2e-15
    eps, rho = 0.15, 1.3
    eta, nu = 0.5 * (n + 2 * j - 2), 0.5 if k % 2 else -0.5
    y0, tail = limits._hankel_tail(eta, nu, rho, np.array([eps]))
    edges = np.arange(y0, 34.0 / eps + math.pi / 2, math.pi / 2)
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    yy = (half * x + 0.5 * (edges[1:] + edges[:-1])[:, None]).ravel()
    brute = np.sum((half * w).ravel() * yy ** (1j * rho) * np.exp(-eps * yy)
                   * specfun.bessel_j(eta, yy) * specfun.bessel_j(nu, yy))
    total = bessel_pair_integral(n, j, k, rho, eps)
    assert abs(tail[0] - brute) <= 1e-12 * abs(total)


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_bessel_pair_integral_rejects_nonpositive_rho(rho):
    # Gamma(i rho) of the eps^{-i rho} tail has its pole at rho = 0
    with pytest.raises(PoleError, match="rho > 0"):
        bessel_pair_integral(2, 0, 0, rho, 0.1)
    with pytest.raises(PoleError, match="rho > 0"):
        appendix_d_oracle(2, 0, 0, rho)


@pytest.mark.parametrize("n,j,k", [(1, 0, 0), (2, -1, 0), (2, 0, -1)])
def test_bessel_pair_integral_rejects_bad_sector(n, j, k):
    with pytest.raises(ValueError, match="n >= 2, j >= 0 and k >= 0"):
        bessel_pair_integral(n, j, k, 1.0, 0.1)
    with pytest.raises(ValueError, match="n >= 2, j >= 0 and k >= 0"):
        appendix_d_oracle(n, j, k, 1.0)


def test_bessel_pair_integral_order_beyond_hankel_reach():
    # eta = 60: the Hankel terms grow past the leading one up to Y0 = 640
    with pytest.raises(AccuracyError, match="Hankel"):
        bessel_pair_integral(2, 60, 0, 1.0, 0.1)


def test_parity_selector_in_bessel_order():
    # k even pairs with J_{-1/2}, k odd with J_{+1/2}: at small eps the two
    # integrals differ
    a = bessel_pair_integral(2, 0, 0, 1.0, 0.1)
    b = bessel_pair_integral(2, 0, 1, 1.0, 0.1)
    assert abs(a - b) > 1e-3


def test_sphere_fourier_identity_j0():
    # plane-wave expansion: int e^{-i w u.x} dOmega =
    # (2 pi)^{n/2} w^{-(n-2)/2} J_{(n-2)/2}(w), checked by quadrature
    from dswave.transform import SphereGrid
    for n, w in ((2, 3.7), (3, 2.2)):
        grid = SphereGrid.build(n, n_polar=40, n_azimuth=80)
        pts = grid.points()
        x0 = np.zeros(n)
        x0[-1] = 1.0
        val = np.sum(grid.weights * np.exp(-1j * w * pts @ x0))
        expect = ((2 * math.pi) ** (n / 2.0) * w ** (-(n - 2) / 2.0)
                  * specfun.bessel_j((n - 2) / 2.0, w))
        assert_allclose(val, expect, rtol=1e-8, atol=1e-10)


def test_appendix_oracle_matches_formula_sample():
    for (n, j, k, rho) in [(2, 0, 0, 1.0), (3, 1, 0, 0.5), (4, 0, 1, 2.0)]:
        oracle = appendix_d_oracle(n, j, k, rho)
        closed = specfun.d_abs(n, j, k, rho)
        assert abs(oracle - closed) / closed <= 1e-4


def _fit_basis(eps, rho):
    cols = []
    for m in range(4):
        cols.append(eps ** m)
        cols.append(eps ** (m - 1j * rho))
    return np.array(cols).T


def _extrapolate_per_mask(A, vals):
    """(c_0, spread) by one lstsq call per fit: the full fit and each fit
    without one row."""
    def solve(mask):
        coef, *_ = np.linalg.lstsq(A[mask], vals[mask], rcond=None)
        return coef[0]

    full = solve(np.ones(len(vals), dtype=bool))
    drops = []
    for i in range(len(vals)):
        mask = np.ones(len(vals), dtype=bool)
        mask[i] = False
        drops.append(solve(mask))
    return full, max(abs(d - full) for d in drops) / abs(full)


@pytest.mark.parametrize("n,j,k,rho", [(2, 0, 0, 1.0), (3, 1, 1, 0.5),
                                       (5, 2, 0, 2.7)])
def test_stacked_fit_matches_per_mask_lstsq(n, j, k, rho):
    eps = np.geomspace(2e-3, 1.5e-1, 10)
    A = _fit_basis(eps, rho)
    vals = bessel_pair_integral(n, j, k, rho, eps)
    full, spread = limits._extrapolate(A, vals)
    ref_full, ref_spread = _extrapolate_per_mask(A, vals)
    assert abs(full - ref_full) <= 1e-12 * abs(ref_full)
    # spread is already relative to |c_0|, and it is a difference of
    # nearly equal fits: compared absolutely
    assert abs(spread - ref_spread) <= 1e-12


def test_stacked_fit_rank_deficient():
    # 2 eps against 8 columns: every fit is underdetermined, and each
    # leave-one-out copy has rank 1; the minimum-norm solutions come back
    eps = np.array([0.1, 0.11])
    A = _fit_basis(eps, 1.0)
    vals = bessel_pair_integral(2, 0, 0, 1.0, eps)
    full, spread = limits._extrapolate(A, vals)
    ref_full, ref_spread = _extrapolate_per_mask(A, vals)
    assert abs(full - ref_full) <= 1e-12 * abs(ref_full)
    assert abs(spread - ref_spread) <= 1e-12 * ref_spread


def test_bessel_product_series_vs_gamma_form():
    # the running ratio against (-1)^m / (m! Gamma(order + m + 1)) per term
    for eta, nu in ((0.0, -0.5), (1.5, 0.5), (3.5, -0.5)):
        def coeffs(order):
            return np.array([(-1.0) ** m / (math.gamma(m + 1)
                                            * math.gamma(order + m + 1))
                             for m in range(24)])

        ref = np.convolve(coeffs(eta), coeffs(nu))[:24]
        assert_allclose(limits._bessel_product_series(eta, nu), ref,
                        rtol=1e-14, atol=0)


@pytest.mark.parametrize("n,j,k", [(2, 0, 0), (3, 1, 1), (5, 2, 0)])
def test_appendix_oracle_refuses_unresolved_rho(n, j, k):
    # the default eps grid turns eps^{-i rho} by 9.6 rad per step at rho =
    # 20, where |d| was 1.3e-4 to 1.4e-4 off with no error; at rho = 200
    # the Bessel panels hold 0.58 nodes per turn of y^{i rho}, whatever the
    # eps grid, and |d| was 9.6 % to 38 % off
    from dswave.errors import AccuracyError
    with pytest.raises(AccuracyError, match="per eps step"):
        appendix_d_oracle(n, j, k, 20.0)
    with pytest.raises(AccuracyError, match="nodes per turn"):
        appendix_d_oracle(n, j, k, 200.0)
    with pytest.raises(AccuracyError, match="nodes per turn"):
        bessel_pair_integral(n, j, k, 200.0, 0.1)


def test_appendix_oracle_rejects_unstable_fit():
    from dswave.errors import AccuracyError
    with pytest.raises(AccuracyError):
        appendix_d_oracle(2, 0, 0, 1.0, eps_values=[0.1, 0.11], fit_order=3)

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dswave import lorentz, planewave
from dswave.errors import (AccuracyError, ChartSingularError,
                           ComplementarySeriesError, OnSingularSurfaceError)
from dswave.geometry import (HyperChart, SpacetimeConfig, central_differences,
                             from_hyper, minkowski_dot, origin)
from dswave.planewave import (AmbientWave, HyperWave, asymptotic_leading,
                              connection_constants, dalembert_residual,
                              hyper_2f1_params, ode_variant_report, parity,
                              principal_mass, principal_mass_from_rho,
                              psi_ambient, psi_hyper, radial_ode_residual,
                              radial_profile)
from dswave.specfun import HarmonicIndex, hypersph_Y, norm_K


# --------------------------------------------------------- principal mass


def test_principal_mass_at_minimum():
    cfg = SpacetimeConfig(n=4, R=1.0)
    m = principal_mass(cfg, 1.5)
    assert_allclose(m.mu_prime, 0.0, atol=1e-12)
    assert_allclose(m.sigma, -1.5)


def test_principal_mass_generic():
    cfg = SpacetimeConfig(n=2, R=1.0)
    m = principal_mass(cfg, 1.0)
    assert_allclose(m.mu_prime, math.sqrt(3.0) / 2.0, rtol=1e-14)
    assert_allclose(m.sigma, complex(-0.5, math.sqrt(3.0) / 2.0))
    # -sigma (n - 1 + sigma) = mu^2 R^2
    assert_allclose(-m.sigma * (cfg.n - 1 + m.sigma), 1.0, atol=1e-14)


def test_principal_mass_below_threshold():
    cfg = SpacetimeConfig(n=3, R=2.0)
    with pytest.raises(ComplementarySeriesError):
        principal_mass(cfg, cfg.mu_min - 0.01)


@pytest.mark.parametrize("n,R,mu", [(2, 1.0, 0.8), (3, 2.0, 1.3), (5, 0.7, 3.4)])
def test_sigma_identity_property(n, R, mu):
    cfg = SpacetimeConfig(n=n, R=R)
    if mu < cfg.mu_min:
        mu = cfg.mu_min + 0.2
    m = principal_mass(cfg, mu)
    assert abs((mu * R) ** 2 + m.sigma * (n - 1 + m.sigma)) <= 1e-12 * (mu * R) ** 2


def test_principal_mass_from_rho_round_trip():
    cfg = SpacetimeConfig(n=3, R=1.5)
    m = principal_mass_from_rho(cfg, 1.2)
    assert_allclose(m.mu_prime, 1.2)
    m2 = principal_mass(cfg, m.mu)
    assert_allclose(m2.mu_prime, 1.2, rtol=1e-13)


# ----------------------------------------------------------- ambient wave


def test_psi_ambient_unit_at_origin():
    cfg = SpacetimeConfig(n=2, R=1.0)
    mass = principal_mass(cfg, 1.0)  # mu R = 1
    wave = AmbientWave((1.0, 0.0, 1.0), mass)
    assert_allclose(psi_ambient(wave, origin(cfg)), 1.0, atol=1e-14)


def test_psi_ambient_origin_general_mu():
    # x . xi = R at the origin, so Psi = mu^{sigma_re} e^{i mu' log(1/mu)}
    cfg = SpacetimeConfig(n=3, R=1.0)
    mu = 2.1
    mass = principal_mass(cfg, mu)
    wave = AmbientWave((1.0, 0.0, 0.0, 1.0), mass)
    val = psi_ambient(wave, origin(cfg))
    expect = np.exp(mass.sigma * np.log(1.0 / mu))
    assert_allclose(val, expect, rtol=1e-13)


def test_psi_ambient_negative_branch_modulus():
    cfg = SpacetimeConfig(n=3, R=1.0)
    mass = principal_mass(cfg, 1.7)
    wave = AmbientWave((1.0, 0.0, 0.0, 1.0), mass)
    x = from_hyper(cfg, HyperChart(0.4, (2.8,), 0.1))  # x.xi < 0 region
    s = minkowski_dot(x, np.array(wave.xi))
    assert s < 0
    val = psi_ambient(wave, x)
    expect = math.exp(-math.pi * mass.mu_prime) * abs(s / (mass.mu * cfg.R)) ** (-1.0)
    assert_allclose(abs(val), expect, rtol=1e-13)


def test_psi_ambient_positive_branch_modulus_exact():
    cfg = SpacetimeConfig(n=4, R=2.0)
    mass = principal_mass(cfg, 1.4)
    wave = AmbientWave((1.0, 0.0, 0.0, 0.0, 1.0), mass)
    rng = np.random.default_rng(2)
    for _ in range(10):
        ch = HyperChart(rng.normal(), tuple(rng.uniform(0.2, 1.2, 2)),
                        rng.uniform(0, 2 * np.pi))
        x = from_hyper(cfg, ch)
        s = minkowski_dot(x, np.array(wave.xi))
        if s <= 0:
            continue
        assert_allclose(abs(psi_ambient(wave, x)),
                        (abs(s) / (mass.mu * cfg.R)) ** (-1.5), rtol=1e-12)


def test_psi_ambient_singular_surface():
    cfg = SpacetimeConfig(n=2, R=1.0)
    mass = principal_mass(cfg, 1.0)
    wave = AmbientWave((1.0, 0.0, 1.0), mass)
    x = np.array([1.0, np.sqrt(2.0), 1.0])  # x.xi = -x0 + xn = 0
    with pytest.raises(OnSingularSurfaceError):
        psi_ambient(wave, x)


def test_psi_ambient_rotation_covariance():
    # pullback by a rotation equals the wave with rotated covector
    cfg = SpacetimeConfig(n=3, R=1.0)
    mass = principal_mass(cfg, 1.6)
    xi = np.array([1.0, 0.0, 0.0, 1.0])
    wave = AmbientWave(tuple(xi), mass)
    g = lorentz.rotation_k(cfg, 1, 3, 0.61)
    xi_rot = lorentz.act(cfg, g, xi)  # row action on the covector
    wave_rot = AmbientWave(tuple(xi_rot), mass)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = from_hyper(cfg, HyperChart(rng.normal(), (rng.uniform(0.3, 2.8),),
                                       rng.uniform(0, 2 * np.pi)))
        lhs = psi_ambient(wave, lorentz.act(cfg, g.T, x))
        rhs = psi_ambient(wave_rot, x)
        assert_allclose(lhs, rhs, rtol=1e-11)


def test_wave_constructor_validation():
    cfg = SpacetimeConfig(n=2, R=1.0)
    mass = principal_mass(cfg, 1.0)
    with pytest.raises(ValueError):
        AmbientWave((-1.0, 0.0, 1.0), mass)   # xi_0 < 0
    with pytest.raises(ValueError):
        AmbientWave((1.0, 0.5, 1.0), mass)    # not null


# --------------------------------------------------------- hyperbolic wave


def test_psi_hyper_beta_zero_values():
    idx = HarmonicIndex(3, 0, (1,))
    odd = HyperWave(1, 1.1, idx)
    even = HyperWave(2, 1.1, idx)
    ch = HyperChart(0.0, (0.9,), 0.4)
    assert psi_hyper(odd, ch) == 0.0   # tanh(0) factor
    Y = complex(hypersph_Y(idx, [0.9], 0.4))
    assert_allclose(psi_hyper(even, ch),
                    Y / math.sqrt(norm_K(2, 3, 1, 1.1)), rtol=1e-13)


def test_hyper_params_conjugation_switch():
    w = HyperWave(2, 0.9, HarmonicIndex(3, 0, (1,)))
    a, b, c = hyper_2f1_params(w)
    ap, bp, cp = hyper_2f1_params(w, mirror_params=True)
    assert a == np.conj(ap) and b == np.conj(bp) and c == cp
    # c - a - b = + i rho for the solution family
    assert_allclose(c - a - b, 1j * 0.9, atol=1e-14)


@pytest.mark.parametrize("n,rho,ls,m,alpha", [
    (2, 0.8, (), 1, 1), (2, 0.8, (), 1, 2),
    (3, 1.2, (1,), 0, 1), (3, 1.2, (1,), 0, 2),
    (4, 0.6, (0, 2), 0, 2),
])
def test_radial_ode_satisfied(n, rho, ls, m, alpha):
    wave = HyperWave(alpha, rho, HarmonicIndex(n, m, ls))
    grid = np.linspace(0.4, 1.6, 5)
    assert radial_ode_residual(wave, grid, h=1e-3, richardson=True) < 1e-6


def test_radial_ode_convergence_order():
    wave = HyperWave(2, 1.0, HarmonicIndex(3, 0, (1,)))
    grid = np.linspace(0.5, 1.5, 4)
    r1 = radial_ode_residual(wave, grid, h=4e-3)
    r2 = radial_ode_residual(wave, grid, h=2e-3)
    order = math.log2(r1 / r2)
    assert 1.8 < order < 2.2


def test_ode_variant_report_discriminates():
    rep = ode_variant_report(n=4, rho=0.8, ls=(0, 2), m=0)
    for alpha in (1, 2):
        assert rep[f"alpha{alpha}/solution/top"] < 1e-3
        assert rep[f"alpha{alpha}/solution/l1"] > 0.1
        assert rep[f"alpha{alpha}/mirror/top"] > 0.1
        assert rep[f"alpha{alpha}/mirror/l1"] > 0.1


def test_dalembert_residual_hyper():
    for n, ls, m in ((3, (2,), 1), (4, (1, 1), 0)):
        wave = HyperWave(2, 0.9, HarmonicIndex(n, m, ls))
        ch = HyperChart(0.7, tuple([1.1] * (n - 2)), 0.9)
        assert dalembert_residual(wave, ch, h=1e-3, richardson=True) < 1e-6
        r1 = dalembert_residual(wave, ch, h=4e-3)
        r2 = dalembert_residual(wave, ch, h=2e-3)
        assert 1.6 < math.log2(r1 / r2) < 2.4


def test_dalembert_angular_singularity_raises():
    wave = HyperWave(2, 0.9, HarmonicIndex(3, 0, (1,)))
    with pytest.raises(ValueError):
        dalembert_residual(wave, HyperChart(0.5, (0.0,), 0.0))
    # the stencil reaches phi_k +- h, so a polar angle within h of 0 or pi
    # raises too, where the residual of an exact solution would read 0.37
    # (phi_1 = 1e-3) or 3.7e3 (phi_1 = 1e-5)
    wave = HyperWave(2, 0.9, HarmonicIndex(3, 1, (2,)))
    for phi1 in (1e-3, 1e-5, np.pi - 5e-4):
        with pytest.raises(ChartSingularError):
            dalembert_residual(wave, HyperChart(0.7, (phi1,), 0.9), h=1e-3)
    assert dalembert_residual(wave, HyperChart(0.7, (1.1,), 0.9), h=1e-3) < 1e-4


def test_constant_function_not_eigen():
    # (box - mu^2) 1 = -mu^2: the separated operator on a constant
    n, rho = 3, 1.0
    mu2 = rho**2 + 1.0
    b, phi1 = 0.5, 1.0
    _, g, H = central_differences(lambda q: 1.0 + 0.0j, [b, phi1, 0.3], 1e-3)
    lap = (H[1, 1] + (n - 2) * (np.cos(phi1) / np.sin(phi1)) * g[1]
           + H[2, 2] / np.sin(phi1) ** 2)
    box = -H[0, 0] - (n - 1) * np.tanh(b) * g[0] + lap / np.cosh(b) ** 2
    assert abs(box - mu2 * 1.0) > 1.0  # nowhere near an eigenfunction


def test_parity_rule_and_reflection():
    idx0 = HarmonicIndex(3, 0, (0,))
    assert parity(HyperWave(2, 1.0, idx0)) == "even"
    assert parity(HyperWave(1, 1.0, idx0)) == "odd"
    assert parity(HyperWave(2, 1.0, HarmonicIndex(3, 0, (1,)))) == "odd"
    # literal function-level parity of the radial factors
    w_odd = HyperWave(1, 1.3, idx0)
    w_even = HyperWave(2, 1.3, idx0)
    for b in (0.3, 1.1):
        assert_allclose(radial_profile(w_odd, -b), -radial_profile(w_odd, b),
                        rtol=1e-12)
        assert_allclose(radial_profile(w_even, -b), radial_profile(w_even, b),
                        rtol=1e-12)


def _radial_profile_mp(wave, beta):
    """V(beta) with the 2F1 and the envelope in mpmath."""
    a, b, c = hyper_2f1_params(wave)
    pre = 2 * mp.tanh(beta) if wave.alpha == 1 else 1
    env = mp.cosh(beta) ** mp.mpc(-0.5 * (wave.n - 1), wave.rho)
    K = norm_K(wave.alpha, wave.n, wave.idx.top, wave.rho)
    return complex(pre * mp.hyp2f1(a, b, c, mp.tanh(beta) ** 2) * env / mp.sqrt(K))


def test_radial_profile_large_beta_vs_mpmath():
    # cosh(beta)^2 overflows near |beta| = 355; at 360 1 - tanh^2 needs
    # about 320 digits in mpmath
    with mp.workdps(340):
        for n in (2, 3):
            for alpha in (1, 2):
                wave = HyperWave(alpha, 1.3, HarmonicIndex(n, 1, (1,) * (n - 2)))
                for beta in (-360.0, 360.0):
                    ref = _radial_profile_mp(wave, mp.mpf(beta))
                    assert_allclose(complex(radial_profile(wave, beta)), ref,
                                    rtol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), l=st.integers(0, 8), alpha=st.sampled_from([1, 2]),
       rho=st.floats(0.1, 100.0), beta=st.floats(-30.0, 30.0))
def test_radial_profile_accurate_or_raises(n, l, alpha, rho, beta):
    # large rho at small beta defeats both 2F1 branches: the profile then
    # raises AccuracyError instead of returning a wrong value
    idx = HarmonicIndex(n, l, ()) if n == 2 else HarmonicIndex(n, 0, (l,) * (n - 2))
    wave = HyperWave(alpha, rho, idx)
    try:
        got = complex(radial_profile(wave, beta))
    except AccuracyError:
        return
    with mp.workdps(60):
        ref = _radial_profile_mp(wave, mp.mpf(beta))
    assert abs(got - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("rho", [800.0, 1600.0])
@pytest.mark.parametrize("beta", [0.1, 0.5])
def test_radial_profile_series_overflow_accurate_or_raises(rho, beta):
    # the direct-series coefficients of 2F1 overflow here: the profile is
    # within 1e-8 of mpmath or an AccuracyError that names the digits lost,
    # and no numpy warning escapes on the way
    wave = HyperWave(2, rho, HarmonicIndex(3, 0, (2,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = complex(radial_profile(wave, beta))
        except AccuracyError as err:
            assert "digits" in str(err)
            return
    with mp.workdps(60):
        ref = _radial_profile_mp(wave, mp.mpf(beta))
    assert abs(got - ref) <= 1e-8 * abs(ref)


def test_radial_profile_beyond_sech2_range_raises():
    wave = HyperWave(2, 1.3, HarmonicIndex(2, 1, ()))
    for beta in (372.0, -400.0, 800.0):
        with pytest.raises(AccuracyError):
            radial_profile(wave, np.array([0.5, beta]))


def test_connection_constants_conjugate_pair():
    for alpha in (1, 2):
        w = HyperWave(alpha, 1.1, HarmonicIndex(3, 1, (2,)))
        D1, D2 = connection_constants(w)
        assert_allclose(D1, np.conj(D2), rtol=1e-12)


def test_two_term_asymptotics():
    n, l, rho = 3, 1, 1.1
    w = HyperWave(2, rho, HarmonicIndex(n, 0, (l,)))
    D1, D2 = connection_constants(w)
    K = norm_K(2, n, l, rho)
    for beta in (3.0, 4.0, 5.0):
        V = complex(radial_profile(w, beta))
        pred = (np.cosh(beta) ** complex(-1, rho) * D1
                + np.cosh(beta) ** complex(-1, -rho) * D2) / math.sqrt(K)
        # agreement within a few sech^2 corrections
        assert abs(V - pred) / abs(V) < 6.0 / math.cosh(beta) ** 2


def test_asymptotic_leading_envelope_and_phase():
    n, rho = 3, 1.4
    w = HyperWave(2, rho, HarmonicIndex(n, 1, (1,)))
    # modulus decays like cosh^{-(n-1)/2}
    v1 = asymptotic_leading(w, 6.0, [0.8], 0.3)
    v2 = asymptotic_leading(w, 8.0, [0.8], 0.3)
    rate = -math.log(abs(v2) / abs(v1)) / 2.0
    assert_allclose(rate, 0.5 * (n - 1), rtol=1e-3)
    # forward-component phase advances like rho * beta + m * phi
    b1, b2 = 9.0, 9.4
    p1 = np.angle(asymptotic_leading(w, b1, [0.8], 0.3))
    p2 = np.angle(asymptotic_leading(w, b2, [0.8], 0.3))
    dph = (p2 - p1) % (2 * math.pi)
    assert_allclose(dph, (rho * (b2 - b1)) % (2 * math.pi), atol=5e-3)
    q1 = np.angle(asymptotic_leading(w, b1, [0.8], 0.3 + 0.2))
    assert_allclose((q1 - p1) % (2 * math.pi), (w.idx.m * 0.2) % (2 * math.pi),
                    atol=1e-10)


def test_asymptotic_leading_tracks_forward_component():
    # the fitted constant reproduces D1/sqrt(K) (window projection kills the
    # counter-rotating part)
    n, l, rho = 2, 1, 1.7
    w = HyperWave(2, rho, HarmonicIndex(n, l, ()))
    D1, _ = connection_constants(w)
    K = norm_K(2, n, l, rho)
    Y = complex(hypersph_Y(w.idx, [], 0.0))
    val = asymptotic_leading(w, 7.0, [], 0.0, beta0=8.0, window=6.0)
    pred = D1 / math.sqrt(K) * np.cosh(7.0) ** complex(-0.5, rho) * Y
    assert abs(val - pred) / abs(pred) < 2e-2


def test_norm_K_is_spectral_density_normalization():
    # K = 2 pi rho |D|^2 (even family) and 8 pi rho |D|^2 (odd family, whose
    # profile carries the extra factor 2 tanh): the continuum modes then
    # carry weight 2/rho, the density the transforms compensate with rho/2
    for n in (2, 3, 4):
        for l in (0, 1, 3):
            for rho in (0.6, 1.3, 2.4):
                idx = HarmonicIndex(n, l if n == 2 else 0,
                                    tuple([l] * (n - 2)) if n > 2 else ())
                _, D2e = connection_constants(HyperWave(2, rho, idx))
                _, D2o = connection_constants(HyperWave(1, rho, idx))
                assert_allclose(norm_K(2, n, idx.top, rho),
                                2 * np.pi * rho * abs(D2e) ** 2, rtol=1e-11)
                assert_allclose(norm_K(1, n, idx.top, rho),
                                8 * np.pi * rho * abs(D2o) ** 2, rtol=1e-11)

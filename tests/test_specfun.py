import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import loggamma as scipy_loggamma

from dswave import specfun
from dswave.errors import AccuracyError, PoleError, UnsupportedCaseError
from dswave.planewave import HyperWave, hyper_2f1_params
from dswave.specfun import (HarmonicIndex, assoc_legendre_P,
                            bessel_j, d_abs, gauss_2f1, gauss_2f1_array,
                            harmonic_indices, hypersph_Y, ln_gamma, norm_K)

mp.mp.dps = 30


# ------------------------------------------------------------- log Gamma


def test_ln_gamma_trivial():
    assert_allclose(ln_gamma(1.0), 0.0, atol=1e-14)
    assert_allclose(ln_gamma(2.0), 0.0, atol=1e-14)


def test_ln_gamma_pole():
    with pytest.raises(PoleError):
        ln_gamma(0.0)
    with pytest.raises(PoleError):
        ln_gamma(-3.0)
    # one pole anywhere in an array
    with pytest.raises(PoleError):
        ln_gamma(np.array([[0.5 + 1j, 2.0], [-3.0 + 0j, 1.5 - 2j]]))


def test_gamma_reflection_identities():
    # |Gamma(i rho)|^2 = pi / (rho sinh(pi rho)), |Gamma(1/2 + i rho)|^2 =
    # pi / cosh(pi rho): the two workhorse moduli
    for rho in (0.5, 1.0, 2.5):
        assert_allclose(np.exp(2.0 * ln_gamma(1j * rho).real),
                        math.pi / (rho * math.sinh(math.pi * rho)), rtol=1e-12)
        assert_allclose(np.exp(2.0 * ln_gamma(0.5 + 1j * rho).real),
                        math.pi / math.cosh(math.pi * rho), rtol=1e-12)


def test_gamma_reflection_duplication_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        z = complex(rng.uniform(0.1, 6.0), rng.uniform(-20.0, 20.0))
        # reflection
        lhs = np.exp(ln_gamma(z) + ln_gamma(1.0 - z))
        rhs = math.pi / np.sin(math.pi * z)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12
        # duplication
        lhs = np.exp(ln_gamma(2.0 * z))
        rhs = np.exp(ln_gamma(z) + ln_gamma(z + 0.5)
                     + (2.0 * z - 1.0) * np.log(2.0)) / math.sqrt(math.pi)
        assert abs(lhs - rhs) / abs(rhs) < 1e-11


def test_ln_gamma_vs_scipy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-25.0, 25.0))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        a, b = np.exp(ln_gamma(z)), np.exp(scipy_loggamma(z))
        assert abs(a - b) / abs(b) < 1e-12


def test_ln_gamma_array_vs_mpmath():
    # one broadcast call over the wide strip, the reflection half-plane near
    # the real axis and the negative real axis, where the principal branch
    # is the limit from above.  The error is the rounding of terms of size
    # |z log z|, so the bound is relative to max(1, |z log z|); within about
    # 0.05 of a pole the rounding of pi z grows as |z| / distance, so the
    # sample keeps out of those discs.
    rng = np.random.default_rng(5)
    z = np.concatenate([
        rng.uniform(-20.0, 20.0, 300) + 1j * rng.uniform(-2000.0, 2000.0, 300),
        rng.uniform(-20.0, 0.5, 150) + 1j * rng.uniform(-3.0, 3.0, 150),
        rng.uniform(-20.0, 0.5, 100) + 0j])
    z = z[np.abs(z - np.minimum(np.round(z.real), 0.0)) > 0.05][:500].reshape(-1, 2)
    got = ln_gamma(z)
    assert got.shape == z.shape
    ref = np.array([complex(mp.loggamma(mp.mpc(x.real, x.imag)))
                    for x in z.ravel()]).reshape(z.shape)
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(z * np.log(z)))
    assert err.max() < 1e-15


# --------------------------------------------------- upper incomplete Gamma


def test_gamma_upper_vs_mpmath():
    # the arguments of the |d| oracle's Hankel tail: s = i rho - m for every
    # kept term m of the orders eta = 0 .. 7/2, z = p Y0 with p = eps and
    # eps -+ 2i, over the default eps grid and the floor grid
    from dswave import limits
    y0 = limits._HANKEL_Y0
    m = np.arange(max(limits._hankel_terms(e)[1].size
                      for e in np.arange(0.0, 4.0, 0.5)))
    eps = np.concatenate([np.geomspace(2e-3, 1.5e-1, 10), [0.4, 1.6, 3.0]])
    z = np.concatenate([eps, eps - 2j, eps + 2j]) * y0
    for rho in (0.3, 1.0, 3.0):
        s = 1j * rho - m
        got = specfun.gamma_upper(s[:, None], z[None, :])
        assert got.shape == (m.size, z.size)
        for k, zk in enumerate(z):
            # mpmath's gammainc at m = 0, then down in m by the recurrence
            # Gamma(s, z) = (Gamma(s + 1, z) - z^s e^{-z}) / s (DLMF 8.8.2)
            # at 40 digits (the recurrence loses up to 13 of them at |z| = 80;
            # gammainc itself takes about 6 ms per complex-z call at m > 0)
            with mp.workdps(40):
                zm = mp.mpc(complex(zk))
                ref = mp.gammainc(mp.mpc(0, rho), zm)
                for i, si in enumerate(s):
                    if i:
                        sm = mp.mpc(complex(si))
                        ref = (ref - zm ** sm * mp.exp(-zm)) / sm
                    r = complex(ref)
                    assert abs(got[i, k] - r) <= 1e-12 * abs(r), (si, zk)


def test_gamma_upper_scalar_and_series_branch():
    # |z| < 1 takes the Kummer series, with Gamma(s) from ln_gamma
    for s, z in ((2.5, 0.3), (0.5j - 4.0, 0.5 - 0.5j), (1.0 + 2.0j, 1.5)):
        got = specfun.gamma_upper(s, z)
        assert isinstance(got, complex)
        ref = complex(mp.gammainc(s, z))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_gamma_lower_scaled_vs_mpmath():
    # z^{-s} gamma(s, z), the series panel of the |d| oracle: Re s from 1/2
    # to about 50, z = eps * y_split up to 700
    s = np.array([0.5 + 2.0j, 24.5 + 1.0j, 1.5 + 0.7j, 49.5 + 0.3j])
    z = np.array([1e-3, 6.0, 600.0, 700.0])
    got = specfun.gamma_lower_scaled(s[:, None], z[None, :])
    assert got.shape == (4, 4)
    for (i, k), g in np.ndenumerate(got):
        ref = complex(mp.mpf(z[k]) ** (-mp.mpc(s[i])) * mp.gammainc(s[i], 0, z[k]))
        assert abs(g - ref) <= 1e-12 * abs(ref), (s[i], z[k])


@pytest.mark.parametrize("z", [0.0, -1.5])
def test_gamma_upper_rejects_branch_cut(z):
    with pytest.raises(UnsupportedCaseError, match="branch cut"):
        specfun.gamma_upper(0.5j, z)
    with pytest.raises(UnsupportedCaseError, match="branch cut"):
        specfun.gamma_upper(np.array([0.5j, 1.0j]), np.array([2.0, z]))


# ------------------------------------------------------------------ 2F1


def test_2f1_at_zero_and_closed_form():
    assert gauss_2f1(0.3 + 0.2j, -1.1, 0.7, 0.0) == 1.0
    v = 0.5
    assert_allclose(gauss_2f1(1.0, 1.0, 2.0, v), -np.log(1 - v) / v, rtol=1e-12)


def _branches(a, b, c, v):
    """2F1(a, b; c; v) by the direct series and by the connection formula
    in 1 - v, each forced whatever v is."""
    p = [np.array([x], dtype=complex) for x in (a, b, c)]
    series = specfun._series_2f1_array(*p, np.array([v]))[0][0, 0]
    return series, specfun._connection_2f1(*p, np.array([1.0 - v]))[0][0, 0]


def test_2f1_branch_agreement_principal_series():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rho = rng.uniform(0.3, 3.0)
        l = int(rng.integers(0, 5))
        n = int(rng.integers(2, 6))
        a = complex(l + 0.5 * (n - 1), -rho) / 2
        b = complex(-l - 0.5 * (n - 3), -rho) / 2
        for c in (0.5, 1.5):
            v = 0.5
            f_series, f_conn = _branches(a, b, c, v)
            assert abs(f_series - f_conn) / abs(f_series) < 1e-10


def test_2f1_against_mpmath_both_branches():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        rho = rng.uniform(0.3, 2.5)
        a = complex(rng.uniform(0.2, 3.0), -rho / 2)
        b = complex(rng.uniform(-2.0, 0.5), -rho / 2)
        c = 0.5 + rng.integers(0, 2)
        for v in (0.1, 0.45, 0.55, 0.9, 0.99):
            mine = gauss_2f1(a, b, c, v)
            ref = complex(mp.hyp2f1(a, b, c, v))
            worst = max(worst, abs(mine - ref) / abs(ref))
    assert worst < 1e-11


def test_2f1_degenerate_case_raises():
    with pytest.raises(UnsupportedCaseError):
        gauss_2f1(0.5, 0.5, 2.0, 0.9)  # c - a - b = 1, integer
    with pytest.raises(PoleError):
        gauss_2f1(0.5, 0.5, -1.0, 0.2)


def test_2f1_array_matches_scalar():
    # gauss_2f1 is a one-point call of the array kernel, so the reference
    # is mpmath
    a, b, c = 0.75 - 0.4j, -0.25 - 0.4j, 0.5
    vs = np.array([0.0, 0.2, 0.5, 0.8, 0.999])
    arr = gauss_2f1_array(a, b, c, vs)
    for v, got in zip(vs, arr):
        assert_allclose(got, complex(mp.hyp2f1(a, b, c, float(v))), rtol=1e-12)


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_2f1_array_pole_raises(c):
    with pytest.raises(PoleError):
        gauss_2f1_array(0.5, 0.5, c, np.array([0.2, 0.7]))


def _principal_params(n, l, rho, alpha):
    """(a, b, c) of the hyperbolic wave with top label l."""
    idx = HarmonicIndex(n, l, ()) if n == 2 else HarmonicIndex(n, 0, (l,) * (n - 2))
    return hyper_2f1_params(HyperWave(alpha, rho, idx))


def test_2f1_array_parameter_sets_match_scalar_calls():
    # P parameter sets against V points, both branches, one call
    sets = [_principal_params(n, l, rho, alpha)
            for n, l, rho, alpha in [(2, 0, 0.4, 1), (2, 2, 1.7, 2),
                                     (3, 1, 3.1, 1), (4, 4, 6.0, 2)]]
    sets.append((0.3 + 0.2j, -1.1, 0.7))
    a, b, c = (np.array(x) for x in zip(*sets))
    vs = np.array([0.0, 0.05, 0.3, 0.5, 0.62, 0.9, 0.999])
    got = gauss_2f1_array(a, b, c, vs)
    assert got.shape == (len(sets), vs.size)
    for p, (ap, bp, cp) in enumerate(sets):
        for j, v in enumerate(vs):
            assert_allclose(got[p, j], gauss_2f1(ap, bp, cp, v), rtol=1e-13)
    # a (2, 3) block of parameter sets keeps its shape ahead of v's
    grid = gauss_2f1_array(a[:3, None], b[:3, None], c[:3, None] * np.ones(2),
                           vs.reshape(7, 1))
    assert grid.shape == (3, 2, 7, 1)


def test_2f1_array_one_bad_parameter_set_raises():
    a = np.array([0.75 - 0.4j, 0.5, 1.25 - 0.1j])
    b = np.array([-0.25 - 0.4j, 0.5, -0.5 - 0.1j])
    with pytest.raises(PoleError):
        gauss_2f1_array(a, b, np.array([0.5, -2.0, 1.5]), np.array([0.2]))
    # c - a - b = 1 in the middle set: only the connection branch needs it
    c = np.array([0.5, 2.0, 1.5])
    gauss_2f1_array(a, b, c, np.array([0.2, 0.4]))
    with pytest.raises(UnsupportedCaseError):
        gauss_2f1_array(a, b, c, np.array([0.2, 0.9]))


_GUARD_CASES = [(alpha, rho, float(np.tanh(beta) ** 2))
                for alpha in (1, 2) for rho in (20.0, 40.0, 60.0, 100.0)
                for beta in (0.6, 0.88, 1.5)] + [(1, 50.0, 0.5), (2, 50.0, 0.5)]


@pytest.mark.parametrize("alpha,rho,v", _GUARD_CASES)
def test_2f1_large_rho_accurate_or_raises(alpha, rho, v):
    # the direct series loses up to 34 digits here (n = 3, l = 2); each
    # value is either within 1e-8 of mpmath or an AccuracyError
    a, b, c = _principal_params(3, 2, rho, alpha)
    try:
        got = gauss_2f1(a, b, c, v)
    except AccuracyError:
        return
    with mp.workdps(60):
        ref = complex(mp.hyp2f1(a, b, c, mp.mpf(v)))
    assert abs(got - ref) <= 1e-8 * abs(ref)


def test_2f1_large_rho_guard_reroutes_and_raises():
    # rho = 40: the direct series loses 13.6 digits at v = 0.5 and the
    # connection formula about 2; rho = 100 at small v loses too much on
    # either branch
    a, b, c = _principal_params(3, 2, 40.0, 1)
    series, mass = specfun._series_2f1_array(a, b, c, np.array([0.5]))
    assert np.log10(mass / np.abs(series))[0, 0] > 13.0
    val, lost = specfun._gauss_2f1(a, b, c, np.array([0.5]))
    assert lost[0] < 3.0
    assert_allclose(val[0], _branches(a, b, c, 0.5)[1], rtol=1e-13)
    a, b, c = _principal_params(3, 2, 100.0, 2)
    with pytest.raises(AccuracyError, match="digits"):
        gauss_2f1(a, b, c, 0.3)


def test_2f1_criterion5_branches_not_rerouted():
    # criterion 5 compares the direct series against the connection formula
    # at v = 0.5 for rho <= 2: v = 0.5 lies on the direct branch, and the
    # guard must leave the direct value as the plain series sum
    for n in (2, 3, 4):
        for l in (0, 2, 4):
            for rho in (0.5, 1.0, 2.0):
                for alpha in (1, 2):
                    a, b, c = _principal_params(n, l, rho, alpha)
                    series, conn = _branches(a, b, c, 0.5)
                    assert gauss_2f1(a, b, c, 0.5) == series
                    assert conn != series


# --------------------------------------------------------------- Legendre


def test_assoc_legendre_trivial():
    assert_allclose(assoc_legendre_P(0.0, 0.0, 0.3), 1.0, rtol=1e-13)
    assert_allclose(assoc_legendre_P(1.0, 0.0, 0.3), 0.3, rtol=1e-13)


def test_assoc_legendre_vs_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(25):
        deg = rng.uniform(0.0, 4.0)
        order = rng.uniform(-2.0, 2.0)
        u = rng.uniform(-0.85, 0.9)
        mine = assoc_legendre_P(deg, order, u)
        ref = float(mp.re(mp.legenp(deg, order, u)))
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_assoc_legendre_integer_orders_vs_mpmath():
    # integer orders run the regularized 2F1 through its c = 1 - m limit
    for order in (1.0, 2.0, 3.0):
        for deg in (0.5, 3.0, 3.7):
            for u in (-0.6, 0.25, 0.8):
                mine = assoc_legendre_P(deg, order, u)
                ref = float(mp.re(mp.legenp(deg, order, u)))
                assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_assoc_legendre_recurrence():
    # (nu - mu + 1) P_{nu+1} = (2 nu + 1) u P_nu - (nu + mu) P_{nu-1}
    rng = np.random.default_rng(9)
    for _ in range(20):
        nu = rng.uniform(1.0, 4.0)
        mu = rng.uniform(-1.5, 1.5)
        u = rng.uniform(-0.8, 0.8)
        lhs = (nu - mu + 1.0) * assoc_legendre_P(nu + 1.0, mu, u)
        rhs = ((2 * nu + 1.0) * u * assoc_legendre_P(nu, mu, u)
               - (nu + mu) * assoc_legendre_P(nu - 1.0, mu, u))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_assoc_legendre_domain():
    with pytest.raises(ValueError):
        assoc_legendre_P(1.0, 0.5, 1.0)


# ------------------------------------------------------------ Gauss rules


def _gauss_rule_mp(n, a, x0):
    """Nodes and weights at the nodes x0 >= 0 of the n-point rule for
    (1 - x^2)^a, to 40 digits: one Newton step on mpmath's Gegenbauer
    polynomial from x0, then the Christoffel weights scaled to the total
    integral of the weight."""
    with mp.workdps(40):
        lam = mp.mpf(a) + mp.mpf(1) / 2
        xs, ws = [], []
        for x in x0:
            t = mp.mpf(float(x))
            if t != 0:  # the middle node of an odd rule is exactly 0
                t -= (mp.gegenbauer(n, lam, t, zeroprec=1000)
                      / (2 * lam * mp.gegenbauer(n - 1, lam + 1, t)))
            slope = 2 * lam * mp.gegenbauer(n - 1, lam + 1, t)
            xs.append(t)
            ws.append(1 / ((1 - t * t) * slope * slope))
        total = mp.sqrt(mp.pi) * mp.gamma(a + 1) / mp.gamma(a + mp.mpf(3) / 2)
        mass = 2 * mp.fsum(ws) - mp.fsum(w for t, w in zip(xs, ws) if t == 0)
        return (np.array([float(t) for t in xs]),
                np.array([float(w * total / mass) for w in ws]))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 25, 48, 128])
def test_gauss_rule_vs_mpmath(n):
    for a in (0.0, 0.5, 1.0, 1.5, 2.0):
        x, w = specfun.gauss_rule(n, a)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        half = x >= 0
        x_ref, w_ref = _gauss_rule_mp(n, a, x[half])
        assert np.max(np.abs(x[half] - x_ref)) <= 4e-16
        assert np.max(np.abs(w[half] / w_ref - 1.0)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 64), a=st.floats(0.0, 2.5))
def test_gauss_rule_even_moments(n, a):
    # sum w x^{2k} = int_{-1}^{1} x^{2k} (1 - x^2)^a dx = B(k + 1/2, a + 1),
    # exact up to degree 2n - 1
    x, w = specfun.gauss_rule(n, a)
    for k in range(n):
        ref = float(mp.beta(k + 0.5, a + 1.0))
        assert abs(np.sum(w * x ** (2 * k)) / ref - 1.0) <= 1e-13


def test_gauss_rule_guards():
    for n, a in ((0, 0.0), (-3, 1.0), (4, -0.5)):
        with pytest.raises(ValueError):
            specfun.gauss_rule(n, a)
    # far from the tested range Newton lands on repeated zeros
    with pytest.raises(AccuracyError):
        specfun.gauss_rule(16, 5.0)


def test_gauss_panels_exact_per_interval():
    edges = [0.0, 1.0, 2.5, 3.0]
    y, wy = specfun.gauss_panels(edges, 3)
    assert y.shape == wy.shape == (9,)
    assert np.all(np.diff(y) > 0)
    assert_allclose(np.sum(wy * y ** 5), 3.0 ** 6 / 6.0, rtol=1e-14)
    assert_allclose(wy[3:6].sum(), 1.5, rtol=1e-15)


# -------------------------------------------------------------- harmonics


@pytest.mark.parametrize("n,l_max,tol", [(2, 4, 1e-12), (3, 4, 1e-8), (4, 3, 1e-8)])
def test_harmonic_orthonormality(n, l_max, tol):
    from dswave.transform import SphereGrid
    grid = SphereGrid.build(n, n_polar=22, n_azimuth=2 * l_max + 12)
    idxs = harmonic_indices(n, l_max)
    G = np.stack([hypersph_Y(i, grid.phis, grid.phi) for i in idxs])
    M = (G * grid.weights) @ np.conj(G.T)
    assert np.max(np.abs(M - np.eye(len(idxs)))) < tol


def test_harmonic_n2_reduces_to_circle_modes():
    idx = HarmonicIndex(2, 3, ())
    phi = np.array([0.0, 0.9, 2.5])
    assert_allclose(hypersph_Y(idx, [], phi),
                    np.exp(3j * phi) / np.sqrt(2 * np.pi), rtol=1e-13)


def test_harmonic_n3_dipole():
    idx = HarmonicIndex(3, 0, (1,))
    th = 0.7
    assert_allclose(complex(hypersph_Y(idx, [th], 0.0)),
                    math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(th), rtol=1e-12)


def test_harmonic_n3_matches_classical_modulus():
    from scipy.special import sph_harm_y
    idx = HarmonicIndex(3, 2, (3,))
    th, ph = 0.8, 1.3
    mine = complex(hypersph_Y(idx, [th], ph))
    ref = complex(sph_harm_y(3, 2, th, ph))
    assert_allclose(abs(mine), abs(ref), rtol=1e-12)


def test_harmonic_matches_legendre_product_form():
    # same function as the associated-Legendre product, up to one constant:
    # check the ratio is angle-independent at n = 4.  The half-integer
    # blocks must use the pole-regular order branch -(l_{q-1} + (q-1)/2)
    # (the positive-order Ferrers function is a second, non-normalizable
    # solution when the order is not an integer).
    idx = HarmonicIndex(4, 1, (1, 2))
    ratios = []
    for (p1, p2, ph) in [(0.6, 1.0, 0.3), (1.2, 0.7, 2.0), (2.1, 1.9, 4.0)]:
        mine = complex(hypersph_Y(idx, [p1, p2], ph))
        # chain: q=1 pairs (l_1, m) on the innermost polar angle (here p2),
        # q=2 pairs (l_2, l_1) with the half-integer shift on p1
        prod = (assoc_legendre_P(1.0, 1.0, math.cos(p2))
                * math.sin(p1) ** (-0.5)
                * assoc_legendre_P(2.5, -1.5, math.cos(p1))
                * np.exp(1j * ph))
        ratios.append(mine / prod)
    assert_allclose(ratios[0], ratios[1], rtol=1e-9)
    assert_allclose(ratios[0], ratios[2], rtol=1e-9)


def test_harmonic_laplacian_eigenvalue_fd():
    # FD sphere Laplacian residual falls at O(h^2)
    from dswave.geometry import central_differences
    idx = HarmonicIndex(3, 1, (2,))
    lam = specfun.sphere_laplacian_eigenvalue(idx)
    p1, phi = 0.9, 0.7

    def F(q):
        return complex(hypersph_Y(idx, q[:1], q[1]))

    errs = []
    for h in (2e-3, 1e-3):
        val, g, H = central_differences(F, [p1, phi], h)
        lap = H[0, 0] + (np.cos(p1) / np.sin(p1)) * g[0] + H[1, 1] / np.sin(p1) ** 2
        errs.append(abs(lap - lam * val))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 < order < 2.2


def test_harmonic_index_validation():
    with pytest.raises(ValueError):
        HarmonicIndex(3, 2, (1,))      # |m| > l_1
    with pytest.raises(ValueError):
        HarmonicIndex(4, 0, (2, 1))    # decreasing chain
    with pytest.raises(ValueError):
        HarmonicIndex(3, 0, ())        # wrong chain length


def test_harmonic_indices_enumeration():
    idxs = harmonic_indices(2, 3)
    assert len(idxs) == 7            # m in -3..3
    idxs = harmonic_indices(3, 2)
    assert len(idxs) == 9            # (l, m): l <= 2


# ----------------------------------------------------------------- Bessel


def test_bessel_half_integer_closed_forms():
    # J_{+-1/2} are evaluated in closed form, so the reference is mpmath
    for x in (0.5, 1.0, 7.3, 1e3, 1.7e4):
        envelope = math.sqrt(2.0 / (math.pi * x))
        for nu in (-0.5, 0.5):
            ref = float(mp.besselj(nu, x))
            got = bessel_j(nu, x)
            assert abs(got - ref) <= 1e-14 * envelope
            if x < 10.0:
                assert_allclose(got, ref, rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bessel_j(0.5, 0.0) == 0.0
        assert bessel_j(-0.5, 0.0) == np.inf
        at_zero = np.array([0.0, 1.0])
        plus, minus = bessel_j(0.5, at_zero), bessel_j(-0.5, at_zero)
    assert plus[0] == 0.0 and minus[0] == np.inf
    assert not np.isnan(plus).any() and not np.isnan(minus).any()
    assert bessel_j(1.5, 0.0) == 0.0


def test_bessel_ode_residual():
    rng = np.random.default_rng(12)
    h = 1e-4
    for _ in range(10):
        nu = rng.uniform(0.0, 4.0)
        x = rng.uniform(0.5, 40.0)
        d2 = (bessel_j(nu, x + h) - 2 * bessel_j(nu, x) + bessel_j(nu, x - h)) / h**2
        d1 = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2 * h)
        res = x**2 * d2 + x * d1 + (x**2 - nu**2) * bessel_j(nu, x)
        assert abs(res) < 1e-6 * max(1.0, x**2)


def test_bessel_domain_checks():
    with pytest.raises(ValueError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)


# --------------------------------------------------- normalization factors


def test_norm_K_positive():
    for n in (2, 3, 4, 5):
        for l in (0, 1, 3):
            for rho in (0.4, 1.0, 2.7):
                assert norm_K(1, n, l, rho) > 0
                assert norm_K(2, n, l, rho) > 0


def test_norm_K_pole_and_args():
    with pytest.raises(PoleError):
        norm_K(1, 3, 0, 0.0)
    with pytest.raises(PoleError):
        norm_K(2, 3, np.arange(2), np.array([[0.7], [0.0]]))
    with pytest.raises(ValueError):
        norm_K(3, 3, 0, 1.0)


def test_norm_K_product_structure():
    # K1 * K2 = pi^2 (cosh^2 - cos^2((n-1)pi/2)) / sinh^2: the Gamma-ratio
    # moduli cancel in the product
    for n in (2, 3, 4):
        for l in (0, 2):
            for rho in (0.7, 1.8):
                prod = norm_K(1, n, l, rho) * norm_K(2, n, l, rho)
                expect = (math.pi**2
                          * (math.cosh(math.pi * rho) ** 2
                             - math.cos((n - 1) * math.pi / 2.0) ** 2)
                          / math.sinh(math.pi * rho) ** 2)
                assert_allclose(prod, expect, rtol=1e-11)


def test_norm_K_n3_half_angle_branches():
    # at n = 3 the parity factor reduces to coth/tanh of pi rho / 2
    rho = 1.1
    for l in (0, 1):
        g_lo = np.exp(2.0 * ln_gamma(0.5 * (1j * rho + l + 1.0)).real)
        g_hi = np.exp(2.0 * ln_gamma(0.5 * (1j * rho + l + 2.0)).real)
        sign = (-1.0) ** l
        # cos((n-1)pi/2) = -1 at n = 3
        branch = (math.cosh(math.pi * rho) + sign) / math.sinh(math.pi * rho)
        if sign > 0:
            expect = 1.0 / math.tanh(math.pi * rho / 2.0)
        else:
            expect = math.tanh(math.pi * rho / 2.0)
        assert_allclose(branch, expect, rtol=1e-12)
        assert_allclose(norm_K(1, 3, l, rho),
                        math.pi * branch * g_lo / g_hi, rtol=1e-12)


@pytest.mark.parametrize("rho", [300.0, 500.0])
def test_norm_K_large_rho_vs_mpmath(rho):
    # each Gamma modulus and cosh(pi rho) leave the float range here
    r = mp.mpf(rho)
    for n in (2, 3):
        for l in (0, 1):
            c = (-1) ** l * mp.cos((n - 1) * mp.pi / 2)
            ratio = (abs(mp.gamma((1j * r + l + mp.mpf(n - 1) / 2) / 2)) ** 2
                     / abs(mp.gamma((1j * r + l + mp.mpf(n + 1) / 2) / 2)) ** 2)
            k1 = mp.pi * (mp.cosh(mp.pi * r) - c) * ratio / mp.sinh(mp.pi * r)
            k2 = mp.pi * (mp.cosh(mp.pi * r) + c) / (ratio * mp.sinh(mp.pi * r))
            assert_allclose(norm_K(1, n, l, rho), float(k1), rtol=1e-11)
            assert_allclose(norm_K(2, n, l, rho), float(k2), rtol=1e-11)


# ------------------------------------------------------------------ |d|


def test_d_abs_worked_value():
    # n = 2: (2 pi)^{-3/2} sqrt(tanh pi) pi sqrt(2 (1 + tanh pi)), the
    # appendix-consistent even-n branch (see the oracle test in limits)
    val = d_abs(2, 0, 0, 1.0)
    expect = ((2 * math.pi) ** (-1.5) * math.sqrt(math.tanh(math.pi))
              * math.pi * math.sqrt(2.0 * (1.0 + math.tanh(math.pi))))
    assert_allclose(val, expect, rtol=1e-12)
    assert_allclose(val, 0.3978266, rtol=1e-6)


def test_d_abs_positive_and_case_selector():
    for rho in (0.3, 1.0, 4.0):
        assert d_abs(2, 0, 0, rho) > 0
        assert d_abs(3, 1, 0, rho) > 0
    # even n: independent of j, k
    assert d_abs(4, 0, 0, 1.3) == d_abs(4, 1, 0, 1.3) == d_abs(4, 5, 3, 1.3)
    # odd n: depends on (j - k) mod 2
    assert d_abs(3, 0, 0, 1.3) != d_abs(3, 1, 0, 1.3)
    assert d_abs(3, 0, 0, 1.3) == d_abs(3, 1, 1, 1.3)


def test_d_abs_pole():
    with pytest.raises(PoleError):
        d_abs(2, 0, 0, 0.0)
    with pytest.raises(PoleError):
        d_abs(3, 1, 0, np.array([0.4, 0.0, 2.0]))


def test_gamma_products_broadcast_match_one_element_calls():
    # norm_K over (l, rho), d_abs over rho and connection_gammas over
    # parameter sets, each one array call, against their one-element calls
    rho = np.array([0.05, 0.7, 1.3, 25.0, 400.0])
    ls = np.arange(4)[:, None]
    for alpha in (1, 2):
        for n in (2, 3, 4):
            K = norm_K(alpha, n, ls, rho)
            assert K.shape == (4, rho.size)
            one = [[norm_K(alpha, n, int(l), float(r)) for r in rho] for l in ls[:, 0]]
            assert_allclose(K, one, rtol=1e-15, atol=0.0)
    for n, j, k in ((2, 0, 0), (3, 0, 0), (3, 1, 0), (4, 1, 0)):
        assert_allclose(d_abs(n, j, k, rho), [d_abs(n, j, k, float(r)) for r in rho],
                        rtol=1e-15, atol=0.0)
    sets = [_principal_params(n, l, float(r), alpha) for n in (2, 3)
            for l in (0, 2) for r in rho for alpha in (1, 2)]
    g1, g2 = specfun.connection_gammas(*(np.array(x) for x in zip(*sets)))
    one = np.array([specfun.connection_gammas(*p) for p in sets])
    assert_allclose(g1, one[:, 0], rtol=1e-15, atol=0.0)
    assert_allclose(g2, one[:, 1], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rho", [300.0, 500.0])
def test_d_abs_large_rho_vs_mpmath(rho):
    # |Gamma(-i rho)|^2 underflows here
    r = mp.mpf(rho)
    for n, j, k in ((2, 0, 0), (3, 0, 0), (3, 1, 0), (4, 0, 0)):
        base = ((2 * mp.pi) ** (-mp.mpf(n + 1) / 2)
                * abs(mp.gamma(mp.mpf(n - 1) / 2 + 1j * r)) / abs(mp.gamma(-1j * r)))
        if n % 2 == 0:
            factor = mp.pi * mp.sqrt(2 * (1 + mp.tanh(mp.pi * r)))
        elif (n - 1 + 2 * (j - k)) % 4 == 0:
            factor = mp.pi * (1 + mp.tanh(mp.pi * r / 2))
        else:
            factor = mp.pi * (1 + mp.coth(mp.pi * r / 2))
        assert_allclose(d_abs(n, j, k, rho), float(base * factor), rtol=1e-11)

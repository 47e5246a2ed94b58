import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_legendre

from dswave import specfun, transform
from dswave.errors import PoleError, UnsupportedCaseError
from dswave.geometry import HyperChart, SpacetimeConfig, from_hyper
from dswave.planewave import (HyperWave, _two_branch,
                              dalembert_horo_residual, principal_mass,
                              psi_hyper, radial_profile, radial_table)
from dswave.specfun import HarmonicIndex, hypersph_Y
from dswave.transform import (AbsoluteProfile, ConeFunction, ConeGrid,
                              ConeSpectrum, HyperCoeffs, QuadratureGrid,
                              WavepacketSpec, cone_fourier_forward,
                              cone_fourier_inverse, fourier_hyper_forward,
                              fourier_hyper_inverse, intertwiner_symbol,
                              mellin_forward, mellin_inverse,
                              wavepacket_ambient, wavepacket_hyper)
from dswave.transform import _intertwiner_eigs


# -------------------------------------------------------------- profiles


def test_profile_support_and_smoothness():
    prof = AbsoluteProfile((0.0, 0.0, 1.0), 0.4)
    # value 1 at the center, 0 outside the cap
    assert_allclose(prof.value(np.array([0.0, 0.0, 1.0])), 1.0)
    v = prof.value(np.array([[0.0, np.sin(0.5), np.cos(0.5)],
                             [0.0, np.sin(0.39), np.cos(0.39)]]))
    assert v[0] == 0.0 and v[1] > 0.0
    with pytest.raises(ValueError):
        AbsoluteProfile((0.0, 0.0, 2.0), 0.4)
    with pytest.raises(ValueError):
        AbsoluteProfile((0.0, 0.0, 1.0), 4.0)


# ------------------------------------------------------------ wavepackets


def _simple_spec(n=3, mu=1.6, delta=0.35, amplitude=1.0):
    cfg = SpacetimeConfig(n=n, R=1.0)
    mass = principal_mass(cfg, mu)
    center = np.zeros(n)
    center[-1] = 1.0
    prof = AbsoluteProfile(tuple(center), delta, amplitude=amplitude)
    return WavepacketSpec(prof, mass, n_theta=14, n_sub_polar=8,
                          n_sub_azimuth=16)


def test_wavepacket_zero_profile():
    spec = _simple_spec(amplitude=0.0)
    x = from_hyper(SpacetimeConfig(n=3), HyperChart(0.7, (1.0,), 0.4))
    assert wavepacket_ambient(spec, x) == 0.0


def test_wavepacket_linearity():
    s1 = _simple_spec(amplitude=1.0)
    s3 = _simple_spec(amplitude=3.0)
    x = from_hyper(SpacetimeConfig(n=3), HyperChart(0.4, (0.9,), 1.2))
    assert_allclose(wavepacket_ambient(s3, x), 3.0 * wavepacket_ambient(s1, x),
                    rtol=1e-13)


def test_wavepacket_small_support_limit():
    # profile concentrated at xi' approximates |d|^2 (int fhat) Psi(x, xi');
    # the evaluation point keeps x.xi well away from the singular surface
    # over the whole cap
    from dswave.planewave import AmbientWave, psi_ambient
    n = 3
    cfg = SpacetimeConfig(n=n)
    mass = principal_mass(cfg, 1.6)
    x = from_hyper(cfg, HyperChart(-0.5, (0.4,), 0.7))
    center = np.zeros(n)
    center[-1] = 1.0
    xi_c = np.concatenate([[1.0], center])
    vals = []
    for delta in (0.1, 0.05, 0.025):
        prof = AbsoluteProfile(tuple(center), delta)
        spec = WavepacketSpec(prof, mass, n_theta=18, n_sub_polar=10,
                              n_sub_azimuth=20)
        xi, w = spec.cap_nodes()
        massfhat = float(w @ prof.value(xi[:, 1:]))
        d2 = specfun.d_abs(n, 0, 0, mass.mu_prime) ** 2
        pred = d2 * massfhat * psi_ambient(AmbientWave(tuple(xi_c), mass), x)
        got = wavepacket_ambient(spec, x)
        vals.append(abs(got - pred) / abs(pred))
    assert vals[-1] < 0.01
    assert vals[2] < vals[0]


def test_wavepacket_report_counts_nodes():
    # at n = 3 the cap is theta-nodes times the S^1 azimuth sub-grid
    spec = _simple_spec()
    x = from_hyper(SpacetimeConfig(n=3), HyperChart(0.4, (0.9,), 1.2))
    _, rep = wavepacket_ambient(spec, x, full_output=True)
    assert rep.total_nodes == 14 * 16
    assert rep.dropped_nodes == 0


def test_wavepacket_batch_blocks_match_rows():
    # 32 cap nodes give blocks of 128 rows, so 300 rows span three blocks;
    # rows 150 and 290 sit exactly on x.xi = 0 for a node and its mirror
    n = 2
    cfg = SpacetimeConfig(n=n)
    spec = WavepacketSpec(AbsoluteProfile((0.0, 1.0), 0.35),
                          principal_mass(cfg, 1.5), n_theta=16)
    xi, _ = spec.cap_nodes()
    assert xi.shape[0] == 32 and 300 > 2 * (transform._WAVEPACKET_BLOCK // 32)
    rng = np.random.default_rng(5)
    pts = np.stack([from_hyper(cfg, HyperChart(b, (), phi)) for b, phi in
                    zip(rng.uniform(-2.0, 2.0, 300), rng.uniform(0, 2 * np.pi, 300))])
    # x = (x2 u2, 0, x2) with x2 = 1/|u1|: both products in x.xi are exact
    u1, u2 = xi[3, 1:]
    x2 = 1.0 / abs(u1)
    pts[[150, 290]] = (x2 * u2, 0.0, x2)
    vals, rep = wavepacket_ambient(spec, pts, full_output=True)
    assert rep.dropped_nodes == 4
    assert rep.total_nodes == 300 * 32
    rows = np.array([wavepacket_ambient(spec, x) for x in pts])
    assert np.max(np.abs(vals - rows)) <= 1e-12 * np.max(np.abs(rows))


def test_wavepacket_drops_rounded_singular_node():
    # x = (0, cos th, -sin th) lies on x.xi = 0 for the cap node at angle th,
    # but x.xi rounds to +-1.4e-17 depending on the call shape; the node
    # is dropped either way and the two shapes agree
    n = 2
    cfg = SpacetimeConfig(n=n)
    spec = WavepacketSpec(AbsoluteProfile((0.0, 1.0), 0.35),
                          principal_mass(cfg, 1.5), n_theta=16)
    xi, _ = spec.cap_nodes()
    th = math.atan2(xi[5, 1], xi[5, 2])
    x = np.array([0.0, math.cos(th), -math.sin(th)])
    one, rep_one = wavepacket_ambient(spec, x, full_output=True)
    pts = np.stack([x, from_hyper(cfg, HyperChart(0.3, (), 1.0)),
                    from_hyper(cfg, HyperChart(-0.5, (), 2.0))])
    batch, rep_batch = wavepacket_ambient(spec, pts, full_output=True)
    assert rep_one.dropped_nodes == 1 and rep_batch.dropped_nodes == 1
    assert abs(one - batch[0]) <= 1e-12 * abs(one)


def test_wavepacket_solves_wave_equation():
    # FD (box - mu^2) residual on the synthesized field, horospheric chart
    n = 3
    cfg = SpacetimeConfig(n=n)
    mass = principal_mass(cfg, 1.6)
    spec = _simple_spec(n=n, mu=1.6)
    from dswave.geometry import HoroChart, from_horo

    def F(tau, y):
        x = from_horo(cfg, HoroChart(float(tau), tuple(y), 1))
        return complex(wavepacket_ambient(spec, x))

    r = dalembert_horo_residual(cfg, F, 0.25, np.array([0.3, -0.2]), 1.6,
                                h=1e-3, richardson=True)
    assert r < 1e-6


# --------------------------------------- the zonal route past the front

_CLI_BETAS = np.log(np.geomspace(2.0, 250.0, 160))
# (n, mu, delta, (n_theta, n_sub_polar, n_sub_azimuth), chart angles,
# azimuth, betas): the CLI wavepacket path at n = 3 and 4 and criterion 8b's
_PACKET_PATHS = {
    "cli_n3": (3, 1.5, 0.35, (16, 8, 16), (math.pi / 3,), 0.5, _CLI_BETAS),
    "cli_n4": (4, 2.0, 0.35, (16, 8, 16), (math.pi / 3,) * 2, 0.5, _CLI_BETAS),
    "criterion_8b": (4, 2.0, 0.4, (16, 10, 20), (1.1, 0.6), 0.8,
                     np.linspace(1.0, 7.5, 150)),
}


def _packet_path(n, mu, delta, sizes, angles, phi, betas):
    """(spec, row points) of a packet centred on e_n along one chart ray,
    whose angle from the centre is angles[0]."""
    cfg = SpacetimeConfig(n=n)
    center = np.zeros(n)
    center[-1] = 1.0
    spec = WavepacketSpec(AbsoluteProfile(tuple(center), delta),
                          principal_mass(cfg, mu), *sizes)
    return spec, from_hyper(cfg, HyperChart(betas, angles, phi))


def _cap_rule(spec, pts, sizes=None):
    """The packet by the cap rule (at other sizes if given), summed here
    over WavepacketSpec.cap_nodes: the oracle of the zonal route."""
    if sizes is not None:
        spec = WavepacketSpec(spec.profile, spec.mass, *sizes)
    xi, w = spec.cap_nodes()
    wf = w * spec.profile.value(xi[:, 1:])
    mass = spec.mass
    d2 = specfun.d_abs(mass.cfg.n, 0, 0, mass.mu_prime) ** 2
    out = []
    for blk in np.array_split(pts, pts.shape[0] * xi.shape[0] // 2**19 + 1):
        s = blk[:, 1:] @ xi[:, 1:].T - np.outer(blk[:, 0], xi[:, 0])
        out.append(d2 * (_two_branch(mass, s) * wf).sum(axis=1))
    return np.concatenate(out)


@pytest.mark.parametrize("path, bound", [("cli_n3", 1e-6), ("cli_n4", 3e-6),
                                         ("criterion_8b", 5e-7)])
def test_zonal_route_matches_cap_rule(path, bound):
    # every third row past the front, the nearest first, against the cap
    # rule at (64, 40, 80).  At the path's own spec the zonal route is
    # within bound (measured 6.6e-7, 2.0e-6 and 2.5e-7), and the cap rule
    # is not (1.2e-5, 8.4e-5, 8.4e-6); with 32 psi nodes per panel and 32
    # phi nodes the zonal route is within 1e-9 (measured up to 5.9e-10)
    spec, pts = _packet_path(*_PACKET_PATHS[path])
    rows = pts[transform._past_front(spec.profile, pts)[0]][::3]
    ref = _cap_rule(spec, rows, (64, 40, 80))

    def rel(vals):
        return np.max(np.abs(vals - ref) / np.abs(ref))

    zonal, rep = wavepacket_ambient(spec, rows, full_output=True)
    assert rep.total_nodes == rows.shape[0] * 4 * spec.n_theta
    assert rel(zonal) < bound < rel(_cap_rule(spec, rows))
    fine = WavepacketSpec(spec.profile, spec.mass, n_theta=32, n_sub_azimuth=32)
    assert rel(wavepacket_ambient(fine, rows)) < 1e-9


def test_zonal_route_rows_match_batch():
    # the CLI n = 3 path: 11 rows before the front on the cap rule (whose
    # batching test_wavepacket_batch_blocks_match_rows checks), 149 past it
    # on the zonal route over two distinct gammas
    spec, pts = _packet_path(*_PACKET_PATHS["cli_n3"])
    batch, rep = wavepacket_ambient(spec, pts, full_output=True)
    assert rep.total_nodes == 11 * 16 * 16 + 149 * 4 * 16
    rows = np.array([wavepacket_ambient(spec, x) for x in pts[11:]])
    assert np.max(np.abs(rows - batch[11:]) / np.abs(rows)) <= 1e-13


def test_zonal_route_peak_memory_is_blocked():
    # 1000 rows past the front at n = 4, each at its own gamma: G is built
    # a few gammas at a time and the rows are summed in blocks, so the peak
    # stays near the block's bytes (measured 0.33 MiB); building G for
    # every gamma at once took 59 MiB
    cfg = SpacetimeConfig(n=4)
    spec = WavepacketSpec(AbsoluteProfile((0.0, 0.0, 0.0, 1.0), 0.35),
                          principal_mass(cfg, 2.0), 16, 8, 16)
    rng = np.random.default_rng(2)
    m = 1000
    pts = from_hyper(cfg, HyperChart(rng.uniform(2.0, 6.0, m),
                                     tuple(rng.uniform(0.6, 2.2, (2, m))),
                                     rng.uniform(0, 2 * np.pi, m)))
    past, gamma, _ = transform._past_front(spec.profile, pts)
    assert past.sum() > 750 and np.unique(gamma[past]).size == past.sum()
    tracemalloc.start()
    try:
        vals = wavepacket_ambient(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("path", ["cli_n3", "cli_n4"])
def test_noise_estimate_does_not_depend_on_rows(path):
    # an empty call, one row on the zonal route, and the CLI path (cap rule
    # before the front, zonal route past it) report the same noise figure
    spec, pts = _packet_path(*_PACKET_PATHS[path])
    past = transform._past_front(spec.profile, pts)[0]
    assert past[-1] and not past.all()
    figures = [wavepacket_ambient(spec, rows, full_output=True)[1].noise_estimate
               for rows in (pts[:0], pts[-1:], pts)]
    assert figures[0] > 0.0
    assert figures[0] == figures[1] == figures[2]


@pytest.mark.parametrize("n, mu, bound", [(3, 1.5, 2e-6), (4, 2.0, 5e-6)])
def test_routes_agree_at_the_front(n, mu, bound):
    # 0.01 in beta on either side of the front beta* = atanh cos(gamma -
    # delta) of the CLI path: the cap rule before it, the zonal route past
    # it.  Past it the zonal route is within bound of the cap rule at
    # (64, 40, 80) (measured 6.6e-7 and 2.0e-6); the cap rule at the CLI
    # spec is 1.4e-5 and 1.1e-4 off there
    gamma, delta = math.pi / 3, 0.35
    front = math.atanh(math.cos(gamma - delta))
    spec, pts = _packet_path(n, mu, delta, (16, 8, 16), (gamma,) * (n - 2), 0.5,
                             front + np.array([-0.01, 0.01]))
    vals, rep = wavepacket_ambient(spec, pts, full_output=True)
    assert rep.total_nodes == spec.cap_nodes()[0].shape[0] + 4 * 16
    assert vals[0] == _cap_rule(spec, pts[:1])[0]
    ref = _cap_rule(spec, pts[1:], (64, 40, 80))[0]
    assert abs(vals[1] - ref) < bound * abs(ref)


@pytest.mark.parametrize("n", [3, 4])
def test_wavepacket_inside_cap_keeps_cap_rule(n):
    # gamma = 0.2 < delta: however late the point (here x_0/r = tanh 3 >
    # cos(delta - gamma)), x.xi changes sign on the cap, where a Gauss
    # rule in psi is not valid, so the row keeps the cap rule
    spec, pts = _packet_path(n, 1.5 + 0.5 * (n - 3), 0.35, (16, 8, 16),
                             (0.2,) * (n - 2), 0.5, np.array([3.0]))
    assert math.tanh(3.0) > math.cos(0.35 - 0.2)
    _, rep = wavepacket_ambient(spec, pts, full_output=True)
    assert rep.total_nodes == spec.cap_nodes()[0].shape[0]


@pytest.mark.parametrize("n, mu, tau, y, zonal", [
    (3, 1.6, 0.2, (2.0, 0.5), True), (3, 1.6, -0.2, (-1.0, 0.5), True),
    (3, 1.6, 0.4, (-0.5, 1.0), True), (4, 2.0, 0.2, (2.0, 0.5, 0.2), True),
    (4, 2.0, -0.2, (-1.0, 0.5, 0.2), True), (4, 2.0, 0.4, (-0.5, 1.0, 0.3), True),
    (3, 1.6, 0.0, (0.514, 0.154), True), (3, 1.6, 0.4, (-0.361, 0.722), True),
    (4, 2.0, 0.0, (0.505, 0.151, 0.101), True),
    (4, 2.0, 0.4, (-0.349, 0.697, 0.209), True),
    (3, 1.6, 0.0, (0.374, 0.112), False), (3, 1.6, 0.4, (-0.27, 0.541), False),
    (4, 2.0, 0.0, (0.367, 0.11, 0.073), False),
    (4, 2.0, 0.4, (-0.261, 0.522, 0.157), False),
    (3, 1.6, 1.0, (0.5, 0.3), False), (4, 2.0, 1.0, (0.5, 0.3, -0.2), False)])
def test_wavepacket_solves_wave_equation_past_front(n, mu, tau, y, zonal):
    # FD (box - mu^2) residual past the front, in the reflected
    # horospheric chart, with the antipode of x_vec at the distance pi -
    # delta - gamma from the cap.  On the zonal route at gamma = 1.2-2.3:
    # measured 7e-10 to 8.6e-8 (the cap rule 1e-9 to 2e-9), 9e-10 to 9e-9
    # at twice the psi and phi nodes, so it is quadrature error, not
    # rounding.  At gamma = pi - delta - 0.21, just inside the route's
    # bound: 3.7e-7 and 3.8e-7 at n = 3, 6.6e-9 and 3.5e-8 at n = 4.  At
    # gamma = pi - delta - 0.05 the row keeps the cap rule: 2e-9 to 7e-9,
    # where the zonal route read 2.1e-6 and 2.4e-6 at n = 3.  At gamma =
    # 3.0 > pi - delta the antipode lies in the cap and the row keeps the
    # cap rule: 1.5e-8 and 1.7e-8, where the zonal route read 13 and 0.26
    from dswave.geometry import HoroChart, from_horo
    cfg = SpacetimeConfig(n=n)
    spec = _simple_spec(n=n, mu=mu)

    def F(t, yy):
        return complex(wavepacket_ambient(spec, from_horo(cfg, HoroChart(float(t), tuple(yy), -1))))

    x = from_horo(cfg, HoroChart(tau, y, -1))
    r = np.linalg.norm(x[1:])
    gamma = math.acos(x[-1] / r)
    assert gamma > 0.35 and x[0] > r * math.cos(gamma - 0.35)
    assert transform._past_front(spec.profile, x[None])[0][0] == zonal
    assert dalembert_horo_residual(cfg, F, tau, np.array(y), mu, h=1e-3,
                                   richardson=True) < 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("gamma", [1.1, 2.55])
def test_zonal_average_matches_circle_integral(n, gamma):
    # G against the profile summed by a 2000-node Gauss rule over the
    # directions u at the angle psi from a pole at the angle gamma from the
    # centre, with the azimuth phi measured from the centre's side
    center = np.zeros(n)
    center[-1] = 1.0
    prof = AbsoluteProfile(tuple(center), 0.35, shape=1.2)
    psi = gamma + np.array([-0.34, -0.2, 0.0, 0.15, 0.3])
    pole, toward, across = np.eye(n)[[0, -1, 1]] if n > 3 else np.eye(n)[[0, 2, 1]]
    pole, toward = (np.sin(gamma) * pole + np.cos(gamma) * toward,
                    -np.cos(gamma) * pole + np.sin(gamma) * toward)
    x, w = roots_legendre(2000)
    phi, w = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w
    area = {3: 2.0, 4: 2.0 * math.pi, 5: 4.0 * math.pi}[n]
    expect = []
    for p in psi:
        u = (math.cos(p) * pole + math.sin(p) * (np.cos(phi)[:, None] * toward
                                                 + np.sin(phi)[:, None] * across))
        expect.append(area * w @ (prof.value(u) * np.sin(phi) ** (n - 3)))
    assert_allclose(prof.zonal_average(gamma, psi, 64), expect, rtol=0, atol=1e-12 * max(expect))


def test_wavepacket_hyper_single_mode():
    coeffs = HyperCoeffs(rho=1.1)
    coeffs.table[(2, 0, (1,))] = 1.0 + 0.0j
    wave = HyperWave(2, 1.1, HarmonicIndex(3, 0, (1,)))
    ch = HyperChart(0.6, (0.8,), 0.3)
    assert_allclose(complex(wavepacket_hyper(coeffs, 0.6, [0.8], 0.3)),
                    psi_hyper(wave, ch), rtol=1e-13)


def test_wavepacket_hyper_shared_factors():
    # modes sharing an (alpha, top) radial factor or a harmonic index
    # (both families, one top label) sum to their plane waves
    rho = 1.1
    coeffs = HyperCoeffs(rho=rho)
    terms = {(2, 0, (1,)): 1.0, (1, 0, (1,)): 0.5j, (2, 1, (1,)): -0.3,
             (2, -1, (2,)): 0.2 + 0.1j, (1, 1, (2,)): 0.7}
    coeffs.table.update(terms)
    ch = HyperChart(0.6, (0.8,), 0.3)
    expect = sum(c * psi_hyper(HyperWave(a, rho, HarmonicIndex(3, m, ls)), ch)
                 for (a, m, ls), c in terms.items())
    assert_allclose(complex(wavepacket_hyper(coeffs, 0.6, [0.8], 0.3)),
                    expect, rtol=1e-13)


def test_wavepacket_hyper_reality_and_smoothness():
    # conjugate-symmetric chi over +-m gives a real field; FD derivative
    # estimates on a fixed-beta slice stay bounded under refinement
    rho = 1.3
    coeffs = HyperCoeffs(rho=rho)
    c = 0.4 + 0.25j
    coeffs.table[(2, 1, (1,))] = c
    coeffs.table[(2, -1, (1,))] = np.conj(c)
    phis = [1.1]
    vals = wavepacket_hyper(coeffs, 0.5, phis, np.linspace(0, 2 * np.pi, 9))
    assert np.max(np.abs(np.imag(np.atleast_1d(vals)))) < 1e-14
    d_old = None
    for h in (1e-2, 1e-3, 1e-4):
        d = (complex(wavepacket_hyper(coeffs, 0.5, phis, 0.3 + h))
             - complex(wavepacket_hyper(coeffs, 0.5, phis, 0.3 - h))) / (2 * h)
        if d_old is not None:
            assert abs(d - d_old) < 0.05 * max(abs(d), 1.0)
        d_old = d


# ------------------------------------------------- hyperbolic Fourier pair


@pytest.fixture(scope="module")
def hyper_grid():
    return QuadratureGrid.build(2, beta_max=24.0, n_beta=8,
                                rho_window=(0.9, 2.6), n_rho=64, l_max=2,
                                n_polar=24, n_azimuth=24)


def _band_profile(rho, center=1.75, sigma=0.18, halfwidth=0.72):
    if abs(rho - center) >= halfwidth:
        return 0.0
    return math.exp(-((rho - center) / sigma) ** 2 / 2.0)


def test_grid_measure_cached(hyper_grid):
    # beta weight x cosh^(n-1) beta x sphere weight, built once per grid
    g = hyper_grid
    ref = (g.beta_weights * np.cosh(g.beta_nodes) ** (g.sphere.n - 1))[:, None] \
        * g.sphere.weights[None, :]
    assert np.array_equal(g.measure, ref)
    assert g.measure is g.measure


def test_forward_zero_field(hyper_grid):
    F = np.zeros((hyper_grid.beta_nodes.size, hyper_grid.sphere.size),
                 dtype=complex)
    chi = fourier_hyper_forward(F, 1.3, hyper_grid)
    assert all(v == 0.0 for v in chi.table.values())


def test_forward_mode_orthogonality(hyper_grid):
    # a single plane wave at rho0 produces delta-concentrated coefficients
    # across the discrete labels at rho = rho0
    rho0 = 1.75
    key = (2, 1, ())
    wave = HyperWave(2, rho0, HarmonicIndex(2, 1, ()))
    F = np.outer(radial_profile(wave, hyper_grid.beta_nodes),
                 hypersph_Y(wave.idx, [], hyper_grid.sphere.phi))
    chi = fourier_hyper_forward(F, rho0, hyper_grid)
    diag = abs(chi[key])
    cross = max(abs(v) for k, v in chi.table.items() if k != key)
    assert diag > 5.0          # window-size concentration
    assert cross < 1e-10 * diag


def test_forward_parity_filter(hyper_grid):
    # sech(beta) e^{i phi} is odd under the antipodal map (beta, phi) ->
    # (-beta, phi + pi), so all even-parity coefficients vanish
    F = np.outer(1.0 / np.cosh(hyper_grid.beta_nodes),
                 np.exp(1j * hyper_grid.sphere.phi) / math.sqrt(2 * math.pi))
    chi = fourier_hyper_forward(F, 1.4, hyper_grid)
    worst_even = max(abs(v) for (a, m, ls), v in chi.table.items()
                     if (a + abs(m)) % 2 == 0)
    best_odd = max(abs(v) for (a, m, ls), v in chi.table.items()
                   if (a + abs(m)) % 2 == 1)
    assert worst_even < 1e-10 * best_odd


def test_inverse_single_mode_delta(hyper_grid):
    # a single (rho_r, mode) coefficient reproduces, under the literal
    # unweighted inverse, that plane wave times its quadrature weight; the
    # literal inverse of chi is the weighted inverse of (2/rho) chi
    r_idx = 30
    rho_r = float(hyper_grid.rho_nodes[r_idx])
    tables = [None] * hyper_grid.rho_nodes.size
    hc = HyperCoeffs(rho=rho_r)
    hc.table[(1, 0, ())] = complex(2.0 / rho_r)
    tables[r_idx] = hc
    F = fourier_hyper_inverse(tables, hyper_grid)
    wave = HyperWave(1, rho_r, HarmonicIndex(2, 0, ()))
    expect = hyper_grid.rho_weights[r_idx] * np.outer(
        radial_profile(wave, hyper_grid.beta_nodes),
        hypersph_Y(wave.idx, [], hyper_grid.sphere.phi))
    assert_allclose(F, expect, rtol=1e-12)


def test_inverse_linearity(hyper_grid):
    def field(scale):
        tables = []
        for r in hyper_grid.rho_nodes:
            hc = HyperCoeffs(rho=float(r))
            val = scale * _band_profile(float(r))
            if val:
                hc.table[(2, 1, ())] = complex(val)
            tables.append(hc)
        return fourier_hyper_inverse(tables, hyper_grid)

    assert_allclose(field(2.0), 2.0 * field(1.0), rtol=1e-13)


def test_hyper_round_trip_band_limited(hyper_grid):
    mode = (2, 1, ())
    tables = []
    for r in hyper_grid.rho_nodes:
        hc = HyperCoeffs(rho=float(r))
        val = _band_profile(float(r))
        if val:
            hc.table[mode] = complex(val)
        tables.append(hc)
    F = fourier_hyper_inverse(tables, hyper_grid)
    chis = [fourier_hyper_forward(F, float(r), hyper_grid)
            for r in hyper_grid.rho_nodes]
    F2 = fourier_hyper_inverse(chis, hyper_grid)
    meas = (hyper_grid.beta_weights
            * np.cosh(hyper_grid.beta_nodes)) [:, None] \
        * hyper_grid.sphere.weights[None, :]
    err = math.sqrt(float(np.sum(np.abs(F2 - F) ** 2 * meas)
                          / np.sum(np.abs(F) ** 2 * meas)))
    assert err <= 1e-3
    # and the forward coefficients recover the band profile pointwise
    for rho_t in (1.4, 1.75, 2.1):
        chi = fourier_hyper_forward(F, rho_t, hyper_grid)
        assert abs(chi[mode] - _band_profile(rho_t)) < 2e-4


def test_hyper_round_trip_needs_plancherel_weight(hyper_grid):
    # without the rho/2 spectral density the composition is off by 2/rho
    mode = (2, 0, ())
    tables = []
    for r in hyper_grid.rho_nodes:
        hc = HyperCoeffs(rho=float(r))
        val = _band_profile(float(r))
        if val:
            hc.table[mode] = complex(val)
        tables.append(hc)
    F = fourier_hyper_inverse(tables, hyper_grid)
    rho_t = 1.75
    chi = fourier_hyper_forward(F, rho_t, hyper_grid)
    assert_allclose(abs(chi[mode]), 2.0 / rho_t * _band_profile(rho_t) * rho_t / 2,
                    rtol=1e-3)
    # literal unweighted pair composes to 2/rho times the identity; its
    # inverse is the weighted inverse of (2/rho) chi
    literal = []
    for hc in tables:
        lit = HyperCoeffs(rho=hc.rho)
        lit.table = {k: 2.0 / hc.rho * v for k, v in hc.table.items()}
        literal.append(lit)
    F_lit = fourier_hyper_inverse(literal, hyper_grid)
    chi_lit = fourier_hyper_forward(F_lit, rho_t, hyper_grid)
    assert_allclose(abs(chi_lit[mode]),
                    (2.0 / rho_t) ** 2 * _band_profile(rho_t) * rho_t / 2,
                    rtol=5e-3)


# the n = 3 grid of the benchmark's hyper_pair workload
_GRID3 = dict(beta_max=24.0, n_beta=6, n_rho=48, l_max=2, n_polar=8,
              n_azimuth=16)


def _band_tables(grid, modes):
    """Band-limited coefficient field: each (mode, amplitude) times the
    band profile at every rho node."""
    tables = []
    for r in grid.rho_nodes:
        hc = HyperCoeffs(rho=float(r))
        val = _band_profile(float(r))
        if val:
            for key, amp in modes:
                hc.table[key] = amp * val
        tables.append(hc)
    return tables


def _weighted_error(F2, F, grid):
    n = grid.sphere.n
    meas = (grid.beta_weights * np.cosh(grid.beta_nodes) ** (n - 1))[:, None] \
        * grid.sphere.weights[None, :]
    return math.sqrt(float(np.sum(np.abs(F2 - F) ** 2 * meas)
                           / np.sum(np.abs(F) ** 2 * meas)))


def test_hyper_round_trip_band_limited_n3():
    grid = QuadratureGrid.build(3, rho_window=(0.9, 2.6), **_GRID3)
    modes = [((2, 1, (1,)), 1.0 + 0.0j), ((1, -1, (2,)), 0.4 - 0.3j),
             ((1, 0, (0,)), 0.5j)]
    F = fourier_hyper_inverse(_band_tables(grid, modes), grid)
    chis = [fourier_hyper_forward(F, float(r), grid) for r in grid.rho_nodes]
    assert _weighted_error(fourier_hyper_inverse(chis, grid), F, grid) <= 1e-3


def _dense_modes(grid, rho):
    """Mode keys and the dense Psi tensor (n_mode, n_beta, n_sphere)."""
    sph = grid.sphere
    keys, mats = [], []
    for alpha in (1, 2):
        for idx in specfun.harmonic_indices(sph.n, grid.l_max):
            wave = HyperWave(alpha, rho, idx)
            keys.append((alpha, idx.m, idx.ls))
            mats.append(np.outer(radial_profile(wave, grid.beta_nodes),
                                 hypersph_Y(idx, sph.phis, sph.phi)))
    return keys, np.stack(mats)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyper_pair_matches_dense_modes(n):
    # the separable evaluation against the plain sum over the full
    # Psi = V * Y tensor: a seeded field forward, its coefficients inverse
    grid = QuadratureGrid.build(n, beta_max=6.0, n_beta=6,
                                rho_window=(0.9, 2.6), n_rho=4, l_max=2,
                                n_polar=6, n_azimuth=10)
    rng = np.random.default_rng(n)
    shape = (grid.beta_nodes.size, grid.sphere.size)
    F = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        / np.cosh(grid.beta_nodes)[:, None] ** n
    meas = (grid.beta_weights * np.cosh(grid.beta_nodes) ** (n - 1))[:, None] \
        * grid.sphere.weights[None, :]
    chis = []
    expect = np.zeros(shape, dtype=complex)
    for rho, w in zip(grid.rho_nodes, grid.rho_weights):
        keys, mats = _dense_modes(grid, float(rho))
        dense = np.einsum("kbs,bs->k", np.conj(mats), F * meas)
        chi = fourier_hyper_forward(F, float(rho), grid)
        got = np.array([chi[k] for k in keys])
        assert sorted(chi.table) == sorted(keys)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
        chis.append(chi)
        expect += w * 0.5 * rho * np.einsum("k,kbs->bs", got, mats)
    got = fourier_hyper_inverse(chis, grid)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


_GRID2 = dict(beta_max=24.0, n_beta=8, n_rho=64, l_max=4, n_polar=24,
              n_azimuth=28)  # criterion 9's n = 2 grid


def _top_index(n, l):
    return HarmonicIndex(n, l, ()) if n == 2 else HarmonicIndex(n, 0, (l,) * (n - 2))


@pytest.mark.parametrize("n,sizes", [(2, _GRID2), (3, _GRID3)])
def test_mode_tables_match_radial_profile(n, sizes):
    # the table fill agrees with one radial_profile call per
    # (rho node, top label), relative to the row's largest value (a row
    # passes through zeros of V); off-node rows come from the same kernel
    grid = QuadratureGrid.build(n, rho_window=(0.9, 2.6), **sizes)
    tops = sorted({i.top for i in grid.harmonics[0]})
    for alpha in (1, 2):
        table = grid.mode_table(alpha)
        assert table.shape == (grid.rho_nodes.size, len(tops),
                               grid.beta_nodes.size)
        for r, rows in zip(grid.rho_nodes, table):
            assert grid.radial_rows(float(r), alpha).base is table
            for l, row in zip(tops, rows):
                ref = radial_profile(HyperWave(alpha, float(r), _top_index(n, l)),
                                     grid.beta_nodes)
                assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))
        off = 1.234
        ref = [radial_profile(HyperWave(alpha, off, _top_index(n, l)),
                              grid.beta_nodes) for l in tops]
        got = grid.radial_rows(off, alpha)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert sorted(grid.mode_tables) == [1, 2]
    # digits lost are relative to the value, so nodes next to a zero of V
    # lose a few; the kernel raises beyond its 8-digit budget
    lost = grid.resolution_report()["radial_digits_lost"]
    assert 0.0 < lost <= 8.0


def test_mode_table_fill_is_one_radial_table_call_per_alpha(monkeypatch):
    calls = []

    def counted(n, alpha, rhos, tops, beta, *args):
        calls.append((alpha, np.size(rhos)))
        return radial_table(n, alpha, rhos, tops, beta, *args)

    monkeypatch.setattr(transform, "radial_table", counted)
    grid = QuadratureGrid.build(3, rho_window=(0.9, 2.6), **_GRID3)
    for alpha in (1, 2):
        grid.mode_table(alpha)
        grid.mode_table(alpha)
    assert calls == [(1, grid.rho_nodes.size), (2, grid.rho_nodes.size)]


def test_mode_table_fill_peak_memory():
    # the 2F1 kernel's (parameter set x point) temporaries over a whole
    # criterion-9 grid stay within 3 tables' bytes
    grid = QuadratureGrid.build(2, rho_window=(0.9, 2.6), **_GRID2)
    grid.harmonics
    tracemalloc.start()
    try:
        table = grid.mode_table(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


def test_hyper_mode_tables_stay_separable():
    # after a forward and an inverse pass the grid's table cache holds
    # less than one (n_beta, n_sphere) complex array per rho node: a
    # per-mode product table would exceed that many times over
    grid = QuadratureGrid.build(3, rho_window=(0.9, 2.6), **_GRID3)
    modes = [((2, 1, (1,)), 1.0 + 0.0j), ((1, 0, (2,)), 0.5 + 0.0j)]
    F = fourier_hyper_inverse(_band_tables(grid, modes), grid)
    chis = [fourier_hyper_forward(F, float(r), grid) for r in grid.rho_nodes]
    fourier_hyper_inverse(chis, grid)

    def held(obj):
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, (tuple, list)):
            return sum(held(o) for o in obj)
        return 0

    cached = sum(held(v) for v in grid.mode_tables.values())
    assert cached > 0
    per_rho = grid.beta_nodes.size * grid.sphere.size * np.dtype(complex).itemsize
    assert cached < grid.rho_nodes.size * per_rho


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.beta_nodes.size, grid.sphere.size)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
        / np.cosh(grid.beta_nodes)[:, None] ** grid.sphere.n


@pytest.mark.parametrize("n,sizes", [(2, _GRID2), (3, _GRID3)])
def test_forward_matches_measure_weighted_formula(n, sizes):
    # the separable contraction against the plain one: conj(V) against
    # F times the full measure, then each mode's row against conj(Y)
    grid = QuadratureGrid.build(n, rho_window=(0.9, 2.6), **sizes)
    F = _random_field(grid, n)
    idxs, Y, top_row = grid.harmonics
    for rho in (*grid.rho_nodes[[0, 17, -1]], 1.234):
        chi = fourier_hyper_forward(F, float(rho), grid)
        ref = {}
        for a in (1, 2):
            V = grid.radial_rows(float(rho), a)
            vals = ((np.conj(V) @ (F * grid.measure))[top_row] * np.conj(Y)).sum(1)
            ref.update({(a, i.m, i.ls): v for i, v in zip(idxs, vals)})
        assert sorted(chi.table) == sorted(ref)
        top = max(abs(v) for v in ref.values())
        assert max(abs(chi[k] - v) for k, v in ref.items()) <= 1e-13 * top


def test_forward_takes_real_and_strided_fields_and_checks_shape(hyper_grid):
    F = _random_field(hyper_grid, 7)
    rho = float(hyper_grid.rho_nodes[30])
    ref = fourier_hyper_forward(F.real.astype(complex), rho, hyper_grid).table
    assert fourier_hyper_forward(F.real, rho, hyper_grid).table == ref
    ref = fourier_hyper_forward(F, rho, hyper_grid).table
    wide = np.repeat(F, 2, axis=1)
    for view in (np.asfortranarray(F), wide[:, ::2]):
        assert not view.flags.c_contiguous
        assert fourier_hyper_forward(view, rho, hyper_grid).table == ref
    for bad in (F[:, :1], F.T, F[0], F[:, :, None]):
        with pytest.raises(ValueError, match="shape"):
            fourier_hyper_forward(bad, rho, hyper_grid)


def test_forward_refuses_a_callable(hyper_grid):
    # the field is its array on the grid; a function of the chart is not
    with pytest.raises(ValueError, match="shape"):
        fourier_hyper_forward(lambda beta, phis, phi: beta + 0.0 * phi, 1.3, hyper_grid)


@pytest.mark.parametrize("n,sizes", [(2, _GRID2), (3, _GRID3)])
def test_radial_rows_are_real(n, sizes):
    # on the principal series the radial factor is real (Euler's
    # transformation of its 2F1); the tables keep only rounding in Im V
    grid = QuadratureGrid.build(n, rho_window=(0.9, 2.6), **sizes)
    for alpha in (1, 2):
        V = grid.mode_table(alpha)
        assert np.all(np.abs(V.imag) <= 1e-14 * np.abs(V).max(axis=2, keepdims=True))


def test_mode_table_fill_runs_one_connection_series(monkeypatch):
    # the second series of the connection formula is the conjugate of the
    # first on the principal series: a fill sums the direct series on the
    # small-beta points and one connection series on the others
    inside, calls = [], []
    series, connection = specfun._series_2f1_array, specfun._connection_2f1

    def series_spy(*args):
        calls.append("connection" if inside else "direct")
        return series(*args)

    def connection_spy(*args):
        inside.append(True)
        try:
            return connection(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(specfun, "_series_2f1_array", series_spy)
    monkeypatch.setattr(specfun, "_connection_2f1", connection_spy)
    grid = QuadratureGrid.build(3, rho_window=(0.9, 2.6), **_GRID3)
    for alpha in (1, 2):
        calls.clear()
        grid.mode_table(alpha)
        assert calls == ["direct", "connection"]


def test_inverse_checks_tables_against_rho_nodes(hyper_grid):
    tables = _band_tables(hyper_grid, [((2, 1, ()), 1.0 + 0.0j)])
    spare = HyperCoeffs(rho=3.0)
    for bad, match in ((tables[::-1], "rho node"), (tables + [spare], "tables for"),
                       (tables[:-1], "tables for"),
                       ([HyperCoeffs(rho=float(r)) for r in hyper_grid.rho_nodes[:-1]],
                        "tables for")):
        with pytest.raises(ValueError, match=match):
            fourier_hyper_inverse(bad, hyper_grid)
    # a callable's tables are checked as well; None stays an empty table
    with pytest.raises(ValueError, match="rho node"):
        fourier_hyper_inverse(lambda r: HyperCoeffs(rho=float(r) + 1e-9), hyper_grid)
    F = fourier_hyper_inverse(tables, hyper_grid)
    near = [HyperCoeffs(rho=t.rho * (1.0 + 1e-13), table=t.table) for t in tables]
    assert np.array_equal(fourier_hyper_inverse(near, hyper_grid), F)
    assert not np.any(fourier_hyper_inverse(lambda r: None, hyper_grid))


# ------------------------------------------------------------ Mellin pair


def test_mellin_gamma_integral():
    # regularized endpoint: h = s^{-(n-1)/2 + eps} e^{-s} has transform
    # Gamma(eps - i rho); the window-truncated lower tail is added in
    # closed form (integral of s^{eps - i rho - 1} below s0)
    n = 3
    s0 = 1e-12
    for eps in (0.5, 0.25):
        h = lambda s: s ** (-0.5 * (n - 1) + eps) * np.exp(-s)
        rho = np.array([0.4, 1.0, 2.2])
        got = mellin_forward(h, n, rho, s_window=(s0, 80.0), n_nodes=3200)
        tail = np.array([s0 ** complex(eps, -r) / complex(eps, -r)
                         for r in rho])
        expect = np.array([np.exp(specfun.ln_gamma(complex(eps, -r)))
                           for r in rho])
        assert_allclose(got + tail, expect, rtol=1e-6)


def test_mellin_round_trip():
    n = 2
    s = np.geomspace(0.05, 20.0, 160)

    def h(sv):
        v = np.log(sv)
        out = np.zeros_like(sv)
        inside = np.abs(v) < 2.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - (v[inside] / 2.0) ** 2))
        return out

    varpi = lambda r: mellin_forward(h, n, r, (1e-4, 1e4), 800)
    back = mellin_inverse(varpi, n, s, (-170, 170), 9000)
    err = np.max(np.abs(back.real - h(s))) / np.max(h(s))
    assert err <= 1e-6
    assert np.max(np.abs(back.imag)) <= 1e-6


def test_mellin_scaling_covariance():
    # h(lambda s) has transform lambda^{-(n-1)/2 + i rho} varpi(rho)
    n = 2
    lam = 1.7
    h = lambda s: np.exp(-(np.log(s)) ** 2)
    hl = lambda s: h(lam * s)
    rho = np.array([0.7, 1.9])
    a = mellin_forward(hl, n, rho, (1e-6, 1e6), 1200)
    b = mellin_forward(h, n, rho, (1e-6, 1e6), 1200)
    factor = lam ** (-0.5 * (n - 1) + 1j * rho)
    assert_allclose(a, factor * b, rtol=1e-9)


def test_mellin_forward_batched_matches_rows():
    # an h returning (k, n_s) gives the k one-row transforms, for more rows
    # than rho values and for fewer
    n = 2
    rng = np.random.default_rng(5)
    cases = [(np.array([-1.0, 0.0, 0.5, 2.0]), np.array([0.3, 1.1, 2.7])),
             (rng.uniform(-2.0, 2.0, 30), rng.uniform(-4.0, 4.0, 3)),
             (np.array([0.4]), rng.uniform(-4.0, 4.0, 50))]

    def row(sv, c):
        return np.exp(-(np.log(sv) - c) ** 2) * (1.0 + 0.5j * np.sin(np.log(sv)))

    for shifts, rho in cases:
        batch = mellin_forward(lambda sv: np.stack([row(sv, c) for c in shifts]),
                               n, rho, (1e-6, 1e6), 600)
        assert batch.shape == (shifts.size, rho.size)
        for i, c in enumerate(shifts):
            one = mellin_forward(lambda sv: row(sv, c), n, rho, (1e-6, 1e6), 600)
            assert_allclose(batch[i], one, rtol=1e-13)


@pytest.mark.parametrize("call", [
    lambda h: mellin_forward(h, 2, [0.5], (1e4, 1e-4), 200),
    lambda h: mellin_forward(h, 2, [0.5], (1e-4, 1e-4), 200),
    lambda h: mellin_forward(h, 2, [0.5], (0.0, 1e4), 200),
    lambda h: mellin_forward(h, 2, [0.5], (-1.0, 1e4), 200),
    lambda h: mellin_forward(h, 2, [0.5], (1e-4, 1e4), 1),
    lambda h: mellin_inverse(lambda r: h(np.exp(r)), 2, [1.0], (40.0, -40.0), 200),
    lambda h: mellin_inverse(lambda r: h(np.exp(r)), 2, [1.0], (3.0, 3.0), 200),
    lambda h: mellin_inverse(lambda r: h(np.exp(r)), 2, [1.0], (-40.0, 40.0), 1),
], ids=["fwd-reversed", "fwd-empty", "fwd-zero-lo", "fwd-negative-lo",
        "fwd-one-node", "inv-reversed", "inv-empty", "inv-one-node"])
def test_mellin_rejects_degenerate_windows(call):
    # a reversed window used to flip the sign of the result silently
    h = lambda sv: np.exp(-np.log(sv) ** 2)
    with pytest.raises(ValueError):
        call(h)


# -------------------------------------------------------------- cone pair


def test_intertwiner_direct_matches_spectral():
    grid = ConeGrid(n=2, n_theta=256)
    worst = 0.0
    for rho in (0.7, 1.3, 2.5):
        for sector in (1, -1):
            for forward in (True, False):
                A = _intertwiner_eigs(grid, rho, forward, sector, "direct")[:, 0]
                B = _intertwiner_eigs(grid, rho, forward, sector, "spectral")[:, 0]
                # compare action on smooth modes
                for j in (0, 1, 3):
                    g = np.fft.fft(np.exp(1j * j * grid.thetas))
                    Ag = np.fft.ifft(A * g)
                    Bg = np.fft.ifft(B * g)
                    num = np.max(np.abs(Ag - Bg))
                    den = max(np.max(np.abs(Bg)), 1e-12)
                    worst = max(worst, num / den)
    assert worst < 2e-3  # declared tolerance of the node-exclusion scheme


def test_intertwiner_eigenvalue_vs_d_abs():
    # |combined eigenvalue| = 1/|d(rho)| on every (j, k) mode
    grid = ConeGrid(n=2, n_theta=128)
    for rho in (0.5, 1.0, 2.0):
        for (j, k) in ((0, 0), (1, 0), (2, 1), (4, 1)):
            lam = (intertwiner_symbol(grid, rho, True, 1, j)[0, 0]
                   + (-1) ** k * intertwiner_symbol(grid, rho, True, -1, j)[0, 0])
            assert_allclose(abs(lam) * specfun.d_abs(2, j, k, rho), 1.0,
                            rtol=1e-12)


def test_cone_mode_round_trip_identity():
    # |d|^2 lam_fwd lam_inv = 1 exactly, on both half lines with the
    # signed-rho weight
    from dswave.transform import _d_abs_sq_signed
    grid = ConeGrid(n=2, n_theta=64)
    for rho in (0.6, 1.3, -0.6, -1.3):
        for (j, k) in ((0, 0), (1, 0), (2, 1)):
            lam_f = (intertwiner_symbol(grid, rho, True, 1, j)[0, 0]
                     + (-1) ** k * intertwiner_symbol(grid, rho, True, -1, j)[0, 0])
            lam_i = (intertwiner_symbol(grid, rho, False, 1, j)[0, 0]
                     + (-1) ** k * intertwiner_symbol(grid, rho, False, -1, j)[0, 0])
            assert_allclose(_d_abs_sq_signed(2, j, k, rho) * lam_f * lam_i, 1.0,
                            rtol=1e-12)


def test_cone_forward_zero():
    grid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=200)
    h = ConeFunction(2, lambda s, tp, xp: np.zeros_like(s), grid.s_window)
    psi = cone_fourier_forward(h, [0.8, 1.5], grid)
    assert np.max(np.abs(psi.values[1])) == 0.0
    assert np.max(np.abs(psi.values[-1])) == 0.0


def test_cone_parity_preservation():
    # even h produces spectrum supported on the even sector, exactly
    grid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=240)

    def heven(s, tp, xp):
        g = np.exp(-np.log(s) ** 2 / 2.0) / np.sqrt(s)
        return g * (xp[1] ** 2 - xp[0] ** 2 + 0.5 * tp * xp[0])

    psi = cone_fourier_forward(ConeFunction(2, heven, grid.s_window),
                               np.array([0.9, 1.7]), grid, method="spectral")
    half = grid.n_theta // 2
    odd = psi.values[1] - np.roll(psi.values[-1], half, axis=0)
    even = psi.values[1] + np.roll(psi.values[-1], half, axis=0)
    assert np.max(np.abs(odd)) < 1e-13 * np.max(np.abs(even))


def test_cone_signed_tau_breaks_parity():
    # the unsigned tau'-sum preserves parity (see the parity test); the
    # signed reading of the measure remark flips it: an antipodally even
    # input comes out odd.  This is the recorded discriminator between the
    # two conventions.  The signed transform of h is the unsigned one of t' h.
    grid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=240)

    def heven_signed(s, tp, xp):
        g = np.exp(-np.log(s) ** 2 / 2.0) / np.sqrt(s)
        return tp * g * (xp[1] ** 2 - xp[0] ** 2 + 0.5 * tp * xp[0])

    psi = cone_fourier_forward(ConeFunction(2, heven_signed, grid.s_window),
                               np.array([0.9, 1.7]), grid, method="spectral")
    half = grid.n_theta // 2
    odd = psi.values[1] - np.roll(psi.values[-1], half, axis=0)
    even = psi.values[1] + np.roll(psi.values[-1], half, axis=0)
    assert np.max(np.abs(even)) < 1e-13 * np.max(np.abs(odd))


def _symbol_mpmath(rho, forward, sector, j):
    """2^{-E} 2 pi Gamma(1+2E) / (Gamma(1+E+j) Gamma(1+E-j)), times the
    Theta phase and (-1)^j in sector +1, in 30-digit arithmetic."""
    with mp.workdps(30):
        E = mp.mpc(-0.5, -rho if forward else rho)
        lam = (2 ** (-E) * 2 * mp.pi * mp.gamma(1 + 2 * E)
               / (mp.gamma(1 + E + j) * mp.gamma(1 + E - j)))
        if sector == 1:
            lam *= (-1) ** j * mp.exp(1j * mp.pi * (
                mp.mpf(0.5) * (1 if forward else -1) + 1j * rho))
        return complex(lam)


@pytest.mark.parametrize("rho", [0.3, 1.7, 3.5, 20.0])
def test_intertwiner_symbol_vs_mpmath(rho):
    grid = ConeGrid(n=2, n_theta=64)
    js = np.arange(129)
    for forward in (True, False):
        for sector in (1, -1):
            got = intertwiner_symbol(grid, rho, forward, sector, js)[:, 0]
            ref = np.array([_symbol_mpmath(rho, forward, sector, int(j))
                            for j in js])
            assert_allclose(got, ref, rtol=5e-14)
            # unsorted indices with negative values: the symbol is even in j
            jm = np.array([5, -3, 0, 17, -17, 2])
            assert_allclose(intertwiner_symbol(grid, rho, forward, sector, jm)[:, 0],
                            ref[np.abs(jm)], rtol=5e-14)


def test_intertwiner_symbol_rho_array_vs_mpmath():
    # one call over mixed-sign rho nodes: column r is the symbol at rho[r]
    grid = ConeGrid(n=2, n_theta=64)
    rho = np.array([0.3, 1.7, 3.5, 20.0, -1.3])
    js = np.arange(129)
    jm = np.array([5, -3, 0, 17, -17, 2])
    for forward in (True, False):
        for sector in (1, -1):
            got = intertwiner_symbol(grid, rho, forward, sector, js)
            assert got.shape == (js.size, rho.size)
            ref = np.array([[_symbol_mpmath(r, forward, sector, int(j))
                             for r in rho] for j in js])
            assert_allclose(got, ref, rtol=5e-14)
            assert_allclose(intertwiner_symbol(grid, rho, forward, sector, jm),
                            ref[np.abs(jm)], rtol=5e-14)


@pytest.mark.parametrize("method", ["direct", "spectral"])
@pytest.mark.parametrize("n_theta", [38, 64, 128])
def test_intertwiner_eigs_rho_array_matches_scalar_calls(n_theta, method):
    grid = ConeGrid(n=2, n_theta=n_theta)
    rho = np.array([0.4, -1.1, 2.7, -0.35, 6.0])
    for sector in (1, -1):
        for forward in (True, False):
            batch = _intertwiner_eigs(grid, rho, forward, sector, method)
            assert batch.shape == (n_theta, rho.size)
            for r, x in enumerate(rho):
                one = _intertwiner_eigs(grid, x, forward, sector, method)
                assert one.shape == (n_theta, 1)
                err = np.max(np.abs(batch[:, r] - one[:, 0]))
                assert err <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("forward", [True, False])
def test_spectral_sheet_eigs_match_per_sector_calls(forward):
    # one |j| symbol table serves both sectors, bitwise, at the sizes of the
    # benchmark's cone workload
    grid = ConeGrid(n=2, n_theta=128, s_window=(1e-4, 1e4), n_s=200)
    x, _ = roots_legendre(24)
    rho = 1.6 * x + 1.9
    eigs = transform._sheet_eigs(grid, rho, forward, "spectral")
    for sector in (1, -1):
        one = _intertwiner_eigs(grid, rho, forward, sector, "spectral")
        assert np.array_equal(eigs[sector], one)


@pytest.mark.parametrize("n_theta", [38, 64, 128, 256])
@pytest.mark.parametrize("forward", [True, False])
def test_direct_sheet_eigs_match_per_sector_calls(n_theta, forward):
    # sector +1 of the direct quadrature is derived from sector -1 by the
    # half-turn symmetry; its own direct call places the pole window, flanks
    # and fit at dtheta = 0 and agrees to rounding
    grid = ConeGrid(n=2, n_theta=n_theta)
    rho = np.array([0.4, -1.1, 2.7, -0.35, 6.0, 1.9])
    eigs = transform._sheet_eigs(grid, rho, forward, "direct")
    for sector in (1, -1):
        one = _intertwiner_eigs(grid, rho, forward, sector, "direct")
        assert eigs[sector].shape == one.shape == (n_theta, rho.size)
        err = np.max(np.abs(eigs[sector] - one), axis=0)
        assert np.all(err <= 2e-14 * np.max(np.abs(one), axis=0))


@pytest.mark.parametrize("kwargs", [
    {"n_theta": 0}, {"n_theta": -4}, {"n_theta": 7}, {"n_s": 1}, {"n_s": 0},
    {"s_window": (1e3, 1e-3)}, {"s_window": (1.0, 1.0)},
    {"s_window": (0.0, 1e3)}, {"s_window": (-1e-3, 1e3)}],
    ids=["n_theta-0", "n_theta-negative", "n_theta-odd", "n_s-1", "n_s-0",
         "s_window-reversed", "s_window-empty", "s_window-zero-lo",
         "s_window-negative-lo"])
def test_cone_grid_rejects_degenerate(kwargs):
    # a reversed s_window used to return -psi from the forward transform
    with pytest.raises(ValueError):
        ConeGrid(n=2, **kwargs)


def test_intertwiner_eigs_guards_with_rho_array():
    rho = np.array([0.8, -1.5])
    with pytest.raises(UnsupportedCaseError, match="n_theta >= 38"):
        _intertwiner_eigs(ConeGrid(n=2, n_theta=36), rho, True, 1, "direct")
    grid = ConeGrid(n=2, n_theta=64)
    for r in (0.8, rho):
        with pytest.raises(ValueError,
                           match="method must be 'direct' or 'spectral'"):
            _intertwiner_eigs(grid, r, True, 1, "spectal")
    # rho = 0 is the pole of Gamma(1 + 2E): both methods raise
    for method in ("direct", "spectral"):
        with pytest.raises(PoleError):
            _intertwiner_eigs(grid, np.array([0.8, 0.0]), True, -1, method)


def _dense_circulant(eigs):
    """Dense matrix of g -> ifft(eigs * fft(g))."""
    n = eigs.size
    i = np.arange(n)
    return np.fft.ifft(eigs)[(i[:, None] - i[None, :]) % n]


_RHO_24, _RHO_W_24 = roots_legendre(24)


@pytest.mark.parametrize("method,n_theta,rho_nodes,rho_w", [
    pytest.param("spectral", 64, [0.6, 1.4, 2.3], [0.3, 0.5, 0.4],
                 id="spectral"),
    pytest.param("direct", 64, [0.6, 1.4, 2.3], [0.3, 0.5, 0.4], id="direct"),
    # the benchmark's cone sizes: 128 directions, 24 rho nodes
    pytest.param("spectral", 128, 1.6 * _RHO_24 + 1.9, 1.6 * _RHO_W_24,
                 id="spectral-128x24"),
    pytest.param("direct", 128, 1.6 * _RHO_24 + 1.9, 1.6 * _RHO_W_24,
                 id="direct-128x24")])
def test_cone_pair_matches_dense_reference(method, n_theta, rho_nodes, rho_w):
    # the loop form of the pair: a dense circulant per rho and sector, one
    # Mellin call per direction, rank-one updates per rho in the inverse
    grid = ConeGrid(n=2, n_theta=n_theta, s_window=(1e-3, 1e3), n_s=160)
    rho_nodes = np.asarray(rho_nodes)
    rho_w = np.asarray(rho_w)
    dirs = grid.directions()

    def hfun(s, tp, xp):
        g = np.exp(-np.log(s) ** 2 / 2.0) / np.sqrt(s)
        return g * (xp[1] ** 2 - 0.3j * xp[0] + 0.5 * tp * xp[0] * xp[1])

    mats = {(fwd, sec, r): _dense_circulant(
                _intertwiner_eigs(grid, rho, fwd, sec, method)[:, 0])
            for fwd in (True, False) for sec in (1, -1)
            for r, rho in enumerate(rho_nodes)}
    rng = np.random.default_rng(7)
    vals = {tp: rng.normal(size=(grid.n_theta, rho_nodes.size))
            + 1j * rng.normal(size=(grid.n_theta, rho_nodes.size))
            for tp in (1, -1)}
    s = grid.s_nodes
    # the signed tau'-sum is the unsigned pair applied to t' h and tau' psi
    for tau_weight in ("unsigned", "signed"):
        varpi = {tp: np.stack([mellin_forward(lambda sv: hfun(sv, tp, d), 2,
                                              rho_nodes, grid.s_window,
                                              grid.n_s) for d in dirs])
                 for tp in (1, -1)}
        fwd_ref = {}
        for tau in (1, -1):
            fwd_ref[tau] = np.stack([sum(
                (tp if tau_weight == "signed" else 1.0)
                * mats[(True, tp * tau, r)] @ varpi[tp][:, r]
                for tp in (1, -1)) for r in range(rho_nodes.size)], axis=1)
        inv_ref = {tp: np.zeros((s.size, grid.n_theta), dtype=complex)
                   for tp in (1, -1)}
        for r, (rho, wr) in enumerate(zip(rho_nodes, rho_w)):
            radial = s ** complex(-0.5, rho)
            for tp in (1, -1):
                acc = sum((tau if tau_weight == "signed" else 1.0)
                          * mats[(False, tp * tau, r)] @ vals[tau][:, r]
                          for tau in (1, -1))
                inv_ref[tp] += (wr * transform._d_abs_sq_signed(2, 0, 0, rho)
                                / (2 * math.pi)
                                * np.outer(radial, acc))

        sgn = (lambda t: t) if tau_weight == "signed" else (lambda t: 1.0)
        psi = cone_fourier_forward(
            ConeFunction(2, lambda sv, tp, xp: sgn(tp) * hfun(sv, tp, xp),
                         grid.s_window), rho_nodes, grid, method)
        h = cone_fourier_inverse(
            ConeSpectrum(grid, rho_nodes, {t: sgn(t) * vals[t] for t in (1, -1)}),
            rho_w, method=method)
        for tp in (1, -1):
            for got, ref in ((psi.values[tp], fwd_ref[tp]), (h[tp], inv_ref[tp])):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_theta", [16, 36])
def test_cone_direct_refuses_wrapped_stencil(n_theta):
    # 2 _FIT_CELLS + 1 = 37 fit columns around the pole wrap on a smaller circle
    grid = ConeGrid(n=2, n_theta=n_theta, s_window=(1e-3, 1e3), n_s=60)
    h = ConeFunction(2, lambda s, tp, xp: np.exp(-np.log(s) ** 2) * xp[1],
                     grid.s_window)
    rho = np.array([0.8, 1.5])
    with pytest.raises(UnsupportedCaseError, match="n_theta >= 38"):
        cone_fourier_forward(h, rho, grid, method="direct")
    psi = ConeSpectrum(grid, rho, {tp: np.ones((n_theta, 2), dtype=complex)
                                   for tp in (1, -1)})
    with pytest.raises(UnsupportedCaseError, match="n_theta >= 38"):
        cone_fourier_inverse(psi, [0.5, 0.5], method="direct")
    if n_theta == 16:
        out = cone_fourier_forward(h, rho, grid, method="spectral")
        back = cone_fourier_inverse(psi, [0.5, 0.5], method="spectral")
        for tp in (1, -1):
            assert np.all(np.isfinite(out.values[tp]))
            assert np.all(np.isfinite(back[tp]))


@pytest.mark.parametrize("kwargs,match", [
    ({"method": "spectal"}, "method must be 'direct' or 'spectral'")])
def test_cone_rejects_unknown_conventions(kwargs, match):
    grid = ConeGrid(n=2, n_theta=16, s_window=(1e-3, 1e3), n_s=60)
    h = ConeFunction(2, lambda s, tp, xp: np.exp(-np.log(s) ** 2) * xp[1],
                     grid.s_window)
    rho = np.array([0.8, 1.5])
    psi = ConeSpectrum(grid, rho, {tp: np.ones((16, 2), dtype=complex)
                                   for tp in (1, -1)})
    with pytest.raises(ValueError, match=match):
        cone_fourier_forward(h, rho, grid, **kwargs)
    with pytest.raises(ValueError, match=match):
        cone_fourier_inverse(psi, [0.5, 0.5], **kwargs)


def test_cone_default_method_is_spectral():
    # a caller who names no method gets the exact symbol, not the direct
    # quadrature (off by 2.4e-2 at this n_theta)
    grid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=120)
    h = ConeFunction(2, lambda s, tp, xp: np.exp(-np.log(s) ** 2)
                     * (xp[1] + 0.3 * tp * xp[0] ** 3), grid.s_window)
    rho = np.array([0.8, 1.5])
    psi = cone_fourier_forward(h, rho, grid)
    ref = cone_fourier_forward(h, rho, grid, method="spectral")
    back = cone_fourier_inverse(psi, [0.5, 0.5])
    back_ref = cone_fourier_inverse(psi, [0.5, 0.5], method="spectral")
    for tp in (1, -1):
        assert np.array_equal(psi.values[tp], ref.values[tp])
        assert np.array_equal(back[tp], back_ref[tp])


def test_cone_direct_accepts_unwrapped_stencil():
    grid = ConeGrid(n=2, n_theta=38, s_window=(1e-3, 1e3), n_s=60)
    h = ConeFunction(2, lambda s, tp, xp: np.exp(-np.log(s) ** 2) * xp[1],
                     grid.s_window)
    psi = cone_fourier_forward(h, [0.8, 1.5], grid, method="direct")
    back = cone_fourier_inverse(psi, [0.5, 0.5], method="direct")
    assert all(np.all(np.isfinite(back[tp])) for tp in (1, -1))


@pytest.mark.parametrize("method", ["spectral", "direct"])
def test_cone_pair_scalar_rho_matches_one_element_list(method):
    # a scalar rho is the one-node array: the spectrum keeps its n_rho axis
    # instead of broadcasting to an (n_theta, n_theta) array
    grid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=120)
    h = ConeFunction(2, lambda s, tp, xp: np.exp(-np.log(s) ** 2)
                     * (xp[1] + 0.3 * tp * xp[0] ** 3), grid.s_window)
    psi = cone_fourier_forward(h, 0.8, grid, method=method)
    ref = cone_fourier_forward(h, [0.8], grid, method=method)
    vals = {tp: ref.values[tp] for tp in (1, -1)}
    back = cone_fourier_inverse(ConeSpectrum(grid, 0.8, vals), 0.5, method=method)
    back_ref = cone_fourier_inverse(ConeSpectrum(grid, [0.8], vals), [0.5],
                                    method=method)
    for tp in (1, -1):
        assert np.array_equal(psi.values[tp], ref.values[tp])
        assert np.array_equal(back[tp], back_ref[tp])
    assert intertwiner_symbol(grid, 0.8, True, 1, np.arange(5)).shape == (5, 1)
    # a sheet without the n_rho axis is refused, not broadcast
    flat = {tp: v[:, 0] for tp, v in vals.items()}
    with pytest.raises(ValueError, match="n_theta, n_rho"):
        cone_fourier_inverse(ConeSpectrum(grid, 0.8, flat), 0.5, method=method)


@pytest.mark.parametrize("method,tol", [("spectral", 5e-3), ("direct", 5e-3)])
def test_cone_round_trip_band_limited(method, tol):
    grid = ConeGrid(n=2, n_theta=128, s_window=(1e-4, 1e4), n_s=400)
    x, w = roots_legendre(64)
    lo, hi = 0.4, 3.4
    rho_nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    rho_w = 0.5 * (hi - lo) * w

    def c_r(r):
        if abs(r - 1.9) >= 1.2:
            return 0.0
        return math.exp(-((r - 1.9) / 0.35) ** 2 / 2.0)

    th = grid.thetas
    vals = {}
    for tp in (1, -1):
        M = np.zeros((grid.n_theta, rho_nodes.size), dtype=complex)
        for r, rho in enumerate(rho_nodes):
            M[:, r] = c_r(rho) * (np.exp(2j * th) + 0.3 * tp * np.exp(-1j * th))
        vals[tp] = M
    psi0 = ConeSpectrum(grid, rho_nodes, vals)
    h = cone_fourier_inverse(psi0, rho_w, method=method)

    import scipy.interpolate as si
    interp = {tp: si.interp1d(np.log(grid.s_nodes), h[tp], axis=0,
                              kind="cubic", bounds_error=False,
                              fill_value=0.0) for tp in (1, -1)}

    def hfun(s, tp, xp):
        ang = math.atan2(xp[0], xp[1]) % (2 * math.pi)
        jidx = int(round(ang / (2 * math.pi / grid.n_theta))) % grid.n_theta
        return interp[tp](np.log(s))[..., jidx]

    psi1 = cone_fourier_forward(ConeFunction(2, hfun, grid.s_window),
                                rho_nodes, grid, method=method)
    num = den = 0.0
    for tp in (1, -1):
        num += float(np.sum(np.abs(psi1.values[tp] - psi0.values[tp]) ** 2
                            * rho_w[None, :]))
        den += float(np.sum(np.abs(psi0.values[tp]) ** 2 * rho_w[None, :]))
    assert math.sqrt(num / den) <= tol


def test_radial_table_goes_through_gauss_2f1_array(monkeypatch):
    # the radial tables take their 2F1 values from the public entry point,
    # and the grid reports the worst digits lost that it returned
    losses = []
    kernel = specfun.gauss_2f1_array

    def counted(*args, **kwargs):
        out = kernel(*args, **kwargs)
        losses.append(float(out[1].max()))
        return out

    monkeypatch.setattr(specfun, "gauss_2f1_array", counted)
    grid = QuadratureGrid.build(2, beta_max=6.0, n_beta=4, rho_window=(0.9, 2.6),
                                n_rho=8, l_max=2, n_polar=8, n_azimuth=8)
    assert grid.resolution_report()["radial_digits_lost"] == 0.0
    grid.mode_table(1)
    grid.radial_rows(1.3, 2)
    assert len(losses) == 2
    assert grid.resolution_report()["radial_digits_lost"] == max(losses)


def test_quadrature_grid_resolution_report(hyper_grid):
    rep = hyper_grid.resolution_report()
    assert rep["radial_digits_lost"] == max(hyper_grid.digits_lost.values(),
                                            default=0.0)
    assert rep["beta_nodes"] == hyper_grid.beta_nodes.size
    assert rep["rho_nodes"] == 64
    assert rep["azimuth_modes"] >= hyper_grid.l_max
    # the band-limited round-trip setup resolves its rho band
    assert rep["beta_bandwidth"] < 0.72

"""Acceptance criteria that `dswave verify` and the acceptance tests share.

Each criterion is one function returning rows (criterion, value, target,
passed), with its cases, seeds and bounds.  passed applies the
criterion's own comparison: a bound such as value < target, or a band
around target given in the row label.  SUITES maps each `dswave verify`
suite name onto the criteria it runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import limits, lorentz, specfun
from .geometry import HyperChart, SpacetimeConfig, from_hyper, sphere_point
from .planewave import (HyperWave, dalembert_residual, radial_ode_residual,
                        radial_profile)
from .specfun import HarmonicIndex
from .transform import (ConeFunction, ConeGrid, HyperCoeffs, QuadratureGrid,
                        cone_fourier_forward, fourier_hyper_forward,
                        fourier_hyper_inverse, mellin_forward, mellin_inverse)

__all__ = ["Row", "SUITES", "APPENDIX_TOL", "contraction_scan", "appendix_case",
           "algebra", "contraction", "wave_equation", "appendix_d",
           "single_wave_exponent", "no_stationary_phase",
           "transform_round_trips"]

Row = tuple[str, float, float, bool]

APPENDIX_TOL = 1e-4  # relative error bound of the |d| oracle vs the closed form


def contraction_scan(n: int, scan) -> tuple[float, list[float], bool]:
    """Poincare residuals over the radius scan, their log-log slope, and
    whether the slope meets the contraction target -1 +- 0.05."""
    st = SpacetimeConfig(n=n)
    res = [lorentz.poincare_residual(st, R) for R in scan]
    slope = float(np.polyfit(np.log(scan), np.log(res), 1)[0])
    return slope, res, abs(slope + 1.0) < 0.05


def appendix_case(n: int, j: int, k: int, rho: float) -> tuple[float, float, float]:
    """(oracle, closed form, relative error) of |d(rho)| in one sector."""
    oracle = limits.appendix_d_oracle(n, j, k, rho)
    closed = specfun.d_abs(n, j, k, rho)
    return oracle, closed, abs(oracle - closed) / closed


def algebra() -> list[Row]:
    """Criterion 1: structure constants, [a, n] = n, and exp of the scaled
    generators against the group matrices, n = 2..5."""
    from scipy.linalg import expm

    rows = []
    for n in (2, 3, 4, 5):
        cfg = SpacetimeConfig(n=n)
        r_struct = lorentz.structure_residual(cfg)
        r_ad = lorentz.iwasawa_ad_residual(cfg)
        tau, y = 0.73, np.linspace(0.2, -0.4, n - 1)
        g_a = expm((tau / cfg.R) * lorentz.generator(cfg, "boost", n, 0))
        gen_n = sum((y[i] / cfg.R) * lorentz.generator(cfg, "iwasawa_n", i + 1)
                    for i in range(n - 1))
        g_n = expm(gen_n)
        e_a = float(np.max(np.abs(g_a - lorentz.boost_a(cfg, tau))))
        e_n = float(np.max(np.abs(g_n - lorentz.horo_n(cfg, y))))
        for label, v in (("structure_residual", r_struct), ("ad(a)n=n", r_ad),
                         ("exp(a) vs boost", e_a), ("exp(n) vs horo", e_n)):
            rows.append((f"{label} n={n}", v, 1e-12, v < 1e-12))
    return rows


def contraction() -> list[Row]:
    """Criterion 3: the Poincare residual falls like 1/R (slope -1 +- 0.05)."""
    rows = []
    for n in (2, 3, 4):
        slope, _, passed = contraction_scan(n, [10.0, 100.0, 1000.0, 10000.0])
        rows.append((f"slope n={n} (+-0.05)", slope, -1.0, passed))
    return rows


def wave_equation() -> list[Row]:
    """Criterion 4: radial ODE and separated-box residuals below 1e-6 with
    Richardson stencils, and plain central stencils of order 2 +- 0.2."""
    rows = []
    grid = np.linspace(0.4, 1.6, 5)

    def wave(alpha, n, rho, l):
        return HyperWave(alpha, rho,
                         HarmonicIndex(n, l if n == 2 else 0, tuple([l] * (n - 2))))

    def order(resid):
        o = math.log2(resid(4e-3) / resid(2e-3))
        return o, 2.0, abs(o - 2.0) < 0.2

    for n in (2, 3, 4):
        for rho in (0.6, 1.1):
            for l in (0, 1):
                r = radial_ode_residual(wave(2, n, rho, l), grid, h=1e-3,
                                        richardson=True)
                rows.append((f"radial n={n} rho={rho} l={l}", r, 1e-6, r < 1e-6))
    for n, rho, l in [(2, 1.1, 1), (3, 0.6, 1), (4, 1.1, 0)]:
        w = wave(1, n, rho, l)
        rows.append((f"radial order n={n} rho={rho} l={l} (+-0.2)",
                     *order(lambda h: radial_ode_residual(w, grid, h=h))))
    for n in (3, 4):
        w = wave(2, n, 0.9, 1)
        ch = HyperChart(0.7, tuple([1.1] * (n - 2)), 0.9)
        r = dalembert_residual(w, ch, h=1e-3, richardson=True)
        rows.append((f"separated box n={n}", r, 1e-6, r < 1e-6))
        rows.append((f"separated box order n={n} (+-0.2)",
                     *order(lambda h: dalembert_residual(w, ch, h=h))))
    return rows


def appendix_d() -> list[Row]:
    """Criterion 6: the Bessel-integral |d| oracle against the closed form,
    36 cases, relative error at most 1e-4."""
    rows = []
    for n in (2, 3, 4):
        for j in (0, 1):
            for k in (0, 1):
                for rho in (0.5, 1.0, 2.0):
                    rel = appendix_case(n, j, k, rho)[2]
                    rows.append((f"|d| n={n} j={j} k={k} rho={rho}", rel,
                                 APPENDIX_TOL, rel <= APPENDIX_TOL))
    return rows


def single_wave_exponent() -> list[Row]:
    """Criterion 8a: windowed decay exponents of one hyperbolic wave within
    0.05 of (n-1)/2, n = 2, 3, 4."""
    rows = []
    rho = 2.5
    for n in (2, 3, 4):
        w = HyperWave(2, rho, HarmonicIndex(n, 0, tuple([0] * (n - 2))))
        betas = np.linspace(2.5, 14.0, 1200)
        fit = limits.decay_fit(np.exp(betas), radial_profile(w, betas),
                               n_windows=3, bin_width=math.pi / rho * 1.05)
        for i, sl in enumerate(fit.slopes):
            target = 0.5 * (n - 1)
            rows.append((f"exponent n={n} window {i} (+-0.05)", sl, target,
                         abs(sl - target) < 0.05))
    return rows


def no_stationary_phase() -> list[Row]:
    """Criterion 8c: the phase gradient has no zero over a seeded point set
    and a direction grid at n = 4."""
    cfg = SpacetimeConfig(n=4)
    rng = np.random.default_rng(88)
    pts = [from_hyper(cfg, HyperChart(rng.normal(),
                                      tuple(rng.uniform(0.2, 2.9, 2)),
                                      rng.uniform(0, 2 * np.pi)))
           for _ in range(10)]
    dirs = [sphere_point(4, (th1, th2), ph)
            for th1 in np.linspace(0.15, np.pi - 0.15, 6)
            for th2 in np.linspace(0.15, np.pi - 0.15, 6)
            for ph in np.linspace(0, 2 * np.pi, 6, endpoint=False)]
    g = limits.phase_gradient_min(pts, dirs)
    return [("min |grad Phi|", g, 0.0, g > 0.0)]


def transform_round_trips() -> list[Row]:
    """Criterion 9: hyperbolic pair (n = 2, l_max = 4) and Mellin round
    trips, and parity preservation of the direct cone transform."""
    # hyperbolic pair, n = 2, l_max = 4, rho window
    grid = QuadratureGrid.build(2, beta_max=24.0, n_beta=8,
                                rho_window=(0.9, 2.6), n_rho=64, l_max=4,
                                n_polar=24, n_azimuth=28)

    def band(r):
        if abs(r - 1.75) >= 0.72:
            return 0.0
        return math.exp(-((r - 1.75) / 0.18) ** 2 / 2.0)

    tables = []
    for r in grid.rho_nodes:
        hc = HyperCoeffs(rho=float(r))
        val = band(float(r))
        if val:
            hc.table[(2, 1, ())] = complex(val)
            hc.table[(1, 3, ())] = complex(0.5 * val)
        tables.append(hc)
    F = fourier_hyper_inverse(tables, grid)
    chis = [fourier_hyper_forward(F, float(r), grid) for r in grid.rho_nodes]
    F2 = fourier_hyper_inverse(chis, grid)
    hyper_err = math.sqrt(float(np.sum(np.abs(F2 - F) ** 2 * grid.measure)
                                / np.sum(np.abs(F) ** 2 * grid.measure)))

    # Mellin round trip on a smooth bump
    s = np.geomspace(0.05, 20.0, 160)

    def h(sv):
        v = np.log(sv)
        out = np.zeros_like(sv)
        inside = np.abs(v) < 2.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - (v[inside] / 2.0) ** 2))
        return out

    varpi = lambda r: mellin_forward(h, 2, r, (1e-4, 1e4), 800)
    back = mellin_inverse(varpi, 2, s, (-170, 170), 9000)
    mellin_err = float(np.max(np.abs(back.real - h(s))) / np.max(h(s)))

    # cone parity preservation, exact to quadrature tolerance
    cgrid = ConeGrid(n=2, n_theta=64, s_window=(1e-3, 1e3), n_s=240)

    def heven(sv, tp, xp):
        g = np.exp(-np.log(sv) ** 2 / 2.0) / np.sqrt(sv)
        return g * (xp[1] ** 2 - xp[0] ** 2 + 0.5 * tp * xp[0])

    psi = cone_fourier_forward(ConeFunction(2, heven, cgrid.s_window),
                               np.array([0.9, 1.7]), cgrid, method="direct")
    half = cgrid.n_theta // 2
    odd = psi.values[1] - np.roll(psi.values[-1], half, axis=0)
    even = psi.values[1] + np.roll(psi.values[-1], half, axis=0)
    parity_leak = float(np.max(np.abs(odd)) / np.max(np.abs(even)))
    return [("hyper round trip", hyper_err, 1e-3, hyper_err <= 1e-3),
            ("mellin round trip", mellin_err, 1e-6, mellin_err <= 1e-6),
            ("cone parity leak", parity_leak, 1e-12, parity_leak < 1e-12)]


SUITES = {
    "algebra": (algebra,),
    "contract": (contraction,),
    "ode": (wave_equation,),
    "appendix": (appendix_d,),
    "decay": (single_wave_exponent, no_stationary_phase),
    "transform": (transform_round_trips,),
}

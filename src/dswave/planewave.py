"""Principal-series plane waves in ambient and hyperbolic form, with the
finite-difference verification engines for the wave equation (their
derivatives come from geometry.central_differences).

The ambient wave is the boundary-value combination
Theta(x.xi) |x.xi/(mu R)|^sigma + e^{-pi(i(n-1)/2 + mu')} Theta(-x.xi)
|x.xi/(mu R)|^sigma with sigma = -(n-1)/2 + i mu'; the branch handling is
exactly this two-term form, never a complex log of a negative number.
_two_branch is its one implementation, shared with the wavepacket synthesis.

The hyperbolic waves carry the prefactor (cosh beta)^{-(n-1)/2 + i rho} and
hypergeometric factors with parameters
    even:  a = (-i rho + l + (n-1)/2)/2,  b = (-i rho - l - (n-3)/2)/2,  c = 1/2
    odd:   a = (-i rho + l + (n+1)/2)/2,  b = (-i rho - l - (n-5)/2)/2,  c = 3/2
(l the top chain label).  The sign of i rho inside a, b is opposite to the
prefactor's: that pairing is the one that solves the radial equation, as the
residual engines below verify.  The mirrored pairing (+i rho inside a, b)
is (cosh beta)^{2 i rho} conj(V), since K is real; ode_variant_report
builds it that way for comparison.  radial_table holds the
one copy of the radial factor: one call of specfun.gauss_2f1_array, the
one 2F1 entry point, over every (rho, top label) pair it is asked for:
it scales the values and returns the worst of the digits lost.
radial_profile is its one-point call.  The large-beta constants (D1, D2)
are specfun.connection_gammas(*hyper_2f1_params(wave)): 2F1 -> D1 + D2
(1-v)^{c-a-b} as v -> 1, so the radial factor behaves like
(cosh b)^{-(n-1)/2} [D1 (cosh b)^{i rho} + D2 (cosh b)^{-i rho}] times the
normalization, with D1 = conj(D2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (AccuracyError, ChartSingularError, ComplementarySeriesError,
                     OnSingularSurfaceError)
from .geometry import (HyperChart, SpacetimeConfig, central_differences,
                       minkowski_dot)
from .specfun import HarmonicIndex

__all__ = [
    "PrincipalMass",
    "principal_mass",
    "principal_mass_from_rho",
    "AmbientWave",
    "psi_ambient",
    "HyperWave",
    "hyper_2f1_params",
    "psi_hyper",
    "radial_profile",
    "radial_table",
    "asymptotic_leading",
    "parity",
    "radial_ode_residual",
    "dalembert_residual",
    "dalembert_horo_residual",
    "ode_variant_report",
]


@dataclass(frozen=True)
class PrincipalMass:
    """Mass bookkeeping (mu, mu', sigma) of a principal-series wave."""

    cfg: SpacetimeConfig
    mu: float
    mu_prime: float
    sigma: complex


def principal_mass(cfg: SpacetimeConfig, mu: float) -> PrincipalMass:
    """Build the (mu, mu', sigma) triple; requires mu >= (n-1)/(2R).

    mu'^2 = mu^2 R^2 - (n-1)^2/4, sigma = -(n-1)/2 + i mu' (positive root).
    """
    if mu < cfg.mu_min:
        raise ComplementarySeriesError(
            f"mu = {mu} below the principal-series minimum {cfg.mu_min}; "
            "the complementary series is not supported")
    half = 0.5 * (cfg.n - 1)
    mu_prime = np.sqrt(max((mu * cfg.R) ** 2 - half**2, 0.0))
    return PrincipalMass(cfg, float(mu), float(mu_prime), complex(-half, mu_prime))


def principal_mass_from_rho(cfg: SpacetimeConfig, rho: float) -> PrincipalMass:
    """Principal mass with mu' = rho (the hyperbolic-label identification)."""
    if rho < 0:
        raise ValueError("rho must be non-negative")
    half = 0.5 * (cfg.n - 1)
    mu = np.sqrt(rho**2 + half**2) / cfg.R
    return PrincipalMass(cfg, float(mu), float(rho), complex(-half, rho))


@dataclass(frozen=True)
class AmbientWave:
    """Plane wave labeled by a null covector xi (xi_0 > 0) and a mass."""

    xi: tuple[float, ...]
    mass: PrincipalMass

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi[0] <= 0:
            raise ValueError("covector must have xi_0 > 0")
        if abs(minkowski_dot(xi, xi)) > 1e-9 * float(xi @ xi):
            raise ValueError("covector must be null")


def _two_branch(mass: PrincipalMass, s):
    """Two-branch ambient wave values at an array of s = x.xi; entries at
    s = 0 are not finite and are left to the caller's policy."""
    cfg = mass.cfg
    w = np.abs(s) / (mass.mu * cfg.R)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.exp(mass.sigma * np.log(w))
    damp = np.exp(-np.pi * (0.5j * (cfg.n - 1) + mass.mu_prime))
    return np.where(s > 0, val, damp * val)


def psi_ambient(wave: AmbientWave, x):
    """Evaluate the ambient plane wave; broadcasts over rows of x.

    Raises OnSingularSurfaceError only for scalar input exactly on
    x.xi = 0; for array input such nodes come back as NaN.
    """
    xi = np.asarray(wave.xi, dtype=float)
    s = minkowski_dot(np.asarray(x, dtype=float), xi)
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if scalar and s[0] == 0.0:
        raise OnSingularSurfaceError("x.xi = 0")
    out = np.where(s == 0, np.nan + 0j, _two_branch(wave.mass, s))
    return out[0] if scalar else out


@dataclass(frozen=True)
class HyperWave:
    """Hyperbolic-family wave: parity label alpha, spectral rho, mode index."""

    alpha: int
    rho: float
    idx: HarmonicIndex

    def __post_init__(self):
        if self.alpha not in (1, 2):
            raise ValueError("alpha must be 1 (odd) or 2 (even)")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @property
    def n(self) -> int:
        return self.idx.n


def _params_2f1(n: int, alpha: int, rho, l):
    """(a, b, c) of the radial 2F1, broadcast over arrays of rho and l."""
    # -i rho, in the operation order that fixes the signs of zero parts
    ir = 1j * np.asarray(rho) * -1.0
    if alpha == 2:
        return (ir + l + 0.5 * (n - 1)) / 2, (ir - l - 0.5 * (n - 3)) / 2, 0.5
    return (ir + l + 0.5 * (n + 1)) / 2, (ir - l - 0.5 * (n - 5)) / 2, 1.5


def hyper_2f1_params(wave: HyperWave):
    """(a, b, c) of the wave's hypergeometric factor; the mirrored pairing
    has the conjugate a and b."""
    a, b, c = _params_2f1(wave.n, wave.alpha, wave.rho, wave.idx.top)
    return complex(a), complex(b), c


# Below this sech^2 is subnormal with fewer than 32 significant bits, and the
# phase (1-v)^{+-i rho} of the connection formula inherits that rounding.
_SECH2_MIN = 2.0 ** -1042


def radial_table(n: int, alpha: int, rhos, tops, beta):
    """Radial factors V_{alpha,l}(beta; rho), K-normalization included, for
    every rho in rhos and top label l in tops, from one 2F1 call over the
    (rho, l) parameter sets.

    Returns (V, digits_lost): V has shape (n_rho, n_top) + beta.shape, and
    digits_lost is the worst cancellation of the 2F1 values, at most 8
    (specfun.gauss_2f1_array raises AccuracyError beyond).  Raises
    AccuracyError where sech^2(beta) < _SECH2_MIN (|beta| > 361.8).  The
    mirrored pairing (+i rho inside a, b) is cosh(beta)**(2j*rho) * conj(V).

    V is real up to rounding.  Here c - a = conj(b) and c - b = conj(a),
    and c - a - b = i rho, so Euler's transformation (DLMF 15.8.1) reads
    F(a, b; c; v) = cosh(beta)^{-2i rho} conj(F(a, b; c; v)) at
    v = tanh^2(beta): cosh(beta)^{i rho} F is its own conjugate, and K is
    real.  The table stays complex and keeps that rounding.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 (odd) or 2 (even)")
    rhos = np.asarray(rhos, dtype=float).reshape(-1, 1)
    tops = np.asarray(tops).reshape(1, -1)
    beta = np.asarray(beta, dtype=float)
    # V(-beta) = +-V(beta): the 2F1 factor and the envelope run on the
    # distinct |beta| only
    ab, back = np.unique(np.abs(beta), return_inverse=True)
    # sech^2 and log cosh from e = e^{-2|beta|}, which cannot overflow
    e = np.exp(-2.0 * ab)
    w = 4.0 * e / (1.0 + e) ** 2
    if np.any(w < _SECH2_MIN):
        raise AccuracyError(
            f"|beta| = {np.max(ab):g} too large: sech^2 underflows")
    log_cosh = ab + np.log1p(e) - np.log(2.0)
    K = specfun.norm_K(alpha, n, tops, rhos)
    f, lost = specfun.gauss_2f1_array(*_params_2f1(n, alpha, rhos, tops),
                                      np.tanh(ab) ** 2, one_minus_v=w)
    f *= np.exp((-0.5 * (n - 1) + 1j * rhos[:, :, None]) * log_cosh)
    # V owns its buffer, shape (n_rho, n_top) + beta.shape
    V = np.take(f, back.reshape(beta.shape), axis=2)
    if alpha == 1:
        np.multiply(2.0 * np.tanh(beta), V, out=V)
    V /= np.sqrt(K).reshape(K.shape + (1,) * beta.ndim)
    return V, float(lost.max(initial=0.0))


def radial_profile(wave: HyperWave, beta):
    """Radial factor V(beta), including the K-normalization prefactor: the
    one-point call of radial_table.  Its 2F1 factor loses at most 8 digits
    to cancellation (the budget of specfun.gauss_2f1_array, which raises
    AccuracyError beyond, from rho of about 100 at small beta); AccuracyError also
    where sech^2(beta) < _SECH2_MIN (|beta| > 361.8).  The mirrored pairing
    is np.cosh(beta)**(2j*rho) * np.conj(radial_profile(wave, beta))."""
    V, _ = radial_table(wave.n, wave.alpha, [wave.rho], [wave.idx.top], beta)
    return V[0, 0][()]


def psi_hyper(wave: HyperWave, chart: HyperChart) -> complex:
    """Hyperbolic plane wave at a chart point: radial_profile times the
    harmonic (the mirrored pairing takes the mirrored radial_profile)."""
    Y = specfun.hypersph_Y(wave.idx, chart.phis, chart.phi)
    return complex(radial_profile(wave, chart.beta) * Y)


def asymptotic_leading(wave: HyperWave, beta, phis, phi,
                       beta0: float = 5.0, window: float = 4.0,
                       samples: int = 160) -> complex:
    """Forward component of the large-beta asymptotics.

    Returns D' (cosh beta)^{-(n-1)/2 + i rho} Y(angles), with D' fitted once
    per wave by projecting the radial factor onto the forward mode over a
    window around beta0 (a plain point fit would be contaminated by the
    counter-rotating component of equal modulus).
    """
    n, rho = wave.n, wave.rho
    bs = np.linspace(beta0 - window / 2, beta0 + window / 2, samples)
    # fit the envelope-normalized profile on both rotating components and
    # keep the forward one (a plain point fit or single-mode projection is
    # contaminated by the counter-rotating part of equal modulus)
    W = radial_profile(wave, bs) * np.cosh(bs) ** (0.5 * (n - 1))
    basis = np.stack([np.cosh(bs) ** complex(0.0, rho),
                      np.cosh(bs) ** complex(0.0, -rho)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, W, rcond=None)
    Dp = coef[0]
    Y = specfun.hypersph_Y(wave.idx, phis, phi)
    return complex(Dp * np.cosh(beta) ** complex(-0.5 * (n - 1), rho) * Y)


def parity(wave: HyperWave) -> str:
    """'even' if alpha + top label is even, else 'odd' (antipodal parity)."""
    return "even" if (wave.alpha + wave.idx.top) % 2 == 0 else "odd"


def _radial_residual(profile, n: int, rho: float, L: float, beta_grid,
                     h: float, richardson: bool) -> float:
    """The residual of radial_ode_residual for V = profile(beta array)."""
    grid = np.atleast_1d(np.asarray(beta_grid, dtype=float))
    V, dV, d2V = central_differences(lambda q: profile(grid + q[0]),
                                     [0.0], h, richardson)
    r = (d2V[:, 0, 0] + (n - 1) * np.tanh(grid) * dV[:, 0]
         + (rho**2 + 0.25 * (n - 1) ** 2 + L / np.cosh(grid) ** 2) * V)
    return float(np.max(np.abs(r)) / np.max(np.abs(V)))


def radial_ode_residual(wave: HyperWave, beta_grid, h: float = 1e-3,
                        richardson: bool = False) -> float:
    """Max relative residual of the separated radial equation on a grid.

    The equation tested is
    V'' + (n-1) tanh(b) V' + [rho^2 + (n-1)^2/4 + L/cosh^2(b)] V = 0
    with L = l(l + n - 2) for the top chain label l.  The derivatives
    shift the whole grid at once: one radial_profile call per stencil point.
    ode_variant_report tests the mirrored pairing and the lowest label.
    """
    n, l = wave.n, wave.idx.top
    return _radial_residual(lambda b: radial_profile(wave, b), n, wave.rho,
                            l * (l + n - 2), beta_grid, h, richardson)


def dalembert_residual(wave: HyperWave, chart: HyperChart, h: float = 1e-3,
                       richardson: bool = False) -> float:
    """Relative residual of (box - mu^2) psi at a hyperbolic chart point.

    box = -d^2/db^2 - (n-1) tanh(b) d/db + Delta/cosh^2(b) in unit-radius
    coordinates, with mu^2 = rho^2 + (n-1)^2/4, and the sphere Laplacian in
    its recursive form: sum_k (d_k^2 + (n-1-k) cot(phi_k) d_k) / prod_{i<k}
    sin^2(phi_i), the azimuth term over the full product.  A polar angle
    within h of an angular coordinate singularity (phi_k = 0 or pi), which
    the stencil would reach, raises ChartSingularError.
    """
    n, rho = wave.n, wave.rho
    for p in chart.phis:
        if abs(p - np.pi * np.round(p / np.pi)) <= h:
            raise ChartSingularError(
                f"polar angle {p} within the step h = {h} of a chart pole")
    mu2 = rho**2 + 0.25 * (n - 1) ** 2
    # q = (beta, phi_1..phi_{n-2}, phi)
    val, g, H = central_differences(
        lambda q: psi_hyper(wave, HyperChart(q[0], tuple(q[1:-1]), q[-1])),
        (chart.beta,) + tuple(chart.phis) + (chart.phi,), h, richardson)
    lap = 0.0 + 0.0j
    sin_prod = 1.0
    for k, t in enumerate(chart.phis, start=1):
        lap += (H[k, k] + (n - 1 - k) * (np.cos(t) / np.sin(t)) * g[k]) / sin_prod**2
        sin_prod *= np.sin(t)
    lap += H[-1, -1] / sin_prod**2
    b = chart.beta
    box = -H[0, 0] - (n - 1) * np.tanh(b) * g[0] + lap / np.cosh(b) ** 2
    return float(abs(box - mu2 * val) / abs(val))


def dalembert_horo_residual(cfg: SpacetimeConfig, F, tau: float, y,
                            mu: float, h: float = 1e-3,
                            richardson: bool = False) -> float:
    """Relative residual of (box - mu^2) F in the horospheric chart.

    The chart metric is -dtau^2 + e^{-2 tau/R} |dy|^2, so
    box = -d_tau^2 + ((n-1)/R) d_tau + e^{2 tau/R} sum_i d_{y_i}^2.
    F is a callable F(tau, y) -> complex; used for ambient plane waves and
    synthesized wavepacket fields alike.
    """
    R = cfg.R
    # q = (tau, y_1..y_{n-1})
    val, g, H = central_differences(lambda q: F(q[0], q[1:]),
                                    np.concatenate(([tau], y)), h, richardson)
    box = (-H[0, 0] + ((cfg.n - 1) / R) * g[0]
           + np.exp(2 * tau / R) * np.trace(H[1:, 1:]))
    return float(abs(box - mu**2 * val) / abs(val))


def ode_variant_report(n: int = 4, rho: float = 0.8,
                       ls: tuple[int, ...] = (0, 2), m: int = 0,
                       beta_grid=None, h: float = 1e-3) -> dict[str, float]:
    """Residuals of both parameter pairings against both ODE variants.

    Keys are '<params>/<ell>' with params in {solution, mirror} and ell in
    {top, l1}, the chain label in the potential.  The mirrored pairing is
    (cosh beta)^{2 i rho} conj(V).  At n >= 4 with l_1 != l_{n-2} only
    'solution/top' is small, which pins down both conventions at once.
    """
    if beta_grid is None:
        beta_grid = np.linspace(0.35, 1.8, 7)
    chain = (abs(m),) + tuple(ls)
    labels = {"top": chain[-1], "l1": chain[1] if len(chain) > 1 else chain[0]}
    report = {}
    for alpha in (1, 2):
        wave = HyperWave(alpha, rho, HarmonicIndex(n, m, ls))
        profiles = {"solution": lambda b: radial_profile(wave, b),
                    "mirror": lambda b: (np.cosh(b) ** (2j * rho)
                                         * np.conj(radial_profile(wave, b)))}
        for label, profile in profiles.items():
            for ell, l in labels.items():
                report[f"alpha{alpha}/{label}/{ell}"] = _radial_residual(
                    profile, n, rho, l * (l + n - 2), beta_grid, h, False)
    return report

"""Verification engines for the asymptotic claims: absence of stationary
phase and fast decrease, the flat (large radius) limit of plane waves and
of the Casimir action, and the brute-force oracle for the intertwiner
constant |d(rho)|.

Everything here produces measurements (tables, fitted slopes, residuals)
rather than proofs; the acceptance suite asserts on the fitted numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .errors import AccuracyError, OnSingularSurfaceError, PoleError
from .geometry import (HoroChart, SpacetimeConfig, central_differences, from_horo,
                       minkowski_dot)
from .planewave import AmbientWave, principal_mass, psi_ambient, radial_table

__all__ = [
    "minkowski_covector",
    "phase_gradient",
    "phase_gradient_min",
    "DecayFit",
    "decay_fit",
    "flat_limit_deviation",
    "off_shell_damping",
    "casimir_action_limit",
    "gamma_phase_split",
    "gamma_gradient_shell",
    "spectral_smearing_contrast",
    "bessel_pair_integral",
    "appendix_d_oracle",
]


# ------------------------------------------------------------ flat-side data


def minkowski_covector(xi, mu: float | None = None, tol: float = 1e-10) -> np.ndarray:
    """Flat-space covector (xi_0, -xi_1, ..., -xi_{n-1}) from an absolute one.

    When mu is given, checks the mass-shell identity xibar.xibar = -mu^2
    (equivalent to xi_n = mu for a null xi).
    """
    xi = np.asarray(xi, dtype=float)
    xibar = np.concatenate(([xi[0]], -xi[1:-1]))
    if mu is not None:
        q = float(minkowski_dot(xibar, xibar))
        if abs(q + mu**2) > tol * max(mu**2, 1.0):
            raise ValueError(f"xibar.xibar = {q} is not -mu^2 = {-mu**2}")
    return xibar


# --------------------------------------------------------- stationary phase


def phase_gradient(x, xi) -> np.ndarray:
    """Gradient of the plane-wave phase profile over the absolute.

    (1/((|x_0| + |x|)(x.xi))) * (x_1 - x_0 xi_1/xi_0, ..., x_n - x_0 xi_n/xi_0)

    x and xi broadcast over their leading axes (the last axis is the vector
    index), so points of shape (P, 1, n+1) against covectors of shape
    (D, n+1) give all P x D gradients, shape (P, D, n).  Raises
    OnSingularSurfaceError if x.xi = 0 for any pair.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    dot = minkowski_dot(x, xi)
    if np.any(dot == 0.0):
        raise OnSingularSurfaceError("x.xi = 0")
    s = np.abs(x[..., 0]) + np.linalg.norm(x[..., 1:], axis=-1)
    return ((x[..., 1:] - x[..., :1] * xi[..., 1:] / xi[..., :1])
            / (s * dot)[..., None])


def phase_gradient_min(points, directions) -> float:
    """Min over (x, xi) grids of |grad Phi|; positive means no fixed point.

    One phase_gradient call covers every point against every covector
    xi = (1, u) of the directions."""
    x = np.asarray(points, dtype=float)[:, None]
    u = np.asarray(directions, dtype=float)
    xi = np.concatenate([np.ones((len(u), 1)), u], axis=1)
    return float(np.min(np.linalg.norm(phase_gradient(x, xi), axis=-1)))


# -------------------------------------------------------------- decay fits


@dataclass
class DecayFit:
    """Windowed power-law fit of a decaying field sample.

    slopes[i] is the fitted d log|f| / d log s on window i (sign flipped so
    a decay like s^-p reports p), fitted to bin maxima that ride over
    modulus oscillations.  status is "ok" when at least one window was
    fitted, "no-fit" when none was, "noise-limited" when a window fell
    below the noise floor, and "zero-field" for |f| = 0.
    """

    s_windows: list[tuple[float, float]] = field(default_factory=list)
    slopes: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    non_decreasing: bool = True
    status: str = "ok"


def decay_fit(s_values, f_values, n_windows: int = 4, noise_floor: float = 0.0,
              bin_width: float | None = None) -> DecayFit:
    """Fit per-window decay exponents of |f| against s.

    The sample is split into n_windows log-spaced windows; within each
    window the samples are grouped into log-s bins of width bin_width
    (in log s), reduced to bin maxima, and fitted by least squares.  For
    oscillating moduli, bin_width must cover at least one oscillation
    period so the maxima trace the envelope (for the hyperbolic standing
    waves that period is pi/rho in beta = log s).
    Windows whose amplitude falls below noise_floor mark the fit
    noise-limited.  A window with fewer than 6 samples, or fewer than 3
    nonzero bins, is skipped; if every window is skipped the status is
    "no-fit" and slopes is empty.
    """
    s = np.asarray(s_values, dtype=float)
    f = np.abs(np.asarray(f_values))
    if np.all(f == 0.0):
        return DecayFit(status="zero-field")
    out = DecayFit()
    log_lo, log_hi = math.log(s.min()), math.log(s.max())
    if bin_width is None:
        bin_width = (log_hi - log_lo) / (n_windows * 8.0)
    edges = np.geomspace(s.min(), s.max(), n_windows + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (s >= lo) & (s <= hi)
        if sel.sum() < 6:
            continue
        ss, ff = s[sel], f[sel]
        if np.max(ff) <= noise_floor:
            out.status = "noise-limited"
            break
        nbins = max(3, int(round(math.log(hi / lo) / bin_width)))
        bins = np.geomspace(lo, hi, nbins + 1)
        which = np.digitize(ss, bins)
        # bin by bin, the first of the samples with the bin's largest
        # |f|: the sort is stable, so ties keep the sample order
        order = np.lexsort((-ff, which))
        first = np.ones(order.size, dtype=bool)
        first[1:] = which[order[1:]] != which[order[:-1]]
        ss, ff = ss[order[first]], ff[order[first]]
        good = ff > 0
        if good.sum() < 3:
            continue
        coef, res = np.polyfit(np.log(ss[good]), np.log(ff[good]), 1, full=True)[:2]
        out.s_windows.append((float(lo), float(hi)))
        out.slopes.append(float(-coef[0]))
        out.residuals.append(float(res[0]) if len(res) else 0.0)
    if not out.slopes and out.status == "ok":
        out.status = "no-fit"
    out.non_decreasing = all(b >= a - 0.05 for a, b in zip(out.slopes, out.slopes[1:]))
    return out


# ---------------------------------------------------------------- flat limit


def _horo_point(n: int, R: float, y) -> np.ndarray:
    """Ambient point at horospheric coordinates y = (tau, y_vec), eps = +1."""
    return from_horo(SpacetimeConfig(n=n, R=R), HoroChart(y[0], tuple(y[1:]), 1))


def _ambient_wave(n: int, R: float, mu: float, xi) -> AmbientWave:
    mass = principal_mass(SpacetimeConfig(n=n, R=R), mu)
    return AmbientWave(tuple(np.asarray(xi, dtype=float)), mass)


def flat_limit_deviation(n: int, mu: float, xi, y, R_values) -> dict:
    """|Psi_mu(x(y; R), xi) - e^{i y.xibar}| per R, with a log-log rate fit.

    xi must be null with xi_n = mu; y = (tau, y_vec) is held fixed in the
    horospheric chart (eps = +1) while R grows.  Returns a dict with the
    deviation table and the fitted slope (expected near -1).
    """
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    if abs(xi[-1] - mu) > 1e-12 * max(mu, 1.0):
        raise ValueError("flat_limit_deviation expects the on-shell slice xi_n = mu")
    xibar = minkowski_covector(xi, mu=mu)
    target = np.exp(1j * minkowski_dot(y, xibar))
    devs = []
    for R in R_values:
        wave = _ambient_wave(n, float(R), mu, xi)
        devs.append(abs(psi_ambient(wave, _horo_point(n, float(R), y)) - target))
    devs = np.asarray(devs)
    R_arr = np.asarray(list(R_values), dtype=float)
    good = devs > 1e-14
    slope = float(np.polyfit(np.log(R_arr[good]), np.log(devs[good]), 1)[0]) \
        if good.sum() >= 2 else float("nan")
    return {"R": R_arr, "deviation": devs, "slope": slope}


def off_shell_damping(n: int, mu: float, xi_spatial, y, R_values,
                      window: tuple[float, float] = (1.1, 1.6),
                      n_nodes: int = 96) -> dict:
    """Window-averaged |<Psi>| over an off-shell xi_n interval, per R.

    The family xi(nu) = (sqrt(|xi_vec|^2 + nu^2), xi_vec, nu) is averaged
    with a smooth bump over nu in [mu*window[0], mu*window[1]].  Pointwise
    |Psi| stays order one; the average decays like 1/R (the weak limit).
    The node count grows with R to resolve the O(R) phase sweep across
    the window.
    """
    xi_sp = np.asarray(xi_spatial, dtype=float)  # length n-1
    y = np.asarray(y, dtype=float)
    lo, hi = mu * window[0], mu * window[1]
    out = []
    for R in R_values:
        nodes = max(n_nodes, int(0.8 * float(R) * math.log(hi / lo)) + 32)
        nus, ws = specfun.gauss_panels((lo, hi), nodes)
        t = (2.0 * (nus - lo) / (hi - lo)) - 1.0
        bump = np.exp(1.0 - 1.0 / (1.0 - t**2))
        x = _horo_point(n, float(R), y)
        mass = principal_mass(SpacetimeConfig(n=n, R=float(R)), mu)
        acc = 0.0 + 0.0j
        for nu, w, b in zip(nus, ws, bump):
            xi = np.concatenate(([math.hypot(*xi_sp, nu)], xi_sp, [nu]))
            acc += w * b * psi_ambient(AmbientWave(tuple(xi), mass), x)
        out.append(abs(acc) / float(ws @ bump))
    return {"R": np.asarray(list(R_values), dtype=float),
            "averaged": np.asarray(out)}


def casimir_action_limit(n: int, mu: float, xi, y, R_values,
                         h_values=(2e-3, 1e-3)) -> dict:
    """Difference-operator check of the contracted Casimir action.

    In the horospheric chart (a = iR(d_tau + sum (y_i/R) d_{y_i}),
    n_i = iR d_{y_i}) the scaled squares are applied to the plane wave by
    central differences; per (R, h) the table records
        r_n  = max_i |n'_i n'_i Psi - xi_i^2 Psi|,
        r_a  = |a'^2 Psi - xi_0^2 Psi|,
        r_c  = |(sum n'^2 - a'^2) Psi + mu^2 Psi|   (on-shell only)
    all relative to |Psi|.  A two-parameter fit r = c1/R + c2 h^2 per
    residual family is returned.
    """
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = []
    for R in R_values:
        R = float(R)
        wave = _ambient_wave(n, R, mu, xi)
        v = np.concatenate(([1.0], y[1:] / R))  # a' = a/R = i v.grad
        for h in h_values:
            # full Hessian in q = (tau, y_vec)
            val, g, H = central_differences(
                lambda q: psi_ambient(wave, _horo_point(n, R, q)), y, h, mixed=True)
            # n'_i n'_i = -d_{y_i}^2 ; a'^2 = -(v.grad)^2 = -(v H v + (v_y/R).grad_y)
            nn = -np.diagonal(H)[1:]
            r_n = np.max(np.abs(nn - xi[1:-1] ** 2 * val)) / abs(val)
            a2 = -(v @ H @ v + (v[1:] / R) @ g[1:])
            r_a = abs(a2 - xi[0] ** 2 * val) / abs(val)
            row = {"R": R, "h": float(h), "r_n": float(r_n), "r_a": float(r_a)}
            if abs(xi[-1] - mu) < 1e-12 * max(mu, 1.0):
                row["r_c"] = float(abs((nn.sum() - a2) + mu**2 * val) / abs(val))
            rows.append(row)

    def fit(key):
        A = np.array([[1.0 / r["R"], r["h"] ** 2] for r in rows if key in r])
        b = np.array([r[key] for r in rows if key in r])
        if len(b) < 2:
            return None
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        return {"c_R": float(coef[0]), "c_h2": float(coef[1])}

    return {"table": rows, "fits": {k: fit(k) for k in ("r_n", "r_a", "r_c")}}


def gamma_phase_split(n: int, mu: float, xi, y, R: float) -> tuple[float, float]:
    """Split the plane-wave phase rate into (bracket, Gamma_y(xibar)).

    Gamma_y = (1/s) mu R log(1 + y.xibar/(mu R)); the bracket term
    mu R Phi_x(xi) - Gamma_y tends to 0 as R grows.
    """
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    x = _horo_point(n, float(R), y)
    s = abs(x[0]) + float(np.linalg.norm(x[1:]))
    dot = minkowski_dot(x, xi)
    phi = math.log(abs(dot / (mu * R))) / s
    xibar = minkowski_covector(xi)
    ydot = minkowski_dot(y, xibar)
    gamma = mu * R * math.log1p(ydot / (mu * R)) / s
    return mu * R * phi - gamma, gamma


def gamma_gradient_shell(mu: float, y, xibar1: float,
                         R: float = 1e6, s: float = 1.0) -> float:
    """d Gamma_y / d xibar_1 restricted to the flat mass shell (1+1 case).

    Parametrize xibar = (sqrt(mu^2 + q^2), q); zeros locate the stationary
    directions of the flat-limit phase, at q/e = y_1/tau inside the cone.
    """
    q = xibar1
    e = math.hypot(mu, q)
    ydot = -y[0] * e + y[1] * q
    dydot = -y[0] * q / e + y[1]
    return dydot / (s * (1.0 + ydot / (mu * R)))


def spectral_smearing_contrast(n: int = 2, rho_center: float = 2.5,
                               widths=(0.0, 0.6, 1.2),
                               beta_span: tuple[float, float] = (2.5, 16.0),
                               n_beta: int = 1200) -> dict:
    """Decay exponents of fixed-rho versus rho-smeared radial packets.

    A superposition at sharp rho decays exactly at the envelope rate
    (n-1)/2; smearing rho over a smooth window of increasing width makes
    the decay beat the envelope (non-stationary phase in the spectral
    variable).  Returns width -> per-window maxima of the
    envelope-normalized modulus |f| e^{(n-1)beta/2}: constant for the
    sharp packet, decaying ever faster with the smearing width.
    """
    betas = np.linspace(beta_span[0], beta_span[1], n_beta)
    nodes, wts = specfun.gauss_rule(48)
    bump = np.exp(1.0 - 1.0 / (1.0 - nodes**2))
    out = {}
    edges = np.linspace(beta_span[0], beta_span[1], 4)
    for w in widths:
        if w == 0.0:
            rhos, weights = np.array([rho_center]), np.ones(1)
        else:
            rhos, weights = rho_center + 0.5 * w * nodes, 0.5 * w * wts * bump
        # one table call over every rho node of the width, top label 0
        field = weights @ radial_table(n, 2, rhos, [0], betas)[0][:, 0]
        norm = np.abs(field) * np.exp(0.5 * (n - 1) * betas)
        peaks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (betas >= lo) & (betas <= hi)
            peaks.append(float(norm[sel].max()))
        out[w] = peaks
    return out


# ------------------------------------------------------- appendix |d| oracle


def _bessel_product_series(eta: float, nu: float, terms: int = 24) -> np.ndarray:
    """Coefficients a_p of J_eta(y) J_nu(y) = (y/2)^{eta+nu} sum_p a_p (y/2)^{2p}."""
    m = np.arange(1, terms)

    def coeffs(order):
        # c_m = (-1)^m / (m! Gamma(order + m + 1)) by c_m = -c_{m-1} / (m (order + m))
        return np.cumprod(np.concatenate(([1.0 / math.gamma(order + 1.0)],
                                          -1.0 / (m * (order + m)))))

    return np.convolve(coeffs(eta), coeffs(nu))[:terms]


# the Hankel tail starts at y = Y0 = 40, doubled up to 640 while the order
# needs it; its first omitted term must stay below 1e-15 of the leading one
_HANKEL_Y0 = 40.0
_HANKEL_Y0_MAX = 640.0
_HANKEL_TOL = 1e-15
# bessel_pair_integral: the series panel covers [0, _Y_SPLIT], Gauss-Legendre
# panels of _PANEL_NODES nodes and width about _PANEL_WIDTH cover [_Y_SPLIT,
# Y0]; the series panel's e^{-eps _Y_SPLIT} underflows past eps _Y_SPLIT = 700.
# Y0 and so the panels depend only on the order (eta, nu): _bessel_panels
# builds their nodes, weights and Bessel values once per order and keeps at
# most _PANEL_CACHE_ORDERS orders (the oracle's sectors n 2-5, j 0-2 use 16)
_Y_SPLIT = 2.0
_PANEL_WIDTH = math.pi / 2.0
_PANEL_NODES = 16
_SERIES_PANEL_X_MAX = 700.0
_PANEL_CACHE_ORDERS = 32
# appendix_d_oracle raises AccuracyError above this leave-one-out spread
_EXTRAPOLATION_SPREAD_MAX = 5e-4
# resolution of y^{i rho} and eps^{-i rho}, measured against d_abs over n
# 2-5, j 0-2, k 0-1.  On the [_Y_SPLIT, Y0] panels (largest step in log y
# 0.054, in the first panel) the integral is within 1.3e-8 of a 64-node
# rule at 2.9 nodes per turn of y^{i rho} (rho 40), 6e-6 at 2.3; below
# _PANEL_NODES_PER_TURN_MIN bessel_pair_integral raises AccuracyError.  On
# the default eps grid (step 0.48 in log eps) |d| is within 4.0e-5 up to a
# phase step rho max dlog eps of 6.0 rad (rho 12.5), 1.3e-4 at 6.19, and
# the fit breaks down at 2 pi, where eps^{-i rho} aliases to a constant;
# above _EPS_PHASE_STEP_MAX appendix_d_oracle raises AccuracyError
_PANEL_NODES_PER_TURN_MIN = 3.0
_EPS_PHASE_STEP_MAX = 6.0


def _hankel_terms(eta: float) -> tuple[float, np.ndarray, float]:
    """(Y0, b_m, estimate) of the Hankel expansion of J_eta past Y0.

    b_m = a_m(eta) Y0^{-m} (DLMF 10.17.1) for the kept terms; the estimate
    is the first omitted one, which bounds the truncation for real y >= Y0
    (DLMF 10.17(iii)).  For half-integer eta the expansion terminates and
    the estimate is 0.  Y0 doubles while a term exceeds the leading one or
    the terms start to grow before the estimate falls below _HANKEL_TOL;
    past _HANKEL_Y0_MAX that raises AccuracyError.
    """
    y0 = _HANKEL_Y0
    while True:
        b = [1.0]
        while True:
            m = len(b) - 1
            nxt = b[-1] * (4.0 * eta * eta - (2 * m + 1) ** 2) / (8.0 * (m + 1) * y0)
            if abs(nxt) <= _HANKEL_TOL:
                return y0, np.array(b), abs(nxt)
            if abs(nxt) > 1.0 or (2 * m + 1 > 2.0 * eta
                                  and abs(nxt) >= abs(b[-1])):
                break  # a term above the leading one, or past the smallest
            b.append(nxt)
        if y0 >= _HANKEL_Y0_MAX:
            raise AccuracyError(
                f"Hankel expansion of J_{eta} does not reach {_HANKEL_TOL:g} "
                f"relative for y >= {y0:g}")
        y0 *= 2.0


def _hankel_tail(eta: float, nu: float, rho: float,
                 eps: np.ndarray) -> tuple[float, np.ndarray]:
    """(Y0, int_{Y0}^inf y^{i rho} J_eta(y) J_nu(y) e^{-eps y} dy) per eps.

    With J_a(y) = sqrt(2/(pi y)) Re[e^{i w_a} sum_m i^m a_m(a) y^{-m}],
    w_a = y - a pi/2 - pi/4 (DLMF 10.17.3), and nu = +-1/2 (one term),
    J_eta J_nu = (1/(2 pi y)) sum_m a_m y^{-m} [2 Re(c1 i^m)
    + c2 i^m e^{2iy} + conj(c2) (-i)^m e^{-2iy}], c1 = e^{-i(eta-nu)pi/2},
    c2 = e^{-i(eta+nu+1)pi/2}.  Against y^{i rho} e^{-eps y} each term
    integrates to Y0^{i rho - m} z^{-s} Gamma(s, z) with s = i rho - m and
    z = p Y0, p = eps, eps - 2i, eps + 2i (DLMF 8.2.2): one gamma_upper call.
    At half-integer eta, eta - nu is an integer d and 2 Re(c1 i^m) =
    2 cos((m - d) pi/2) vanishes for odd m - d, so those real-axis terms
    are left out.
    """
    y0, b, _ = _hankel_terms(eta)
    m = np.arange(b.size)
    c1 = np.exp(-0.5j * math.pi * (eta - nu))
    c2 = np.exp(-0.5j * math.pi * (eta + nu + 1.0))
    im = 1j ** m
    w = b[:, None] * np.stack([2.0 * (c1 * im).real, c2 * im,
                               np.conj(c2 * im)], axis=1)
    keep = np.ones(w.shape, dtype=bool)
    if (eta - nu) % 1.0 == 0.0:
        keep[(m - int(eta - nu)) % 2 == 1, 0] = False
    mi, pj = np.nonzero(keep)
    s = (1j * rho - m[mi])[:, None]
    z = (eps[None, :] + np.array([0.0, -2j, 2j])[pj, None]) * y0
    g = np.exp(-s * np.log(z)) * specfun.gamma_upper(s, z)
    return y0, y0 ** (1j * rho) / (2.0 * math.pi) * (w[mi, pj] @ g)


@functools.lru_cache(maxsize=_PANEL_CACHE_ORDERS)
def _bessel_panels(eta: float, nu: float) -> tuple[np.ndarray, ...]:
    """(yy, wy, J_eta(yy), J_nu(yy)): the Gauss-Legendre nodes and weights
    of the panels on [_Y_SPLIT, Y0] and both Bessel functions on them, with
    Y0 from _hankel_terms(eta).  Built once per order and held read-only,
    so no caller can change what a later call reads."""
    y0 = _hankel_terms(eta)[0]
    yy, wy = specfun.gauss_panels(
        np.linspace(_Y_SPLIT, y0, math.ceil((y0 - _Y_SPLIT) / _PANEL_WIDTH) + 1),
        _PANEL_NODES)
    panels = (yy, wy, specfun.bessel_j(eta, yy), specfun.bessel_j(nu, yy))
    for a in panels:
        a.flags.writeable = False
    return panels


def bessel_pair_integral(n: int, j: int, k: int, rho: float,
                         eps) -> complex | np.ndarray:
    """Regularized integral I(eps) of y^{i rho} J_eta(y) J_nu(y) e^{-eps y}.

    eta = (n + 2j - 2)/2 and nu = -1/2 (k even) or +1/2 (k odd).  The
    integral splits at y = 2 and at a cut Y0 = 40:

    * [0, 2]: the power series of J_eta J_nu, each term of which
      integrates against y^{i rho} e^{-eps y} to a lower incomplete Gamma
      function, specfun.gamma_lower_scaled (DLMF 8.7.1; it handles the
      oscillation of y^{i rho} at the origin; eps above 350, where
      e^{-2 eps} underflows, raises AccuracyError);
    * [2, Y0]: Gauss-Legendre panels of width about pi/2 with 16 nodes;
    * [Y0, inf): the Hankel expansion of J_eta (DLMF 10.17.3; J_{+-1/2} is
      its one-term case), each term of which integrates in closed form to
      an upper incomplete Gamma function (DLMF 8.2.2), evaluated by
      specfun.gamma_upper (DLMF 8.7.1 and 8.9.2).

    The expansion is exact for half-integer eta.  For integer eta it is
    cut at the first term below 1e-15 of the leading one, which bounds
    the truncation error for real y >= Y0 (DLMF 10.17(iii)); Y0 doubles,
    up to 640, while the order needs it, and AccuracyError is raised
    beyond that.  The panels resolve y^{i rho} with at least 3 nodes per
    turn (at the widest step in log y between nodes) or raise
    AccuracyError: rho up to about 38.

    eps is a positive finite scalar (the result is a complex) or a 1-D
    array (one value per eps, in input order).  The panel nodes, weights
    and Bessel values on [2, Y0] depend only on the order (eta, nu): they
    are built on the first call for each order, kept read-only for at most
    32 orders (_bessel_panels), and shared by every rho and eps.  rho <= 0
    raises PoleError (the Gamma(i rho) of the eps^{-i rho} tail has its
    pole at 0); n < 2, j < 0 or k < 0 raise ValueError.
    """
    if n < 2 or j < 0 or k < 0:
        raise ValueError(f"the Bessel-pair integral needs n >= 2, j >= 0 and "
                         f"k >= 0, got n={n}, j={j}, k={k}")
    if rho <= 0:
        raise PoleError(f"the Bessel-pair integral needs rho > 0, got {rho}")
    eps_arr = np.asarray(eps, dtype=float)
    if eps_arr.ndim > 1 or eps_arr.size == 0:
        raise ValueError("eps must be a scalar or a non-empty 1-D array")
    if not np.all(np.isfinite(eps_arr) & (eps_arr > 0.0)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    eps_vec = np.atleast_1d(eps_arr)
    eta = 0.5 * (n + 2 * j - 2)
    nu = 0.5 if k % 2 else -0.5
    yy, wy, je, jn = _bessel_panels(eta, nu)
    per_turn = 2.0 * math.pi / (rho * np.max(np.diff(np.log(yy))))
    if per_turn < _PANEL_NODES_PER_TURN_MIN:
        raise AccuracyError(f"y^(i rho) at rho = {rho:g} has {per_turn:.2f} nodes per "
                            f"turn on the Bessel panels, below {_PANEL_NODES_PER_TURN_MIN:g}")
    val = _hankel_tail(eta, nu, rho, eps_vec)[1]
    # series panel: J_eta J_nu = sum_p a_p (y/2)^{w_p - 1 - i rho} with
    # w_p = eta+nu+2p+1+i rho, and int_0^Y y^{w-1} e^{-eps y} dy =
    # Y^w x^{-w} gamma(w, x) at x = eps Y; unlike the Taylor series of
    # e^{-eps y} this sum does not cancel or need more terms as eps grows
    a_p = _bessel_product_series(eta, nu)
    base = eta + nu + 2.0 * np.arange(a_p.size)
    w = base + 1.0 + 1j * rho
    x = eps_vec * _Y_SPLIT
    if x.max() > _SERIES_PANEL_X_MAX:
        raise AccuracyError(f"eps*{_Y_SPLIT:g} = {x.max():g} above "
                            f"{_SERIES_PANEL_X_MAX:g}: e^(-eps y) underflows")
    lower = specfun.gamma_lower_scaled(w[:, None], x[None, :])
    val += np.sum((a_p * 2.0 ** (-base) * _Y_SPLIT ** w)[:, None] * lower, axis=0)
    # Gauss panels on [_Y_SPLIT, Y0], built once per order
    g = wy * yy ** (1j * rho) * je * jn
    val += np.sum(np.exp(-eps_vec[:, None] * yy) * g, axis=1)
    return complex(val[0]) if eps_arr.ndim == 0 else val


def _extrapolate(A: np.ndarray, vals: np.ndarray) -> tuple[complex, float]:
    """(c_0, spread) of the least-squares fit A c = vals and of its
    leave-one-out fits: c_0 of the full fit, and the largest distance of a
    leave-one-out c_0 from it, relative to |c_0|.

    All N + 1 fits are one stacked pseudo-inverse: copy i of A has row i
    zeroed, which the pseudo-inverse ignores as a fit without that row
    would.  Singular values below max(N, P) rounding units of the largest
    are cut, as np.linalg.lstsq with rcond=None cuts them, so a
    rank-deficient fit gives the minimum-norm solution, not LinAlgError.
    """
    rows = np.arange(A.shape[0])
    stack = np.repeat(A[None], rows.size + 1, axis=0)
    stack[rows + 1, rows] = 0.0
    c0 = np.linalg.pinv(stack, max(A.shape) * np.finfo(float).eps)[:, 0] @ vals
    spread = np.max(np.abs(c0[1:] - c0[0]), initial=0.0) / max(abs(c0[0]), 1e-300)
    return complex(c0[0]), float(spread)


def appendix_d_oracle(n: int, j: int, k: int, rho: float,
                      eps_values=None, fit_order: int = 3) -> float:
    """|d(rho)| from the intertwiner integrals, independent of the formula.

    The regularized Bessel-pair integral I(eps) contains a bounded
    non-convergent piece ~ eps^{-i rho} (the integrand's DC tail), so the
    eps -> 0 value is extracted by least squares against the basis
    {eps^m, eps^{m - i rho}}, m = 0..fit_order; |d| is then assembled as
    |Gamma((n-1)/2 + i rho)| e^{pi rho/2} / ((2 pi)^{(n+1)/2} |I|).
    All I(eps) come from one bessel_pair_integral call, whose Bessel values
    and Gamma functions serve every eps, and the full fit and the
    leave-one-out fits are one stacked solve (_extrapolate).

    Raises AccuracyError when the eps grid does not resolve eps^{-i rho}
    (phase step rho max dlog eps above 6 rad: rho above 12.5 on the
    default grid) or the extrapolation is unstable (leave-one-out spread
    above 5e-4); bessel_pair_integral raises AccuracyError for rho above
    about 38, PoleError for rho <= 0 and ValueError for a sector outside
    n >= 2, j >= 0, k >= 0 or an eps that is not positive and finite.
    """
    if eps_values is None:
        eps_values = np.geomspace(2e-3, 1.5e-1, 10)
    eps = np.asarray(eps_values, dtype=float)
    vals = bessel_pair_integral(n, j, k, rho, eps)
    step = rho * np.max(np.diff(np.log(np.sort(eps))), initial=0.0)
    if step > _EPS_PHASE_STEP_MAX:
        raise AccuracyError(f"eps^(-i rho) at rho = {rho:g} turns {step:.2f} rad per eps "
                            f"step, above {_EPS_PHASE_STEP_MAX:g}")
    cols = []
    for m in range(fit_order + 1):
        cols.append(eps ** m)
        cols.append(eps ** (m - 1j * rho))
    full, spread = _extrapolate(np.array(cols).T, vals)
    if spread > _EXTRAPOLATION_SPREAD_MAX:
        raise AccuracyError(f"eps-extrapolation unstable: spread {spread:.2e}")
    gam = math.exp(specfun.ln_gamma(0.5 * (n - 1) + 1j * rho).real)
    return gam * math.exp(0.5 * math.pi * rho) / (
        (2.0 * math.pi) ** (0.5 * (n + 1)) * abs(full))

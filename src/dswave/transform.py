"""Fourier transform pairs on de Sitter space and on the null cone, the
Mellin pair, and wavepacket synthesis.

Three transforms live here:

* the hyperbolic-chart pair: mode coefficients chi against the plane waves
  of the planewave module, with the measure cosh^{n-1}(beta) dbeta dOmega
  (unit radius).  The inverse rho-integral carries the spectral density
  rho/2 by default: the normalized modes have continuum weight 2/rho, so
  the weighted measure is what makes forward/inverse an exact pair (see
  fourier_hyper_inverse for the literal unweighted variant);
* the cone pair: Mellin transform along the generators tensored with the
  angular intertwiner kernel |a|^{-(n-1)/2 -+ i rho} and its Theta-phase
  terms (n = 2 desk scale).  On a uniform circle grid the intertwiner is
  circulant, so it acts by FFT through its n_theta eigenvalues per rho;
  no dense n_theta x n_theta matrix is built;
* the plain Mellin pair on (0, infinity).

Wavepackets are |d(mu')|^2-weighted cap integrals of ambient plane waves
against a smooth bump profile on the absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import specfun
from .errors import PoleError, UnsupportedCaseError
from .geometry import sphere_point
from .planewave import PrincipalMass, _two_branch, radial_table
from .specfun import HarmonicIndex, harmonic_indices, hypersph_Y

__all__ = [
    "SphereGrid",
    "QuadratureGrid",
    "AbsoluteProfile",
    "WavepacketSpec",
    "WavepacketReport",
    "HyperCoeffs",
    "ConeFunction",
    "ConeGrid",
    "ConeSpectrum",
    "wavepacket_ambient",
    "wavepacket_hyper",
    "fourier_hyper_forward",
    "fourier_hyper_inverse",
    "eval_on_grid",
    "mellin_forward",
    "mellin_inverse",
    "cone_fourier_forward",
    "cone_fourier_inverse",
    "intertwiner_symbol",
]


# ----------------------------------------------------------------- grids


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Product quadrature on S^{n-1} in chart angles.

    Polar angles use Gauss-Jacobi nodes in cos(phi_k), exact for the
    sin^{n-1-k} density; the azimuth a uniform grid.  ``weights`` carry the
    full measure including the density, so sum(w * f(nodes)) integrates f
    over the round sphere.
    """

    n: int
    phis: tuple[np.ndarray, ...]
    phi: np.ndarray
    weights: np.ndarray

    @staticmethod
    def build(n: int, n_polar: int = 24, n_azimuth: int = 48) -> "SphereGrid":
        # polar angle phi_k, k = 1..n-2, has the density sin^{n-1-k}, that
        # is (1 - x^2)^a with a = (n-2-k)/2 after x = cos(phi_k)
        rules = [specfun.gauss_rule(n_polar, 0.5 * (n - 2 - k)) for k in range(1, n - 1)]
        az = np.arange(n_azimuth) * (2.0 * math.pi / n_azimuth)
        az_w = np.full(n_azimuth, 2.0 * math.pi / n_azimuth)
        mesh = np.meshgrid(*(np.arccos(x) for x, _ in rules), az, indexing="ij")
        wmesh = np.meshgrid(*(w for _, w in rules), az_w, indexing="ij")
        phis = tuple(m.ravel() for m in mesh[:-1])
        return SphereGrid(n, phis, mesh[-1].ravel(), np.prod(wmesh, axis=0).ravel())

    @property
    def size(self) -> int:
        return self.phi.size

    def points(self) -> np.ndarray:
        """Unit vectors of all nodes, shape (size, n)."""
        return sphere_point(self.n, self.phis, self.phi)


# rho nodes per radial_table call when a grid fills a mode table: bounds the
# temporaries of the 2F1 kernel (a whole grid at once raises peak memory)
_RHO_BLOCK = 8


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Node bundle for the hyperbolic transforms (sphere x beta x rho).

    A mode factors as Psi = V_{alpha,top}(beta; rho) Y_idx(Omega), and the
    grid holds the two factors apart: the harmonic table Y, built once, and
    per alpha the radial table V over every (rho node, top label, beta node).
    """

    sphere: SphereGrid
    beta_nodes: np.ndarray
    beta_weights: np.ndarray
    rho_nodes: np.ndarray
    rho_weights: np.ndarray
    l_max: int
    m_max: int | None = None
    # alpha -> radial table V, shape (n_rho, n_top, n_beta), filled by
    # radial_rows; digits_lost: alpha -> worst 2F1 digits lost in its rows
    mode_tables: dict = field(default_factory=dict, init=False, repr=False)
    digits_lost: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def build(n: int, beta_max: float = 12.0, n_beta: int = 10,
              rho_window: tuple[float, float] = (0.25, 4.0), n_rho: int = 48,
              l_max: int = 4, m_max: int | None = None,
              n_polar: int = 24, n_azimuth: int = 48) -> "QuadratureGrid":
        # Gauss-Legendre panels of unit length (at least one) over the
        # beta window, one Gauss-Legendre rule over the rho window
        edges = np.linspace(-beta_max, beta_max, max(2, int(2 * beta_max) + 1))
        bn, bw = specfun.gauss_panels(edges, n_beta)
        rn, rw = specfun.gauss_panels(rho_window, n_rho)
        return QuadratureGrid(SphereGrid.build(n, n_polar, n_azimuth),
                              bn, bw, rn, rw, l_max, m_max)

    @cached_property
    def harmonics(self) -> tuple[list[HarmonicIndex], np.ndarray, np.ndarray]:
        """(indices, Y, top_row): the harmonic indices with top label <=
        l_max, their values on the sphere nodes, shape (n_index, n_sphere),
        and for each index the row of its top label in radial_rows."""
        sph = self.sphere
        idxs = harmonic_indices(sph.n, self.l_max, self.m_max)
        Y = np.stack([hypersph_Y(i, sph.phis, sph.phi) for i in idxs])
        tops = sorted({i.top for i in idxs})
        return idxs, Y, np.searchsorted(tops, [i.top for i in idxs])

    def _radial(self, rhos, alpha: int) -> np.ndarray:
        idxs = self.harmonics[0]
        V, lost = radial_table(self.sphere.n, alpha, rhos,
                               sorted({i.top for i in idxs}), self.beta_nodes)
        self.digits_lost[alpha] = max(lost, self.digits_lost.get(alpha, 0.0))
        return V

    def mode_table(self, alpha: int) -> np.ndarray:
        """V_{alpha,top}(beta_nodes; rho_nodes) for each distinct top label
        in increasing order, shape (n_rho, n_top, n_beta).

        Filled in blocks of _RHO_BLOCK rho nodes on first use and cached in
        mode_tables for the life of the grid."""
        table = self.mode_tables.get(alpha)
        if table is None:
            r = self.rho_nodes
            table = np.concatenate([self._radial(r[i:i + _RHO_BLOCK], alpha)
                                    for i in range(0, r.size, _RHO_BLOCK)])
            self.mode_tables[alpha] = table
        return table

    def radial_rows(self, rho: float, alpha: int) -> np.ndarray:
        """V_{alpha,top}(beta_nodes; rho) for each distinct top label in
        increasing order, shape (n_top, n_beta): a view into mode_table
        at a rho node, computed afresh (not cached) at any other rho."""
        i = self._node_index.get(float(rho))
        if i is not None:
            return self.mode_table(alpha)[i]
        return self._radial([rho], alpha)[0]

    @cached_property
    def _node_index(self) -> dict:
        return {float(r): i for i, r in enumerate(self.rho_nodes)}

    def resolution_report(self) -> dict:
        """Recorded resolution limits of the node bundle.

        beta_bandwidth is the largest |rho - rho'| the window can separate
        (pi over the window half-length), rho_bandwidth the largest 'time'
        e^{i rho beta} content the rho spacing resolves, and azimuth_modes
        the largest |m| integrated exactly.  radial_digits_lost is the
        worst 2F1 digits lost over the radial rows built so far (0 before
        any).
        """
        window = float(self.beta_nodes.max() - self.beta_nodes.min())
        drho = float(np.min(np.diff(np.sort(self.rho_nodes)))) \
            if self.rho_nodes.size > 1 else float("inf")
        return {
            "beta_window": window,
            "beta_bandwidth": 2.0 * math.pi / window,
            "rho_spacing": drho,
            "rho_bandwidth": math.pi / drho if drho > 0 else float("inf"),
            "azimuth_modes": int(
                len(np.unique(np.round(self.sphere.phi, 12))) // 2),
            "beta_nodes": int(self.beta_nodes.size),
            "sphere_nodes": int(self.sphere.size),
            "rho_nodes": int(self.rho_nodes.size),
            "radial_digits_lost": max(self.digits_lost.values(), default=0.0),
        }


# ----------------------------------------------------------- wavepackets


@dataclass(frozen=True)
class AbsoluteProfile:
    """Smooth bump on the absolute, supported in a cap of radius delta.

    On the xi_0 = 1 section the value at direction u is
    amplitude * exp(shape * (1 - 1/(1 - (theta/delta)^2)))
    for theta = angle(u, center) < delta and 0 outside; compactly supported
    with all derivatives vanishing at the cap edge.
    """

    center: tuple[float, ...]
    delta: float
    amplitude: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if abs(np.linalg.norm(c) - 1.0) > 1e-10:
            raise ValueError("profile center must be a unit vector")
        if not (0.0 < self.delta < math.pi):
            raise ValueError("cap radius must lie in (0, pi)")

    def value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        c = np.asarray(self.center, dtype=float)
        ct = np.clip(u @ c, -1.0, 1.0)
        theta = np.arccos(ct)
        t2 = (theta / self.delta) ** 2
        out = np.zeros_like(theta)
        inside = t2 < 1.0
        out[inside] = self.amplitude * np.exp(
            self.shape * (1.0 - 1.0 / (1.0 - t2[inside])))
        return out


def _orthonormal_frame(u0: np.ndarray) -> np.ndarray:
    """Rows: u0 followed by an orthonormal basis of its complement."""
    n = u0.size
    frame = np.eye(n)
    idx = int(np.argmax(np.abs(u0)))
    frame[[0, idx]] = frame[[idx, 0]]
    frame[0] = u0
    q, _ = np.linalg.qr(frame.T)
    if q[:, 0] @ u0 < 0:
        q[:, 0] = -q[:, 0]
    return q.T


@dataclass(frozen=True)
class WavepacketSpec:
    """Profile + principal mass + cap quadrature resolution.

    d_sector picks the (j, k) parity sector whose |d| value normalizes the
    packet (the sectors differ only for odd n, and only by a constant).
    """

    profile: AbsoluteProfile
    mass: PrincipalMass
    n_theta: int = 20
    n_sub_polar: int = 12
    n_sub_azimuth: int = 24
    d_sector: tuple[int, int] = (0, 0)

    def cap_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(covectors xi = (1, u) on the cap, weights incl. the cone 1/2)."""
        n = self.mass.cfg.n
        u0 = np.asarray(self.profile.center, dtype=float)
        if n == 2:  # one panel on each side of the centre angle
            ang0 = math.atan2(u0[0], u0[1])  # chart convention u = (sin, cos)
            ths, ws = specfun.gauss_panels(
                ang0 + self.profile.delta * np.array([-1.0, 0.0, 1.0]), self.n_theta)
            xi = np.stack([np.ones_like(ths), np.sin(ths), np.cos(ths)], axis=1)
            return xi, 0.5 * ws
        theta, wt = specfun.gauss_panels((0.0, self.profile.delta), self.n_theta)
        sub = SphereGrid.build(n - 1, self.n_sub_polar, self.n_sub_azimuth)
        omega = sub.points()                      # (ns, n-1)
        frame = _orthonormal_frame(u0)            # rows: u0, e_1..e_{n-1}
        u = (np.cos(theta)[:, None, None] * u0[None, None, :]
             + np.sin(theta)[:, None, None] * (omega @ frame[1:])[None, :, :]).reshape(-1, n)
        wfull = (wt * np.sin(theta) ** (n - 2))[:, None] * sub.weights[None, :]
        xi = np.concatenate([np.ones((u.shape[0], 1)), u], axis=1)
        return xi, 0.5 * wfull.ravel()


@dataclass
class WavepacketReport:
    """Bookkeeping from a synthesis call."""

    dropped_nodes: int = 0
    total_nodes: int = 0
    noise_estimate: float = 0.0


# s-values per wavepacket_ambient block: a batch's (rows x cap nodes)
# temporaries then cost no more peak memory than a one-point call's
_WAVEPACKET_BLOCK = 4096


def wavepacket_ambient(spec: WavepacketSpec, x, full_output: bool = False):
    """Synthesize f(x) = |d(mu')|^2 integral of fhat(xi) Psi_mu(x, xi) dA.

    x may be one ambient point or an array of row points, evaluated in
    blocks of at most 4096 s-values (at least one row).  Quadrature nodes
    on x.xi = 0 to within the rounding bound of the dot product,
    (n+1) eps (|x_0 xi_0| + sum |x_i xi_i|), are dropped and counted in the
    report, summed over the blocks, so the result does not depend on how
    the points are batched; the noise estimate is the roundoff scale of
    the node sum.
    """
    mass = spec.mass
    xi, w = spec.cap_nodes()
    wf = w * spec.profile.value(xi[:, 1:])
    d2 = specfun.d_abs(mass.cfg.n, spec.d_sector[0], spec.d_sector[1],
                       mass.mu_prime) ** 2
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.empty(pts.shape[0], dtype=complex)
    dropped = 0
    tol = (mass.cfg.n + 1) * np.finfo(float).eps
    step = max(1, _WAVEPACKET_BLOCK // xi.shape[0])
    for i in range(0, pts.shape[0], step):
        blk = pts[i:i + step]
        s = -np.outer(blk[:, 0], xi[:, 0]) + blk[:, 1:] @ xi[:, 1:].T
        mask = np.abs(s) <= tol * (np.abs(blk) @ np.abs(xi).T)
        dropped += int(mask.sum())
        vals = np.where(mask, 0.0, _two_branch(mass, s))
        out[i:i + step] = d2 * (vals * wf).sum(axis=1)
    if full_output:
        rep = WavepacketReport(dropped_nodes=dropped,
                               total_nodes=pts.shape[0] * xi.shape[0],
                               noise_estimate=float(d2 * np.abs(wf).sum() * 1e-13))
        return (out[0], rep) if single else (out, rep)
    return out[0] if single else out


@dataclass
class HyperCoeffs:
    """Mode table chi[(alpha, m, ls)] at fixed rho, plus a tail indicator."""

    rho: float
    table: dict[tuple[int, int, tuple[int, ...]], complex] = field(default_factory=dict)
    tail_bound: float = 0.0

    def __getitem__(self, key):
        return self.table.get(key, 0.0 + 0.0j)


def wavepacket_hyper(coeffs: HyperCoeffs, beta, phis, phi):
    """Sum chi * Psi over the table at the coefficients' rho; broadcasts.

    The radial factors come from one radial_table call per alpha over its
    top labels, and each harmonic is evaluated once per index, however many
    modes share them.
    """
    modes = [(alpha, HarmonicIndex(len(ls) + 2, m, ls), chi)
             for (alpha, m, ls), chi in coeffs.table.items() if chi != 0.0]
    radial = {}
    for alpha in {a for a, _, _ in modes}:
        tops = sorted({i.top for a, i, _ in modes if a == alpha})
        V = radial_table(modes[0][1].n, alpha, [coeffs.rho], tops, beta)[0][0]
        radial.update({(alpha, t): row for t, row in zip(tops, V)})
    harmonic = {}
    total = 0.0 + 0.0j
    for alpha, idx, chi in modes:
        if idx not in harmonic:
            harmonic[idx] = hypersph_Y(idx, phis, phi)
        total = total + chi * (radial[alpha, idx.top] * harmonic[idx])
    return total


# ------------------------------------------------- hyperbolic Fourier pair


def eval_on_grid(f, grid: QuadratureGrid) -> np.ndarray:
    """Evaluate f(beta, phis, phi) on the product grid, shape (nb, ns)."""
    sph = grid.sphere
    B = grid.beta_nodes[:, None]
    phis = [p[None, :] for p in sph.phis]
    return np.asarray(f(B, phis, sph.phi[None, :]), dtype=complex) \
        * np.ones((grid.beta_nodes.size, sph.size))


def fourier_hyper_forward(f, rho: float, grid: QuadratureGrid,
                          alphas=(1, 2)) -> HyperCoeffs:
    """Coefficients chi = integral of conj(Psi) f over the chart window.

    f is either a broadcastable callable f(beta, phis, phi) or an already
    evaluated (n_beta, n_sphere) array on the grid.  Truncation and window
    errors show up as the returned tail indicator (smallest to largest
    retained |chi|).
    """
    n = grid.sphere.n
    F = f if isinstance(f, np.ndarray) else eval_on_grid(f, grid)
    meas = (grid.beta_weights * np.cosh(grid.beta_nodes) ** (n - 1))[:, None] \
        * grid.sphere.weights[None, :]
    idxs, Y, top_row = grid.harmonics
    G = F * meas
    Yc = np.conj(Y)
    # per alpha: conj(V) contracts beta, then each mode's row meets its
    # harmonic over the sphere
    vals = np.concatenate([
        ((np.conj(grid.radial_rows(rho, a)) @ G)[top_row] * Yc).sum(axis=1)
        for a in alphas])
    out = HyperCoeffs(rho=rho)
    keys = [(a, i.m, i.ls) for a in alphas for i in idxs]
    for key, v in zip(keys, vals):
        out.table[key] = complex(v)
    mags = np.abs(vals)
    out.tail_bound = float(mags.min() / mags.max()) if mags.max() > 0 else 0.0
    return out


def fourier_hyper_inverse(coeff_field, grid: QuadratureGrid,
                          plancherel: bool = True) -> np.ndarray:
    """Field on the product grid from a rho-indexed coefficient field.

    coeff_field maps rho -> HyperCoeffs (a callable, or a sequence matching
    grid.rho_nodes).  plancherel=True weights the rho-measure with the
    spectral density rho/2 measured for the normalized modes, making the
    pair forward -> inverse the identity on band-limited fields; False is
    the literal unweighted integral (composition = multiplication by 2/rho).
    """
    idxs, Y, top_row = grid.harmonics
    tables = (list(coeff_field) if isinstance(coeff_field, (list, tuple))
              else [coeff_field(r) for r in grid.rho_nodes])
    tables = [c if c is not None else HyperCoeffs(rho=float(r))
              for r, c in zip(grid.rho_nodes, tables)]
    weight = grid.rho_weights * (0.5 * grid.rho_nodes if plancherel else 1.0)
    # (n_beta, n_index): per alpha, one product of the radial table, with
    # (rho node, top label) as the contracted axis, against chi weighted and
    # spread onto each index's top label; then one product with the
    # harmonic table
    nb = grid.beta_nodes.size
    M = np.zeros((nb, len(idxs)), dtype=complex)
    for a in sorted({k[0] for c in tables for k in c.table}):
        T = grid.mode_table(a)
        chi = np.array([[c[(a, i.m, i.ls)] for i in idxs] for c in tables])
        on_top = np.arange(T.shape[1])[:, None] == top_row[None, :]
        X = (weight[:, None] * chi)[:, None, :] * on_top
        M += T.reshape(-1, nb).T @ X.reshape(-1, len(idxs))
    return M @ Y


# ------------------------------------------------------------ Mellin pair


def mellin_forward(h, n: int, rho, s_window=(1e-6, 1e6), n_nodes: int = 400):
    """varpi(rho) = integral of h(s) s^{(n-1)/2 - i rho} ds/s on a window.

    Uniform trapezoid in v = log s, spectrally accurate once the weighted
    integrand clears the window.  h must vectorize over s and may return
    a batch of functions, shape (..., n_s) on the n_s nodes; the result
    then has shape (..., n_rho), one product (H w) @ ker^T for the whole
    batch.  rho may be an array.
    """
    v = np.linspace(math.log(s_window[0]), math.log(s_window[1]), n_nodes)
    dv = v[1] - v[0]
    s = np.exp(v)
    H = np.asarray(h(s), dtype=complex) * np.exp(0.5 * (n - 1) * v)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    ker = np.exp(-1j * np.outer(rho, v))
    w = np.full(n_nodes, dv)
    w[0] *= 0.5
    w[-1] *= 0.5
    return (H * w) @ ker.T


def mellin_inverse(varpi, n: int, s, rho_window=(-40.0, 40.0),
                   n_nodes: int = 2000):
    """h(s) = (1/2 pi) integral of varpi(rho) s^{-(n-1)/2 + i rho} drho."""
    rho = np.linspace(rho_window[0], rho_window[1], n_nodes)
    dr = rho[1] - rho[0]
    P = np.asarray(varpi(rho), dtype=complex)
    w = np.full(n_nodes, dr)
    w[0] *= 0.5
    w[-1] *= 0.5
    s = np.atleast_1d(np.asarray(s, dtype=float))
    v = np.log(s)
    ker = np.exp(1j * np.outer(v, rho))
    return (ker @ (P * w)) * np.exp(-0.5 * (n - 1) * v) / (2.0 * math.pi)


# ------------------------------------------------------------- cone pair


# The direct intertwiner quadrature on the circle: the pole window spans
# _POLE_CELLS cells on each side of the kernel zero; its smooth factor is a
# degree-_FIT_DEGREE polynomial fitted on the columns out to _FIT_CELLS
# cells; the _FILON_CELLS cells next to the window are product-integrated.
_POLE_CELLS = 6
_FIT_CELLS = 18
_FIT_DEGREE = 8
_FILON_CELLS = 48


@dataclass(frozen=True)
class ConeGrid:
    """Discretization of the cone: log-uniform s-grid x uniform circle.

    n = 2 desk scale: the sphere is a circle with n_theta nodes (even count
    so antipodes are on-grid).
    """

    n: int = 2
    n_theta: int = 256
    s_window: tuple[float, float] = (1e-5, 1e5)
    n_s: int = 320

    def __post_init__(self):
        if self.n != 2:
            raise UnsupportedCaseError("cone transform implemented for n = 2")
        if self.n_theta % 2:
            raise ValueError("n_theta must be even")

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta)

    @property
    def s_nodes(self) -> np.ndarray:
        v = np.linspace(math.log(self.s_window[0]), math.log(self.s_window[1]),
                        self.n_s)
        return np.exp(v)

    def directions(self) -> np.ndarray:
        th = self.thetas
        return np.stack([np.sin(th), np.cos(th)], axis=1)


@dataclass(frozen=True)
class ConeFunction:
    """Function h(s, t', x') on the cone; fn broadcasts over s arrays."""

    n: int
    fn: object
    s_window: tuple[float, float] = (1e-5, 1e5)

    def __call__(self, s, tprime, xprime):
        return self.fn(s, tprime, xprime)


@dataclass
class ConeSpectrum:
    """psi(tau', theta_j, rho_r) sampled on a ConeGrid and a rho grid."""

    grid: ConeGrid
    rho_nodes: np.ndarray
    values: dict  # tauprime -> (n_theta, n_rho) complex array

    def __call__(self, tauprime, theta_index: int, rho_index: int) -> complex:
        return complex(self.values[tauprime][theta_index, rho_index])


def _intertwiner_exponent_phase(grid: ConeGrid, rho,
                                forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exponent E = -(n-1)/2 -+ i rho of the angular kernel |a|^E and the
    Theta phase e^{i pi ((n-1)/2 (+-1) + i rho)} of its a < 0 branch
    (upper signs forward, lower inverse), as (n_rho, 1) columns for a
    scalar or 1-D rho."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))[:, None]
    E = -0.5 * (grid.n - 1) + 1j * (-rho if forward else rho)
    phase = np.exp(1j * math.pi * (0.5 * (grid.n - 1)
                                   * (1 if forward else -1) + 1j * rho))
    return E, phase


def _rho_layout(rho, rows: np.ndarray) -> np.ndarray:
    """(n_rho, m) rows -> (m,) for a scalar rho, (m, n_rho) for a 1-D rho."""
    return rows[0] if np.ndim(rho) == 0 else rows.T


def intertwiner_symbol(grid: ConeGrid, rho, forward: bool,
                       sector: int, j) -> np.ndarray:
    """Exact circle symbol of the angular intertwiner on mode e^{ij theta}.

    The kernel (2 sin^2(u/2))^E (sector +1, with the Theta phase) or
    (2 cos^2(u/2))^E (sector -1) has Fourier integrals
    [phase (-1)^j or 1] * 2^{-E} 2 pi Gamma(1+2E)/(Gamma(1+E+j)Gamma(1+E-j)),
    the exponent continuation of the classical |1 - e^{iu}|^{2s} expansion.
    The value depends on |j| only.  One log-Gamma pair per rho gives
    j = 0, and the ratio lam_{j+1} / lam_j = (E - j) / (1 + E + j)
    (DLMF 5.5.1) gives every other |j| by one cumulative product along j,
    for all rho at once.  A scalar rho returns shape (n_j,), a 1-D rho
    (n_j, n_rho).
    """
    E, phase = _intertwiner_exponent_phase(grid, rho, forward)
    aj = np.abs(np.atleast_1d(np.asarray(j, dtype=int)))
    k = np.arange(aj.max(initial=0))
    lam = np.empty((E.shape[0], k.size + 1), dtype=complex)
    lg0 = specfun.ln_gamma(1 + 2 * E) - 2 * specfun.ln_gamma(1 + E)
    lam[:, :1] = 2.0 ** (-E) * 2.0 * math.pi * np.exp(lg0)
    lam[:, 1:] = lam[:, :1] * np.cumprod((E - k) / (1 + E + k), axis=1)
    lam = lam[:, aj]
    if sector == 1:
        lam = phase * (-1.0) ** aj * lam
    return _rho_layout(rho, lam)


def _intertwiner_eigs(grid: ConeGrid, rho, forward: bool,
                      sector: int, method: str = "direct") -> np.ndarray:
    """Eigenvalues of the angular intertwiner on the circle, in
    np.fft.fftfreq order: the operator is g -> ifft(eigs * fft(g)).

    rho is a scalar (shape (n_theta,) returned) or a 1-D array of nodes
    (shape (n_theta, n_rho)): the eigenvalues for all rho nodes of a
    sector come from one call, with the rho-independent pieces built once.
    sector = t' tau' (+1 or -1) fixes the sign of a = -sector + cos(dtheta).
    On the uniform grid the kernel matrix is circulant,
    [i_out, j_in] = row[(j - i) mod n_theta], so its eigenvalues are
    n_theta * ifft(row).  method "spectral" returns the exact symbol.
    method "direct" is the node-exclusion quadrature of the row: the
    kernel's isolated zero (dtheta = 0 for sector +1, pi for sector -1) is
    handled by an analytic pole window where the smooth factor is fitted
    from nearby columns and the |u|^{2E+k} moments integrated in closed
    form, continued in the exponent (Re(2E+1) = 0 at n = 2 is the
    borderline homogeneity).  It serves as the independent check of the
    symbol, and needs the 2 _FIT_CELLS + 1 fit columns around the pole to
    fit on the circle without wrapping.  Past that guard the fit limits its
    resolution, with no error raised: modes j <= 3 are off the symbol by up
    to 2.4e-2 at n_theta = 64, 2.2e-3 at 96, 8.4e-4 at 128 and 2.3e-4 at
    256, so j = 3 is worse than 2e-3 below n_theta of about 96.
    """
    if method not in ("direct", "spectral"):
        raise ValueError(f"method must be 'direct' or 'spectral', got {method!r}")
    nt = grid.n_theta
    if method == "spectral":
        freqs = np.fft.fftfreq(nt, d=1.0 / nt).astype(int)
        return intertwiner_symbol(grid, rho, forward, sector, freqs)
    if nt < 2 * _FIT_CELLS + 1:
        raise UnsupportedCaseError(
            f"method 'direct' needs n_theta >= {2 * _FIT_CELLS + 2} "
            f"({2 * _FIT_CELLS + 1} columns around the pole, even), got {nt}")
    dth = 2.0 * math.pi / nt
    # E, phase: (n_rho, 1) columns; every row below is (n_rho, n_theta)
    E, phase = _intertwiner_exponent_phase(grid, rho, forward)
    if np.any(2 * E + 1.0 == 0):
        # the pole-window moment of |u|^{2E} diverges, as Gamma(1+2E) does
        raise PoleError("method 'direct' is singular at rho = 0 (2E + 1 = 0)")
    offs = np.arange(nt) * dth
    a = -sector + np.cos(offs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ker = np.where(a > 0, 1.0 + 0.0j, phase) * np.abs(a) ** E
    ker = np.nan_to_num(ker, nan=0.0)
    pole_at = 0 if sector == 1 else nt // 2
    branch = phase if sector == 1 else 1.0 + 0.0j

    w = _POLE_CELLS * dth + 0.5 * dth  # window edge between cells
    row = ker * dth
    # zero out the window cells (pole cell and _POLE_CELLS neighbours each side)
    row[:, (pole_at + np.arange(-_POLE_CELLS, _POLE_CELLS + 1)) % nt] = 0.0

    # product integration on the cells flanking the window: |u|^{2E}
    # oscillates in log u too fast there for plain midpoint weights, so the
    # kernel mass and first moment of each cell are integrated in closed
    # form, with the input's node value and central-difference slope
    span = min(_FILON_CELLS, nt // 2 - 1)
    k = np.arange(_POLE_CELLS + 1, span + 1)
    u_k = k * dth
    lo, hi = (k - 0.5) * dth, (k + 0.5) * dth
    mass = (hi ** (2 * E + 1.0) - lo ** (2 * E + 1.0)) / (2 * E + 1.0)
    mom1 = ((hi ** (2 * E + 2.0) - lo ** (2 * E + 2.0)) / (2 * E + 2.0)
            - u_k * mass)
    scale = branch * np.exp(E * np.log(2.0 * np.sin(u_k / 2.0) ** 2 / u_k**2))
    grads = np.zeros(row.shape, dtype=complex)
    for sgn in (1, -1):
        row[:, (pole_at + sgn * k) % nt] = scale * mass
        # slope term: d/d(theta) = sgn * d/du on this side of the pole; the
        # indices within one side are distinct, so plain += accumulates
        grad = sgn * scale * mom1 / (2.0 * dth)
        grads[:, (pole_at + sgn * k + 1) % nt] += grad
        grads[:, (pole_at + sgn * k - 1) % nt] -= grad
    row = row + grads

    # pole-window correction: fit g(u) from the _FIT_CELLS nearest columns on
    # each side (outside the window), integrate g(u) q(u)^E |u|^{2E} over
    # |u| <= w with q(u) = 2 sin^2(u/2)/u^2
    fit_off = np.array([k for k in range(-_FIT_CELLS, _FIT_CELLS + 1)
                        if abs(k) > _POLE_CELLS])
    u_fit = fit_off * dth
    q = 2.0 * np.sin(np.abs(u_fit) / 2.0) ** 2 / u_fit**2
    qE = np.exp(E * np.log(q))
    scale = _FIT_CELLS * dth
    V = np.vander(u_fit / scale, _FIT_DEGREE + 1, increasing=True)
    P = np.linalg.pinv(V)  # coefficients = P @ g_samples
    # moments integral |u|^{2E} (u/scale)^k over (-w, w): odd k vanish
    mom = np.zeros((E.shape[0], _FIT_DEGREE + 1), dtype=complex)
    ke = np.arange(0, _FIT_DEGREE + 1, 2)
    mom[:, ke] = 2.0 * w ** (2.0 * E + ke + 1.0) / ((2.0 * E + ke + 1.0) * scale**ke)
    # weights applied to the sampled columns; q^E folds into the fit samples
    row[:, (pole_at + fit_off) % nt] += branch * (mom @ P) * qE
    return _rho_layout(rho, nt * np.fft.ifft(row, axis=1))


def _sheet_eigs(grid: ConeGrid, rho_nodes: np.ndarray, forward: bool,
                method: str) -> dict:
    """sector -> intertwiner eigenvalues at every rho node, shape
    (n_theta, n_rho): one call per sector."""
    return {sec: _intertwiner_eigs(grid, rho_nodes, forward, sec, method)
            for sec in (1, -1)}


def _apply_sheets(eigs: dict, sheets: dict, tau_weight: str) -> dict:
    """out[b] = sum over a of sgn(a) A_{a b} sheets[a], columnwise in rho,
    with A_{a b} the intertwiner of sector a b: one fft per input sheet
    along theta, one ifft per output sheet."""
    if tau_weight not in ("unsigned", "signed"):
        raise ValueError(f"tau_weight must be 'unsigned' or 'signed', got {tau_weight!r}")
    spec = {a: (a if tau_weight == "signed" else 1.0)
            * np.fft.fft(sheets[a], axis=0) for a in (1, -1)}
    return {b: np.fft.ifft(eigs[b] * spec[1] + eigs[-b] * spec[-1], axis=0)
            for b in (1, -1)}


def cone_fourier_forward(h: ConeFunction, rho_nodes,
                         grid: ConeGrid | None = None,
                         tau_weight: str = "unsigned",
                         method: str = "direct") -> ConeSpectrum:
    """Cone Fourier transform psi(tau', chi', rho) on the grid.

    Mellin transform along the generators (exponent (n-1)/2 - i rho)
    followed by the angular intertwiner with the forward Theta-phase.
    tau_weight "unsigned" sums both t' = +-1 sheets with weight one (the
    convention the round trip and the parity identities confirm); "signed"
    weights the t' = -1 sheet by -1.  Each sheet's h values on all
    directions go through one batched Mellin call.
    """
    grid = grid or ConeGrid(n=h.n, s_window=h.s_window)
    rho_nodes = np.asarray(rho_nodes, dtype=float)
    eigs = _sheet_eigs(grid, rho_nodes, True, method)
    dirs = grid.directions()
    varpi = {}
    for tprime in (1, -1):
        def sheet(s, tprime=tprime):
            return np.stack([np.broadcast_to(h(s, tprime, d), s.shape)
                             for d in dirs])
        varpi[tprime] = mellin_forward(sheet, grid.n, rho_nodes,
                                       grid.s_window, grid.n_s)
    return ConeSpectrum(grid, rho_nodes, _apply_sheets(eigs, varpi, tau_weight))


def _d_abs_sq_signed(n: int, j: int, k: int, rho):
    """|d(rho)|^2 continued to signed rho for the inverse spectral weight.

    The case factors of the closed form are analytic in rho (for example
    1 + tanh(pi rho) for even n); continuing them to rho < 0 multiplies
    the positive-rho value by e^{-2 pi |rho|}, uniformly in n.  Only with
    this continuation does the forward/inverse pair compose to the
    identity on the negative-rho half line.
    """
    base = specfun.d_abs(n, j, k, np.abs(rho)) ** 2
    return np.where(rho > 0, base, base * np.exp(-2.0 * math.pi * np.abs(rho)))[()]


def cone_fourier_inverse(psi: ConeSpectrum, rho_weights,
                         tau_weight: str = "unsigned",
                         d_sector: tuple[int, int] = (0, 0),
                         method: str = "direct") -> dict:
    """Inverse cone transform on the grid: h(s_i, t', theta_j).

    (1/2 pi) sum over the rho nodes (with the supplied weights) of |d|^2
    (signed-rho continuation) times the inverse-phase angular kernel times
    s^{-(n-1)/2 + i rho}.  The rho grid may cover both half lines or a
    band on one of them.  Returns tauprime -> (n_s, n_theta): per sheet,
    one (n_s x n_rho) @ (n_rho x n_theta) product.
    """
    grid = psi.grid
    rho_nodes = psi.rho_nodes
    rho_weights = np.asarray(rho_weights, dtype=float)
    eigs = _sheet_eigs(grid, rho_nodes, False, method)
    acc = _apply_sheets(eigs, psi.values, tau_weight)
    d2 = _d_abs_sq_signed(grid.n, d_sector[0], d_sector[1], rho_nodes)
    # (n_s, n_rho): s^{-(n-1)/2 + i rho} w |d|^2 / 2 pi
    radial = (grid.s_nodes[:, None] ** (-0.5 * (grid.n - 1) + 1j * rho_nodes)
              * (rho_weights * d2 / (2.0 * math.pi)))
    return {tprime: radial @ acc[tprime].T for tprime in (1, -1)}

"""Fourier transform pairs on de Sitter space and on the null cone, the
Mellin pair, and wavepacket synthesis.

Three transforms live here:

* the hyperbolic-chart pair: mode coefficients chi against the plane waves
  of the planewave module, with the measure cosh^{n-1}(beta) dbeta dOmega
  (unit radius).  The inverse rho-integral carries the spectral density
  rho/2: the normalized modes have continuum weight 2/rho, so the
  weighted measure is what makes forward/inverse an exact pair;
* the cone pair: Mellin transform along the generators tensored with the
  angular intertwiner kernel |a|^{-(n-1)/2 -+ i rho} and its Theta-phase
  terms (n = 2 desk scale).  On a uniform circle grid the intertwiner is
  circulant, so it acts by FFT through its n_theta eigenvalues per rho;
  no dense n_theta x n_theta matrix is built;
* the plain Mellin pair on (0, infinity).

Wavepackets are |d(mu')|^2-weighted cap integrals of ambient plane waves
against a smooth bump profile on the absolute; past their front at n >= 3
the zonal profile makes them one-dimensional integrals.
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
    # alpha -> radial table V, shape (n_rho, n_top, n_beta), filled by
    # radial_rows; digits_lost: alpha -> worst 2F1 digits lost in its rows
    mode_tables: dict = field(default_factory=dict, init=False, repr=False)
    digits_lost: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def build(n: int, beta_max: float = 12.0, n_beta: int = 10,
              rho_window: tuple[float, float] = (0.25, 4.0), n_rho: int = 48,
              l_max: int = 4,
              n_polar: int = 24, n_azimuth: int = 48) -> "QuadratureGrid":
        # Gauss-Legendre panels of unit length (at least one) over the
        # beta window, one Gauss-Legendre rule over the rho window
        edges = np.linspace(-beta_max, beta_max, max(2, int(2 * beta_max) + 1))
        bn, bw = specfun.gauss_panels(edges, n_beta)
        rn, rw = specfun.gauss_panels(rho_window, n_rho)
        return QuadratureGrid(SphereGrid.build(n, n_polar, n_azimuth),
                              bn, bw, rn, rw, l_max)

    @cached_property
    def harmonics(self) -> tuple[list[HarmonicIndex], np.ndarray, np.ndarray]:
        """(indices, Y, top_row): the harmonic indices with top label <=
        l_max, their values on the sphere nodes, shape (n_index, n_sphere),
        and for each index the row of its top label in radial_rows."""
        sph = self.sphere
        idxs = harmonic_indices(sph.n, self.l_max)
        Y = np.stack([hypersph_Y(i, sph.phis, sph.phi) for i in idxs])
        tops = sorted({i.top for i in idxs})
        return idxs, Y, np.searchsorted(tops, [i.top for i in idxs])

    @cached_property
    def _beta_measure(self) -> np.ndarray:
        """The beta factor of the chart measure, shape (n_beta,): beta
        weight times cosh^(n-1) beta."""
        return self.beta_weights * np.cosh(self.beta_nodes) ** (self.sphere.n - 1)

    @cached_property
    def measure(self) -> np.ndarray:
        """The chart measure on the nodes, shape (n_beta, n_sphere): the
        beta factor _beta_measure times the sphere weight."""
        return self._beta_measure[:, None] * self.sphere.weights[None, :]

    @cached_property
    def _forward_factors(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(keys, Yw, pick) of fourier_hyper_forward: the coefficient keys of
        both families; the sphere factor conj(Y) times the sphere weights,
        transposed to (n_sphere, n_index); and, per key, the flat position
        of its (family, top label) row and harmonic in the (2 n_top,
        n_index) product of the beta-contracted rows with Yw."""
        idxs, Y, top_row = self.harmonics
        keys = [(a, i.m, i.ls) for a in (1, 2) for i in idxs]
        n_top, n_index = int(top_row.max()) + 1, len(idxs)
        pick = np.concatenate([(a * n_top + top_row) * n_index + np.arange(n_index)
                               for a in (0, 1)])
        return keys, np.ascontiguousarray((np.conj(Y) * self.sphere.weights).T), pick

    def _radial(self, rhos, alpha: int) -> np.ndarray:
        idxs = self.harmonics[0]
        V, lost = radial_table(self.sphere.n, alpha, rhos,
                               sorted({i.top for i in idxs}), self.beta_nodes)
        self.digits_lost[alpha] = max(lost, self.digits_lost.get(alpha, 0.0))
        return V

    def mode_table(self, alpha: int) -> np.ndarray:
        """V_{alpha,top}(beta_nodes; rho_nodes) for each distinct top label
        in increasing order, shape (n_rho, n_top, n_beta).

        Filled on first use by one radial_table call over all rho nodes and
        cached in mode_tables for the life of the grid."""
        table = self.mode_tables.get(alpha)
        if table is None:
            table = self.mode_tables[alpha] = self._radial(self.rho_nodes, alpha)
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
        return self.at_angle(np.arccos(np.clip(u @ c, -1.0, 1.0)))

    def at_angle(self, theta) -> np.ndarray:
        """The profile at the angle theta from its centre."""
        t2 = (theta / self.delta) ** 2
        out = np.zeros_like(theta)
        inside = t2 < 1.0
        out[inside] = self.amplitude * np.exp(
            self.shape * (1.0 - 1.0 / (1.0 - t2[inside])))
        return out

    def zonal_average(self, gamma, psi, n_phi: int) -> np.ndarray:
        """G_gamma(psi) = |S^{n-3}| int_0^pi fhat sin^{n-3} phi dphi, n >= 3.

        The integral runs over the directions at the angle psi from a pole
        that lies at the angle gamma in (0, pi) from the centre, with phi
        the azimuth about the pole, 0 on the centre's side.  There the
        angle theta from the centre has hav theta = hav t + sin psi sin
        gamma hav phi (hav x = sin^2(x/2), t = psi - gamma), and theta <
        delta for phi < phi_max, with sin psi sin gamma hav phi_max =
        hav delta - hav t = sin((delta + t)/2) sin((delta - t)/2).  The
        rule is n_phi Gauss nodes in w on [0, 1] with hav phi = hav phi_max
        w^2, so hav theta = hav t + (hav delta - hav t) w^2: the profile's
        nodes depend on t alone, and at n = 4 the rule's relative error
        does not depend on gamma at all, however fast phi_max moves with
        it (near psi = 0 or pi).  dphi/dw is singular at w = (hav
        phi_max)^{-1/2}, so the rule is accurate while hav phi_max stays
        well below 1; on the zonal route of wavepacket_ambient it stays
        below 1/2.  No arccos of a rounded cosine near 1 is taken, where
        it loses half the digits.  gamma and psi broadcast; G is 0 where
        |psi - gamma| >= delta.
        """
        n = len(self.center)
        t = np.asarray(psi, dtype=float) - gamma
        ss = np.sin(psi) * np.sin(gamma)
        dh = np.sin(0.5 * (self.delta + t)) * np.sin(0.5 * (self.delta - t))
        a = np.clip(dh / ss, 0.0, 1.0)[..., None]        # hav phi_max
        w, wt = specfun.gauss_panels((0.0, 1.0), n_phi)
        hav = np.sin(0.5 * t)[..., None] ** 2 + (a * ss[..., None]) * w**2
        theta = 2.0 * np.arcsin(np.sqrt(np.minimum(hav, 1.0)))
        # dphi = 2 sqrt(a) dw / sqrt(1 - a w^2), sin phi = 2 sqrt(a) w sqrt(1 - a w^2)
        root = np.sqrt(a)
        jac = 2.0 * root * (2.0 * root * w) ** (n - 3) * (1.0 - a * w**2) ** (0.5 * n - 2.0)
        return _sphere_area(n - 3) * ((self.at_angle(theta) * jac) @ wt)


def _sphere_area(k: int) -> float:
    """|S^k| = 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    return 2.0 * math.pi ** (0.5 * (k + 1)) / math.gamma(0.5 * (k + 1))


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
    """Profile + principal mass + quadrature resolution.

    The cap rule has n_theta Gauss nodes in theta times an n_sub_polar x
    n_sub_azimuth grid on S^{n-2} (two panels of n_theta nodes at n = 2);
    the zonal rule has 4 panels of n_theta nodes in psi and n_sub_azimuth
    nodes in phi.  mu' must be positive.  The packet is normalized by
    |d(mu')|^2 of the (j, k) = (0, 0) parity sector (the sectors differ
    only for odd n); another sector's packet is this one times
    (d_abs(n, j, k, mu') / d_abs(n, 0, 0, mu'))^2.
    """

    profile: AbsoluteProfile
    mass: PrincipalMass
    n_theta: int = 20
    n_sub_polar: int = 12
    n_sub_azimuth: int = 24

    def __post_init__(self):
        if self.mass.mu_prime <= 0.0:
            cfg = self.mass.cfg
            raise PoleError(f"|d(mu')|^2 has a pole at mu' = 0: mu must exceed "
                            f"(n-1)/(2R) = {cfg.mu_min:g} at n = {cfg.n}, R = {cfg.R:g}")

    def zonal_nodes(self, gamma) -> tuple[np.ndarray, np.ndarray]:
        """(psi, weights incl. the cone 1/2, sin^{n-2} psi and G_gamma(psi))
        of the zonal rule, one row per angle gamma in (delta, pi - delta);
        n >= 3.  psi runs over 4 Gauss panels of n_theta nodes on
        [gamma - delta, gamma + delta], G over n_sub_azimuth nodes (see
        AbsoluteProfile.zonal_average)."""
        delta = self.profile.delta
        gamma = np.asarray(gamma, dtype=float)[:, None]
        nodes, w = specfun.gauss_panels(np.linspace(-delta, delta, 5), self.n_theta)
        psi = gamma + nodes
        g = self.profile.zonal_average(gamma, psi, self.n_sub_azimuth)
        return psi, 0.5 * w * np.sin(psi) ** (self.mass.cfg.n - 2) * g

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


# s-values, or zonal (gamma, psi, phi) nodes, per wavepacket_ambient block:
# a batch's temporaries then cost no more peak memory than a one-point call's
_WAVEPACKET_BLOCK = 4096


def _past_front(profile: AbsoluteProfile, pts: np.ndarray):
    """(rows past the packet's front, gamma, r) of ambient row points.

    r = |x_vec| and gamma is the angle from x_vec to the profile centre,
    from atan2 of the parts of x_vec across and along the centre.  A row
    is past its front when delta < gamma < pi - delta - 0.2 and x_0 > r
    cos(gamma - delta): then s = -x_0 + r cos psi < 0 for every direction
    of the cap.  The upper bound keeps the antipode of x_vec at least 0.2
    outside the cap; nearer, the zonal average moves with gamma on the
    scale of that distance, and the zonal rule's error with it (see
    wavepacket_ambient)."""
    c = np.asarray(profile.center, dtype=float)
    xv = pts[:, 1:]
    r = np.linalg.norm(xv, axis=1)
    along = xv @ c
    gamma = np.arctan2(np.linalg.norm(xv - along[:, None] * c, axis=1), along)
    d = profile.delta
    past = (gamma > d) & (gamma < math.pi - d - 0.2) & (pts[:, 0] > r * np.cos(gamma - d))
    return past, gamma, r


def wavepacket_ambient(spec: WavepacketSpec, x, full_output: bool = False):
    """Synthesize f(x) = |d(mu')|^2 integral of fhat(xi) Psi_mu(x, xi) dA.

    x may be one ambient point or an array of row points, evaluated in
    blocks of at most 4096 s-values (at least one row).  Each row takes
    one of two routes:

    * the zonal route, at n >= 3 for a row past its front (see
      _past_front).  The profile is zonal, so with psi the angle of xi
      from x_vec, f(x) = (1/2) |d|^2 int dpsi sin^{n-2} psi
      Psi(-x_0 + r cos psi) G_gamma(psi), with G from
      AbsoluteProfile.zonal_average, built once per distinct gamma of the
      call.  A row costs 4 n_theta plane-wave values.  Its nodes move
      with x, so the field is not an exact sum of plane waves and its
      quadrature error need not solve the wave equation.  With the rule
      (14, 8, 16) and delta = 0.35 the FD (box - mu^2) residual of
      dalembert_horo_residual (h = 1e-3, Richardson) reads 7e-10 to
      8.6e-8 at gamma = 1.2-2.3, where the cap rule reads 1e-9 to 2e-9,
      and 9e-10 to 9e-9 at twice the psi and phi nodes, so it is
      quadrature error.  At n = 3 it grows like the inverse square of the
      antipode's distance from the cap: 3.7e-7 at 0.21, 2.4e-6 at 0.05
      (5e-7 at 0.19 and 9.4e-7 at 0.14 for delta = 0.25), hence the bound
      0.2 of _past_front; at n = 4 it stays below 1e-7 there.  With the
      antipode in the cap, or inside the cap, the zonal rule fails
      outright (residual 0.26 to 13), and where s changes sign on the
      cap a Gauss rule in psi is not valid at all; so no other row takes
      this route;
    * the cap rule of WavepacketSpec.cap_nodes for every other row, and
      at n = 2.  Nodes on x.xi = 0 to within the rounding bound of the
      dot product, (n+1) eps (|x_0 xi_0| + sum |x_i xi_i|), are dropped.

    The report sums dropped nodes and total nodes (cap nodes per cap row,
    psi nodes per zonal row) over the rows, so the counts do not depend on
    how the points are batched.  Nor do the values of zonal rows; those of
    cap rows do, by rounding: BLAS rounds s = x.xi differently for other
    block shapes, and near a node where s nearly vanishes the power
    |s|^{-(n-1)/2} amplifies it.  On 300 random points with beta in [-1, 6]
    one-row calls differed from the batch by up to 5.5e-11 relative at
    n = 2, 4.6e-14 at n = 3 and 2.0e-11 at n = 4.  The noise estimate
    is the roundoff scale 1e-13 |d|^2 int |fhat| dA of the node sum, the
    integral (1/2) |S^{n-2}| int_0^delta |fhat(theta)| sin^{n-2} theta
    dtheta on the n_theta-node Gauss rule of the profile, whatever the
    rows.
    """
    mass = spec.mass
    n = mass.cfg.n
    d2 = specfun.d_abs(n, 0, 0, mass.mu_prime) ** 2
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.empty(pts.shape[0], dtype=complex)
    rep = WavepacketReport()
    cap = slice(None)
    if n >= 3:
        past, gamma, r = _past_front(spec.profile, pts)
        cap = ~past
        if past.any():
            # rows sorted by gamma, so G is built a chunk of gammas at a
            # time and each chunk's rows are summed block by block
            keys, which = np.unique(gamma[past], return_inverse=True)
            order = np.argsort(which, kind="stable")
            at = np.flatnonzero(past)[order]
            which, x0, r = which[order], pts[at, 0], r[at]
            n_psi = 4 * spec.n_theta
            chunk = max(1, _WAVEPACKET_BLOCK // (n_psi * spec.n_sub_azimuth))
            step = max(1, _WAVEPACKET_BLOCK // n_psi)
            vals = np.empty(at.size, dtype=complex)
            for lo in range(0, keys.size, chunk):
                psi, wz = spec.zonal_nodes(keys[lo:lo + chunk])
                cos_psi, wz = np.cos(psi), d2 * wz
                first, last = np.searchsorted(which, [lo, lo + chunk])
                for i in range(first, last, step):
                    j = min(i + step, last)
                    k = which[i:j] - lo
                    s = -x0[i:j, None] + r[i:j, None] * cos_psi[k]
                    vals[i:j] = (_two_branch(mass, s) * wz[k]).sum(axis=1)
            out[at] = vals
            rep.total_nodes += at.size * n_psi
    rows = pts[cap]
    if rows.shape[0]:
        xi, w = spec.cap_nodes()
        wf = w * spec.profile.value(xi[:, 1:])
        tol = (n + 1) * np.finfo(float).eps
        vals = np.empty(rows.shape[0], dtype=complex)
        step = max(1, _WAVEPACKET_BLOCK // xi.shape[0])
        for i in range(0, rows.shape[0], step):
            blk = rows[i:i + step]
            s = -np.outer(blk[:, 0], xi[:, 0]) + blk[:, 1:] @ xi[:, 1:].T
            mask = np.abs(s) <= tol * (np.abs(blk) @ np.abs(xi).T)
            rep.dropped_nodes += int(mask.sum())
            vals[i:i + step] = d2 * (np.where(mask, 0.0, _two_branch(mass, s)) * wf).sum(axis=1)
        out[cap] = vals
        rep.total_nodes += vals.size * xi.shape[0]
    if full_output:
        theta, wt = specfun.gauss_panels((0.0, spec.profile.delta), spec.n_theta)
        fhat = np.abs(spec.profile.at_angle(theta)) * np.sin(theta) ** (n - 2)
        fhat_integral = 0.5 * _sphere_area(n - 2) * (wt @ fhat)
        rep.noise_estimate = float(d2 * fhat_integral * 1e-13)
        return (out[0], rep) if single else (out, rep)
    return out[0] if single else out


@dataclass
class HyperCoeffs:
    """Mode table chi[(alpha, m, ls)] at fixed rho."""

    rho: float
    table: dict[tuple[int, int, tuple[int, ...]], complex] = field(default_factory=dict)

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


def fourier_hyper_forward(f, rho: float, grid: QuadratureGrid) -> HyperCoeffs:
    """Coefficients chi = integral of conj(Psi) f over the chart window, for
    both families (alpha = 1, 2).

    f is the field's (n_beta, n_sphere) array on the grid, real or
    complex; anything else raises ValueError.  The measure is separable,
    so its beta factor weights the radial rows and its sphere factor the
    conjugate harmonics.  The rows are real (see planewave.radial_table), so one real
    product contracts beta for both families, on F as interleaved real and
    imaginary columns.  One more product meets each contracted row with
    every harmonic, and each mode keeps its own top label's entry.
    """
    F = np.asarray(f)
    shape = (grid.beta_nodes.size, grid.sphere.size)
    if F.shape != shape:
        raise ValueError(f"field has shape {F.shape}, not (n_beta, n_sphere) = {shape}")
    keys, Yw, pick = grid._forward_factors
    R = np.concatenate([grid.radial_rows(rho, a).real for a in (1, 2)])
    R *= grid._beta_measure
    P = (R @ np.ascontiguousarray(F, dtype=complex).view(float)).view(complex)
    vals = (P @ Yw).ravel()[pick]
    return HyperCoeffs(rho=rho, table=dict(zip(keys, vals.tolist())))


def fourier_hyper_inverse(coeff_field, grid: QuadratureGrid) -> np.ndarray:
    """Field on the product grid from a rho-indexed coefficient field.

    coeff_field maps rho -> HyperCoeffs (a callable, or a sequence with one
    entry per grid.rho_nodes); None stands for an empty table.  A sequence
    of another length, or a table whose rho is not its node's to within
    1e-12 relative, raises ValueError.  The rho-measure carries the
    spectral density rho/2 measured for the normalized modes, which makes
    forward -> inverse the identity on band-limited fields.  The literal
    unweighted integral is this inverse applied to the coefficients
    (2/rho) chi; it composes with the forward to multiplication by 2/rho.
    """
    idxs, Y, top_row = grid.harmonics
    tables = (list(coeff_field) if isinstance(coeff_field, (list, tuple))
              else [coeff_field(r) for r in grid.rho_nodes])
    if len(tables) != grid.rho_nodes.size:
        raise ValueError(f"{len(tables)} coefficient tables for "
                         f"{grid.rho_nodes.size} rho nodes")
    for i, (r, c) in enumerate(zip(grid.rho_nodes, tables)):
        if c is None:
            tables[i] = HyperCoeffs(rho=float(r))
        elif not abs(c.rho - r) <= 1e-12 * abs(r):
            raise ValueError(f"coefficient table {i} is at rho = {c.rho}, "
                             f"not at its rho node {r}")
    weight = grid.rho_weights * (0.5 * grid.rho_nodes)
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
    integrand clears the window, which must satisfy 0 < s_lo < s_hi.
    h must vectorize over s and may return a batch of functions, shape
    (..., n_s) on the n_s nodes; the result then has shape (..., n_rho),
    one product (H w) @ ker^T for the whole batch.  rho may be an array.
    The trapezoid weights and e^{(n-1) v / 2} form one real vector w,
    applied to the samples H.
    """
    s_lo, s_hi = s_window
    if not 0.0 < s_lo < s_hi:
        raise ValueError(f"s_window must satisfy 0 < s_lo < s_hi, got {s_window}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be at least 2, got {n_nodes}")
    v = np.linspace(math.log(s_lo), math.log(s_hi), n_nodes)
    w = np.exp(0.5 * (n - 1) * v) * (v[1] - v[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    return ((np.asarray(h(np.exp(v)), dtype=complex) * w)
            @ np.exp(-1j * np.outer(v, rho)))


def mellin_inverse(varpi, n: int, s, rho_window=(-40.0, 40.0),
                   n_nodes: int = 2000):
    """h(s) = (1/2 pi) integral of varpi(rho) s^{-(n-1)/2 + i rho} drho,
    by the trapezoid rule on rho_lo < rho_hi."""
    if not rho_window[0] < rho_window[1]:
        raise ValueError(f"rho_window must satisfy rho_lo < rho_hi, got {rho_window}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be at least 2, got {n_nodes}")
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
# the fit columns' offsets from the pole
_FIT_OFF = np.array([k for k in range(-_FIT_CELLS, _FIT_CELLS + 1)
                     if abs(k) > _POLE_CELLS])


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
        if self.n_theta < 2 or self.n_theta % 2:
            raise ValueError(f"n_theta must be even and at least 2, got {self.n_theta}")
        if self.n_s < 2:
            raise ValueError(f"n_s must be at least 2, got {self.n_s}")
        if not 0.0 < self.s_window[0] < self.s_window[1]:
            raise ValueError("s_window must satisfy 0 < s_lo < s_hi, "
                             f"got {self.s_window}")

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


def _intertwiner_exponent_phase(grid: ConeGrid, rho,
                                forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exponent E = -(n-1)/2 -+ i rho of the angular kernel |a|^E and the
    Theta phase e^{i pi ((n-1)/2 (+-1) + i rho)} of its a < 0 branch
    (upper signs forward, lower inverse), as (n_rho, 1) columns."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))[:, None]
    E = -0.5 * (grid.n - 1) + 1j * (-rho if forward else rho)
    phase = np.exp(1j * math.pi * (0.5 * (grid.n - 1)
                                   * (1 if forward else -1) + 1j * rho))
    return E, phase


def intertwiner_symbol(grid: ConeGrid, rho, forward: bool,
                       sector: int, j) -> np.ndarray:
    """Exact circle symbol of the angular intertwiner on mode e^{ij theta}.

    The kernel (2 sin^2(u/2))^E (sector +1, with the Theta phase) or
    (2 cos^2(u/2))^E (sector -1) has Fourier integrals
    [phase (-1)^j or 1] * 2^{-E} 2 pi Gamma(1+2E)/(Gamma(1+E+j)Gamma(1+E-j)),
    the exponent continuation of the classical |1 - e^{iu}|^{2s} expansion.
    The value depends on |j| only.  One ln_gamma call over the stacked
    arguments [1 + 2E, 1 + E] gives j = 0 for every rho, and the ratio
    lam_{j+1} / lam_j = (E - j) / (1 + E + j) (DLMF 5.5.1) gives every
    other |j| by one cumulative product along j, for all rho at once.  rho
    goes through np.atleast_1d, so the result has shape (n_j, n_rho), with
    n_rho = 1 for a scalar.
    """
    E, phase = _intertwiner_exponent_phase(grid, rho, forward)
    aj = np.abs(np.atleast_1d(np.asarray(j, dtype=int)))
    k = np.arange(aj.max(initial=0))
    lam = np.empty((E.shape[0], k.size + 1), dtype=complex)
    lg2, lg1 = specfun.ln_gamma(np.stack([1 + 2 * E, 1 + E]))
    lg0 = lg2 - 2 * lg1
    lam[:, :1] = 2.0 ** (-E) * 2.0 * math.pi * np.exp(lg0)
    lam[:, 1:] = lam[:, :1] * np.cumprod((E - k) / (1 + E + k), axis=1)
    lam = lam[:, aj]
    if sector == 1:
        lam = phase * (-1.0) ** aj * lam
    return lam.T


def _intertwiner_eigs(grid: ConeGrid, rho, forward: bool,
                      sector: int, method: str = "spectral") -> np.ndarray:
    """Eigenvalues of the angular intertwiner on the circle, in
    np.fft.fftfreq order: the operator is g -> ifft(eigs * fft(g)).

    The result has shape (n_theta, n_rho), n_rho = 1 for a scalar rho: the
    eigenvalues for all rho nodes of a sector come from one call, with the
    rho-independent pieces built once.
    sector = t' tau' (+1 or -1) fixes the sign of a = -sector + cos(dtheta).
    On the uniform grid the kernel matrix is circulant,
    [i_out, j_in] = row[(j - i) mod n_theta], so its eigenvalues are
    n_theta * ifft(row).  method "spectral" (the default) returns the exact
    symbol.  method "direct" is the node-exclusion quadrature of the row: the
    kernel's isolated zero (dtheta = 0 for sector +1, pi for sector -1) is
    handled by an analytic pole window where the smooth factor is fitted
    from nearby columns and the |u|^{2E+k} moments integrated in closed
    form, continued in the exponent (Re(2E+1) = 0 at n = 2 is the
    borderline homogeneity).  Every power x^E is exp(E log x) from the real
    logs of |a| and of the cell edges, taken once per call, and the kernel's
    own samples weight only the cells past the product-integrated flanks.
    The fit's pseudo-inverse is taken in the offsets k / _FIT_CELLS, so it
    does not depend on n_theta.  It never calls intertwiner_symbol or
    ln_gamma, so it serves as the independent check of the symbol.  It
    needs the 2 _FIT_CELLS + 1 fit columns around the pole to fit on the
    circle without wrapping.  Past that guard the fit
    limits its resolution, with no error raised: modes j <= 3 are off the
    symbol by up to 2.4e-2 at n_theta = 64, 2.2e-3 at 96, 8.4e-4 at 128 and
    2.3e-4 at 256, so j = 3 is worse than 2e-3 below n_theta of about 96.
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
    # a = -sector + cos(dtheta) keeps one sign on the whole circle (a <= 0 in
    # sector +1, a >= 0 in sector -1), so the kernel is branch * |a|^E with
    # one branch factor (the Theta phase in sector +1), applied to the
    # eigenvalues at the end
    pole_at = 0 if sector == 1 else nt // 2
    span = min(_FILON_CELLS, nt // 2 - 1)
    # the window cells (pole cell and _POLE_CELLS neighbours each side) stay
    # zero and the flank cells are filled below: the kernel's own samples
    # weight only the cells past the flanks
    far = (pole_at + np.arange(span + 1, nt - span)) % nt
    row = np.zeros((E.shape[0], nt), dtype=complex)
    row[:, far] = np.exp(E * np.log(np.abs(-sector + np.cos(far * dth)))) * dth

    # product integration on the cells flanking the window: |u|^{2E}
    # oscillates in log u too fast there for plain midpoint weights, so the
    # kernel mass and first moment of each cell are integrated in closed
    # form, with the input's node value and central-difference slope.  Cell
    # k spans the edges (k -+ 1/2) dth; the first edge is the window edge w
    k = np.arange(_POLE_CELLS + 1, span + 1)
    u_k = k * dth
    edges = (np.arange(_POLE_CELLS, span + 1) + 0.5) * dth
    p1 = np.exp((2 * E + 1.0) * np.log(edges))  # edges^{2E+1}
    mass = (p1[:, 1:] - p1[:, :-1]) / (2 * E + 1.0)
    mom1 = ((p1[:, 1:] * edges[1:] - p1[:, :-1] * edges[:-1]) / (2 * E + 2.0)
            - u_k * mass)
    scale = np.exp(E * np.log(2.0 * np.sin(u_k / 2.0) ** 2 / u_k**2))
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
    u_fit = _FIT_OFF * dth
    qE = np.exp(E * np.log(2.0 * np.sin(np.abs(u_fit) / 2.0) ** 2 / u_fit**2))
    # moments integral |u|^{2E} (u / (_FIT_CELLS dth))^k over (-w, w): odd k
    # vanish, and w^{2E+k+1} = w^{2E+1} w^k
    w = edges[0]
    mom = np.zeros((E.shape[0], _FIT_DEGREE + 1), dtype=complex)
    ke = np.arange(0, _FIT_DEGREE + 1, 2)
    mom[:, ke] = (2.0 * p1[:, :1] * (w / (_FIT_CELLS * dth)) ** ke
                  / (2.0 * E + ke + 1.0))
    # weights applied to the sampled columns; q^E folds into the fit samples
    P = np.linalg.pinv(np.vander(_FIT_OFF / _FIT_CELLS, _FIT_DEGREE + 1,
                                 increasing=True))  # coefficients = P @ g
    row[:, (pole_at + _FIT_OFF) % nt] += (mom @ P) * qE
    eigs = nt * np.fft.ifft(row, axis=1)
    if sector == 1:
        eigs *= phase
    return eigs.T


def _sheet_eigs(grid: ConeGrid, rho_nodes: np.ndarray, forward: bool,
                method: str) -> dict:
    """sector -> intertwiner eigenvalues at every rho node, shape
    (n_theta, n_rho), from one _intertwiner_eigs call (sector -1) for
    either method.  The sector +1 kernel is the sector -1 kernel turned by
    pi times the Theta phase, for the symbol and for every piece of the
    direct quadrature (the pole window, flanks and fit sit relative to the
    pole), so sector +1 is phase (-1)^|j| times the sector -1 table."""
    lam = _intertwiner_eigs(grid, rho_nodes, forward, -1, method)
    j = np.fft.fftfreq(grid.n_theta, d=1.0 / grid.n_theta).astype(int)
    phase = _intertwiner_exponent_phase(grid, rho_nodes, forward)[1]
    return {1: (phase * (-1.0) ** np.abs(j)).T * lam, -1: lam}


def _apply_sheets(eigs: dict, sheets: np.ndarray) -> np.ndarray:
    """out[b] = sum over a of A_{a b} sheets[a], columnwise in rho, with
    A_{a b} the intertwiner of sector a b: both sheets a = +-1 enter with
    weight one (the unsigned sum).  sheets and the result are stacked in
    sheet order (+1, -1), shape (2, n_theta, n_rho): one fft along theta
    for both input sheets, one ifft for both output sheets."""
    spec = np.fft.fft(sheets, axis=1)
    return np.fft.ifft(np.stack([eigs[b] * spec[0] + eigs[-b] * spec[1]
                                 for b in (1, -1)]), axis=1)


def cone_fourier_forward(h: ConeFunction, rho_nodes,
                         grid: ConeGrid | None = None,
                         method: str = "spectral") -> ConeSpectrum:
    """Cone Fourier transform psi(tau', chi', rho) on the grid.

    Mellin transform along the generators (exponent (n-1)/2 - i rho)
    followed by the angular intertwiner with the forward Theta-phase.
    Both t' = +-1 sheets enter the sum with weight one, the convention the
    round trip and the parity identities confirm.  The signed reading,
    which weights the t' = -1 sheet by -1, is this transform of t' h.
    The h values of both sheets on all directions fill one
    (2, n_theta, n_s) array, which goes through one Mellin call, so the
    Mellin kernel is built once.  rho_nodes goes through np.atleast_1d, so
    each sheet of the spectrum has shape (n_theta, n_rho), n_rho = 1 for a
    scalar.  method "spectral" applies the exact intertwiner symbol,
    "direct" its independent node-exclusion quadrature (see
    _intertwiner_eigs).
    """
    grid = grid or ConeGrid(n=h.n, s_window=h.s_window)
    rho_nodes = np.atleast_1d(np.asarray(rho_nodes, dtype=float))
    eigs = _sheet_eigs(grid, rho_nodes, True, method)
    dirs = grid.directions()

    def sheets(s):
        out = np.empty((2, len(dirs)) + s.shape, dtype=complex)
        for tprime, block in zip((1, -1), out):
            for row, d in zip(block, dirs):
                row[...] = h(s, tprime, d)
        return out

    varpi = mellin_forward(sheets, grid.n, rho_nodes, grid.s_window, grid.n_s)
    psi = _apply_sheets(eigs, varpi)
    return ConeSpectrum(grid, rho_nodes, {1: psi[0], -1: psi[1]})


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
                         method: str = "spectral") -> dict:
    """Inverse cone transform on the grid: h(s_i, t', theta_j).

    (1/2 pi) sum over the rho nodes (with the supplied weights) of |d|^2
    (signed-rho continuation) times the inverse-phase angular kernel times
    s^{-(n-1)/2 + i rho}.  Both tau' = +-1 sheets enter with weight one;
    the signed reading is this inverse of the spectrum tau' psi(tau', .).
    At n = 2 |d| does not depend on the (j, k) sector.  The rho grid may
    cover both half lines or a band on one of them.  method is as in
    cone_fourier_forward.  The rho nodes and weights go through
    np.atleast_1d, and each sheet of psi.values must have shape
    (n_theta, n_rho), or ValueError is raised.  Returns tauprime ->
    (n_s, n_theta), both sheets from one (n_s x n_rho) @ (n_rho x 2 n_theta)
    product.
    """
    grid = psi.grid
    rho_nodes = np.atleast_1d(np.asarray(psi.rho_nodes, dtype=float))
    rho_weights = np.atleast_1d(np.asarray(rho_weights, dtype=float))
    sheets = np.stack([psi.values[1], psi.values[-1]])
    if sheets.shape[1:] != (grid.n_theta, rho_nodes.size):
        raise ValueError(f"spectrum sheets must have shape (n_theta, n_rho) = "
                         f"{(grid.n_theta, rho_nodes.size)}, got {sheets.shape[1:]}")
    eigs = _sheet_eigs(grid, rho_nodes, False, method)
    acc = _apply_sheets(eigs, sheets)
    d2 = _d_abs_sq_signed(grid.n, 0, 0, rho_nodes)
    # (n_s, n_rho): s^{-(n-1)/2} w |d|^2 / 2 pi, times e^{i rho log s}
    logs = np.log(grid.s_nodes)
    radial = (np.outer(np.exp(-0.5 * (grid.n - 1) * logs),
                       rho_weights * d2 / (2.0 * math.pi))
              * np.exp(1j * np.outer(logs, rho_nodes)))
    nt = grid.n_theta
    h = radial @ acc.reshape(2 * nt, -1).T
    return {1: h[:, :nt], -1: h[:, nt:]}

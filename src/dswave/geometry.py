"""Coordinate charts on de Sitter spacetime and the geometry of the absolute.

The spacetime is the hyperboloid x.x = R^2 in (n+1)-dimensional Minkowski
space with metric diag[-1, 1, ..., 1].  Two charts are provided: the
horospheric chart (tau, y, eps) covering everything except x_0 + x_n = 0,
and the global hyperbolic chart (beta, phi_1..phi_{n-2}, phi).  The absolute
is the set of null covectors xi with xi_0 > 0, normalized here to xi_0 = 1.

central_differences is the one finite-difference stencil of the package:
the cone-measure oracle here, the wave-equation residuals of planewave and
the Casimir check of limits all take their derivatives from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ChartSingularError

__all__ = [
    "SpacetimeConfig",
    "HoroChart",
    "HyperChart",
    "origin",
    "minkowski_dot",
    "from_horo",
    "to_horo",
    "from_hyper",
    "sphere_point",
    "sphere_density",
    "absolute_covector",
    "cone_measure_weight",
    "cone_measure_weight_fd",
    "central_differences",
]


@dataclass(frozen=True)
class SpacetimeConfig:
    """Dimension n (of the spacetime) and curvature radius R.

    Every chart and wave in the package is parameterized by one of these.
    ``tol`` is the relative tolerance used by on-manifold checks.
    """

    n: int
    R: float = 1.0
    tol: float = 1e-12

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.R <= 0:
            raise ValueError(f"radius R must be positive, got {self.R}")

    @property
    def mu_min(self) -> float:
        """Smallest principal-series mass, (n-1)/(2R)."""
        return (self.n - 1) / (2.0 * self.R)


@dataclass(frozen=True)
class HoroChart:
    """Horospheric coordinates (tau, y, eps) with eps = +-1 the reflection."""

    tau: float
    y: tuple[float, ...]
    eps: int = 1

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")


@dataclass(frozen=True)
class HyperChart:
    """Hyperbolic coordinates (beta, phi_1..phi_{n-2}, phi).

    The polar angles phi_i live in [0, pi], the azimuth phi in [0, 2*pi).
    For n = 2 there are no polar angles.
    """

    beta: float
    phis: tuple[float, ...] = field(default_factory=tuple)
    phi: float = 0.0


def origin(cfg: SpacetimeConfig) -> np.ndarray:
    """The base point (0, ..., 0, R) of the hyperboloid."""
    x = np.zeros(cfg.n + 1)
    x[-1] = cfg.R
    return x


def minkowski_dot(u, v) -> float:
    """Bilinear form -u0*v0 + sum_k uk*vk on (n+1)-vectors.

    Broadcasts over leading axes; the last axis is the vector index.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)


def from_horo(cfg: SpacetimeConfig, chart: HoroChart) -> np.ndarray:
    """Map horospheric coordinates to ambient coordinates.

    x = R*(sinh(t/R) - q*e^{-t/R}, -y/R*e^{-t/R}, cosh(t/R) - q*e^{-t/R})*eps
    with q = |y|^2/(2R^2).
    """
    y = np.asarray(chart.y, dtype=float)
    if y.shape != (cfg.n - 1,):
        raise ValueError(f"y must have length n-1 = {cfg.n - 1}")
    R = cfg.R
    t = chart.tau / R
    q = 0.5 * float(y @ y) / R**2
    damp = np.exp(-t)
    x = np.empty(cfg.n + 1)
    x[0] = np.sinh(t) - q * damp
    x[1:-1] = -(y / R) * damp
    x[-1] = np.cosh(t) - q * damp
    return chart.eps * R * x


def to_horo(cfg: SpacetimeConfig, x) -> HoroChart:
    """Invert the horospheric chart.

    tau = -R log((x_n - x_0)/R) and y_i = -R x_i/(x_n - x_0) on the eps = +1
    branch (x_n > x_0); the eps = -1 branch is reached by reflecting x first.
    Points with x_0 + x_n = 0 (equivalently x_n = +-x_0) are not covered.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n + 1,):
        raise ValueError(f"point must have length n+1 = {cfg.n + 1}")
    R = cfg.R
    if abs(x[0] + x[-1]) <= cfg.tol * R:
        raise ChartSingularError("x0 + xn = 0 is not covered by the horospheric charts")
    eps = 1 if x[-1] > x[0] else -1
    xe = eps * x
    diff = xe[-1] - xe[0]
    if diff <= cfg.tol * R:
        raise ChartSingularError("x_n = x_0 lies outside the chart branch")
    tau = -R * np.log(diff / R)
    y = -R * xe[1:-1] / diff
    return HoroChart(tau=float(tau), y=tuple(y), eps=eps)


def sphere_point(n: int, phis, phi) -> np.ndarray:
    """Unit vector on S^{n-1} for polar angles phis (n-2 of them) and azimuth phi.

    Ordering matches the hyperbolic chart: u_n = cos(phi_1),
    u_{n-1} = sin(phi_1) cos(phi_2), ..., u_2 = sin(phi_1)..sin(phi_{n-2}) cos(phi),
    u_1 = sin(phi_1)..sin(phi_{n-2}) sin(phi).  Broadcasts over arrays of
    angles: the result has shape broadcast(phis..., phi).shape + (n,).
    """
    phis = tuple(phis)
    if len(phis) != n - 2:
        raise ValueError(f"expected {n - 2} polar angles, got {len(phis)}")
    cols = []  # u_n, u_{n-1}, ..., u_1
    run = 1.0
    for a in phis:
        cols.append(run * np.cos(a))
        run = run * np.sin(a)
    cols += [run * np.cos(phi), run * np.sin(phi)]
    # the last column carries the broadcast shape of every angle
    u = np.empty(cols[-1].shape + (n,))
    for k, c in enumerate(cols):
        u[..., n - 1 - k] = c
    return u


def sphere_density(n: int, phis) -> float:
    """Angular volume density prod_k sin(phi_k)^{n-1-k} of S^{n-1}."""
    d = 1.0
    for k, a in enumerate(phis, start=1):
        d *= np.sin(a) ** (n - 1 - k)
    return d


def from_hyper(cfg: SpacetimeConfig, chart: HyperChart) -> np.ndarray:
    """Map hyperbolic coordinates to ambient coordinates.

    x_0 = R sinh(beta); the spatial part is R cosh(beta) times a unit vector
    on S^{n-1} in the chart's angle ordering.
    """
    x = np.empty(cfg.n + 1)
    x[0] = cfg.R * np.sinh(chart.beta)
    x[1:] = cfg.R * np.cosh(chart.beta) * sphere_point(cfg.n, chart.phis, chart.phi)
    return x


def absolute_covector(u, tol: float = 1e-10) -> np.ndarray:
    """Null covector xi = (1, u) for a unit vector u on S^{n-1}."""
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"direction must be a unit vector, |u| = {norm}")
    return np.concatenate(([1.0], u))


def cone_measure_weight(cfg: SpacetimeConfig, phis, phi: float = 0.0) -> float:
    """Density of the contracted cone volume form on the xi_0 = 1 section.

    With respect to the angular coordinate element d(phi_1)...d(phi), the
    invariant measure on the absolute is half the round-sphere density:
    1/2 * prod_k sin(phi_k)^{n-1-k}.  For n = 2 this is the constant 1/2.
    """
    return 0.5 * sphere_density(cfg.n, phis)


def cone_measure_weight_fd(cfg: SpacetimeConfig, phis, phi: float = 0.0,
                           h: float = 1e-6) -> float:
    """Independent evaluation of the cone measure density by differentiation.

    Pulls back (1/(2|xi_0|)) sum_j (-1)^{j+1} xi_j dxi_1 ^ ... ^ hat(dxi_j)
    ^ ... ^ dxi_n through xi(angles) = (1, u(angles)) with a central-difference
    Jacobian.  Used as the oracle for cone_measure_weight.
    """
    n = cfg.n
    angles = np.asarray(tuple(phis) + (phi,), dtype=float)
    # xi_1..xi_n and their (n x (n-1)) Jacobian d(xi_1..xi_n)/d(angles)
    xi, jac, _ = central_differences(lambda a: sphere_point(n, a[:-1], a[-1]),
                                     angles, h)
    total = 0.0
    for j in range(n):
        rows = [r for r in range(n) if r != j]
        minor = np.linalg.det(jac[rows, :])
        total += (-1) ** j * xi[j] * minor
    # absolute value: the density of a measure, independent of the angle
    # ordering's orientation
    return 0.5 * abs(total)


def central_differences(F, q, h: float, richardson: bool = False,
                        mixed: bool = False):
    """(F(q), gradient, Hessian) of F at the coordinate vector q by central
    differences of step h: the one stencil of every residual check.

    The gradient is (F(q + h e_i) - F(q - h e_i))/2h and the Hessian
    diagonal (F(q + h e_i) - 2 F(q) + F(q - h e_i))/h^2.  With mixed=True
    the off-diagonal entries use the four-point cross stencil
    (F(q + h e_i + h e_j) - F(q + h e_i - h e_j) - F(q - h e_i + h e_j)
    + F(q - h e_i - h e_j))/4h^2; otherwise they are 0.  richardson=True
    returns (4 D(h/2) - D(h))/3 for every entry D.  For array-valued F each
    derivative adds a trailing coordinate axis: the gradient has shape
    F(q).shape + (d,) and the Hessian F(q).shape + (d, d).
    """
    q = np.asarray(q, dtype=float)
    eye = np.eye(q.size)
    f0 = np.asarray(F(q))

    def stencils(s):
        plus = [np.asarray(F(q + s * e)) for e in eye]
        minus = [np.asarray(F(q - s * e)) for e in eye]
        grad = np.stack([(p - m) / (2 * s) for p, m in zip(plus, minus)], axis=-1)
        hess = np.zeros(grad.shape + (q.size,), dtype=grad.dtype)
        for i in range(q.size):
            hess[..., i, i] = (plus[i] - 2 * f0 + minus[i]) / s**2
        if mixed:
            for i, j in combinations(range(q.size), 2):
                pp, pm = s * (eye[i] + eye[j]), s * (eye[i] - eye[j])
                hess[..., i, j] = hess[..., j, i] = (
                    F(q + pp) - F(q + pm) - F(q - pm) + F(q - pp)) / (2 * s) ** 2
        return grad, hess

    grad, hess = stencils(h)
    if richardson:
        fine_grad, fine_hess = stencils(h / 2)
        grad, hess = (4 * fine_grad - grad) / 3, (4 * fine_hess - hess) / 3
    return f0, grad, hess

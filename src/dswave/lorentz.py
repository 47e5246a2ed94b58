"""Matrix realization of SO0(1,n), its Lie algebra, and the flat-space contraction.

Generators are real (n+1)x(n+1) matrices M_ab = eta_a. (x) delta_b. -
eta_b. (x) delta_a. acting on row vectors from the right, so that
exp((tau/R) M_n0) is the hyperbolic rotation a(tau) and
exp(sum_i (y_i/R) (M_i0 + M_in)) is the horospheric translation n(y).
Every generator and check reads one generator tensor E[a, b] = M_ab over
all index pairs, so the bracket, contraction and Casimir checks are array
contractions, not loops over pairs of matrices.

Sign convention for the Iwasawa pair: the abelian generator exposed as
"iwasawa_a" is M_0n = -M_n0, normalized so that [a, n_i] = n_i exactly
(the horospheric generators span its +1 adjoint eigenspace).  The a(tau)
family written above flows by exp((tau/R) M_n0); both signs of the boost
are reachable through generator("boost", n, 0).
"""

from __future__ import annotations

import numpy as np

from .geometry import SpacetimeConfig

__all__ = [
    "eta",
    "generator",
    "structure_residual",
    "boost_a",
    "horo_n",
    "rotation_k",
    "act",
    "is_isometry",
    "random_group_word",
    "poincare_residual",
    "casimir_defining_multiple",
    "iwasawa_ad_residual",
]


def eta(n: int) -> np.ndarray:
    """Minkowski metric diag[-1, 1, ..., 1] on n+1 coordinates."""
    e = np.eye(n + 1)
    e[0, 0] = -1.0
    return e


def _generators(n: int) -> np.ndarray:
    """The generator tensor E[a, b] = M_ab, shape (n+1,)*4, over all index
    pairs: (M_ab)_cd = eta_ac delta_bd - eta_bc delta_ad, so M_ba = -M_ab
    and M_aa = 0.  Built afresh on every call."""
    d = np.diag(eta(n))
    a, b = np.indices((n + 1, n + 1))
    E = np.zeros((n + 1,) * 4)
    E[a, b, a, b] = d[a]
    E[a, b, b, a] -= d[b]
    return E


def _horospheric(E: np.ndarray) -> np.ndarray:
    """The horospheric generators n_i = M_i0 + M_in, i = 1..n-1, stacked."""
    n = E.shape[0] - 1
    return E[1:n, 0] + E[1:n, n]


def generator(cfg: SpacetimeConfig, kind: str, i: int = 0, j: int = 0) -> np.ndarray:
    """Defining-representation generator matrix, read off the generator
    tensor; each call returns a new array.

    kind: "rotation" (planes i-j, 1 <= i < j <= n), "boost" (plane i-0,
    1 <= i <= n), "iwasawa_a", or "iwasawa_n" (index i in 1..n-1).
    """
    n = cfg.n
    E = _generators(n)
    if kind == "rotation":
        if not (1 <= i < j <= n):
            raise ValueError(f"rotation indices need 1 <= i < j <= n, got ({i},{j})")
        return E[i, j]
    if kind == "boost":
        if not (1 <= i <= n):
            raise ValueError(f"boost index needs 1 <= i <= n, got {i}")
        return E[i, 0]
    if kind == "iwasawa_a":
        return E[0, n]
    if kind == "iwasawa_n":
        if not (1 <= i <= n - 1):
            raise ValueError(f"horospheric index needs 1 <= i <= n-1, got {i}")
        return _horospheric(E)[i - 1]
    raise ValueError(f"unknown generator kind {kind!r}")


def structure_residual(cfg: SpacetimeConfig) -> float:
    """Max norm of [M_ab, M_uv] minus its structure-constant expansion
    eta_av M_bu + eta_bu M_av - eta_au M_bv - eta_bv M_au, over all index
    pairs (a, b) and (u, v) at once: one einsum gives every product
    M_ab M_uv, another every term T[a, b, u, v] = eta_av M_bu, and the
    other three terms are T with its pairs swapped."""
    E = _generators(cfg.n)
    P = np.einsum("abij,uvjk->abuvik", E, E)
    T = np.einsum("av,buij->abuvij", eta(cfg.n), E)
    comm = P - P.transpose(2, 3, 0, 1, 4, 5)
    expansion = (T + T.transpose(1, 0, 3, 2, 4, 5)
                 - T.transpose(0, 1, 3, 2, 4, 5) - T.transpose(1, 0, 2, 3, 4, 5))
    return float(np.max(np.abs(comm - expansion)))


def iwasawa_ad_residual(cfg: SpacetimeConfig) -> float:
    """Max norm of [a, n_i] - n_i over the horospheric generators, all
    n - 1 of them in one stacked product."""
    E = _generators(cfg.n)
    a = E[0, cfg.n]
    ns = _horospheric(E)
    return float(np.max(np.abs(a @ ns - ns @ a - ns)))


def boost_a(cfg: SpacetimeConfig, tau: float) -> np.ndarray:
    """Hyperbolic rotation a(tau) in the x_0 - x_n plane."""
    n = cfg.n
    t = tau / cfg.R
    g = np.eye(n + 1)
    g[0, 0] = g[n, n] = np.cosh(t)
    g[0, n] = g[n, 0] = np.sinh(t)
    return g


def horo_n(cfg: SpacetimeConfig, y) -> np.ndarray:
    """Horospheric translation n(y) for y in R^{n-1}."""
    n = cfg.n
    y = np.asarray(y, dtype=float)
    if y.shape != (n - 1,):
        raise ValueError(f"y must have length n-1 = {n - 1}")
    w = y / cfg.R
    q = 0.5 * float(w @ w)
    g = np.eye(n + 1)
    g[0, 0] += q
    g[0, 1:-1] = w
    g[0, n] = q
    g[1:-1, 0] = w
    g[1:-1, n] = w
    g[n, 0] = -q
    g[n, 1:-1] = -w
    g[n, n] -= q
    return g


def rotation_k(cfg: SpacetimeConfig, i: int, j: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in the x_i - x_j plane (1 <= i < j <= n)."""
    if not (1 <= i < j <= cfg.n):
        raise ValueError(f"rotation indices need 1 <= i < j <= n, got ({i},{j})")
    g = np.eye(cfg.n + 1)
    c, s = np.cos(angle), np.sin(angle)
    g[i, i] = g[j, j] = c
    g[i, j] = s
    g[j, i] = -s
    return g


def is_isometry(cfg: SpacetimeConfig, g: np.ndarray, tol: float = 1e-12) -> bool:
    """Check g^T eta g = eta to the given absolute tolerance."""
    e = eta(cfg.n)
    return bool(np.max(np.abs(g.T @ e @ g - e)) <= tol)


def act(cfg: SpacetimeConfig, g: np.ndarray, x, check: bool = True):
    """Right action x -> x.g on row vectors; broadcasts over leading axes."""
    if check and not is_isometry(cfg, g, tol=1e-10):
        raise ValueError("matrix does not preserve the Minkowski form")
    return np.asarray(x, dtype=float) @ g


def random_group_word(cfg: SpacetimeConfig, rng: np.random.Generator,
                      length: int = 6, scale: float = 1.0) -> np.ndarray:
    """Random product of boosts a, translations n, and rotations k, m."""
    n = cfg.n
    g = np.eye(n + 1)
    for _ in range(length):
        kind = rng.integers(0, 4)
        if kind == 0:
            g = g @ boost_a(cfg, scale * rng.normal())
        elif kind == 1:
            g = g @ horo_n(cfg, scale * rng.normal(size=n - 1))
        elif kind == 2:
            i = int(rng.integers(1, n))
            g = g @ rotation_k(cfg, i, n, rng.uniform(0, 2 * np.pi))
        else:
            if n >= 3:
                i = int(rng.integers(1, n - 1))
                j = int(rng.integers(i + 1, n))
                g = g @ rotation_k(cfg, i, j, rng.uniform(0, 2 * np.pi))
            else:
                g = g @ boost_a(cfg, scale * rng.normal())
    return g


def _so_block(E: np.ndarray) -> np.ndarray:
    """The so(1,n-1) block that both contraction bases share: J_ij for
    1 <= i < j <= n-1 (row-major), then K_i = M_i0 for i = 1..n-1."""
    n = E.shape[0] - 1
    i, j = np.triu_indices(n - 1, 1)
    return np.concatenate([E[i + 1, j + 1], E[1:n, 0]])


def _scaled_ds_basis(cfg: SpacetimeConfig, R: float) -> np.ndarray:
    """Contracted basis, stacked: the so(1,n-1) block, then a' = a/R and
    n'_i = n_i/R."""
    n = cfg.n
    E = _generators(n)
    return np.concatenate([_so_block(E), E[None, 0, n] / R, _horospheric(E) / R])


def _poincare_basis(n: int) -> np.ndarray:
    """Affine (n+1)x(n+1) realization of so(1,n-1) (+) R^n, matching order.

    Lorentz block acts on row vectors (y_0..y_{n-1}); translations are
    T_a = -E_{n,a}, the sign calibrated so that [K_i, T_0] = T_i mirrors the
    contracted pairing of boosts with horospheric directions.
    """
    T = np.zeros((n, n + 1, n + 1))
    T[np.arange(n), n, np.arange(n)] = -1.0
    return np.concatenate([_so_block(_generators(n)), T])


def _structure_table(mats: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Structure constants C[p, q, r] with [m_p, m_q] = sum_r C[p,q,r] m_r.

    mats is a (k, d, d) stack.  All k^2 commutators are solved in one least
    squares call against the vectorized basis; if any of them is not
    reproduced from the basis span, the span does not close and this
    raises ValueError.
    """
    k = mats.shape[0]
    B = mats.reshape(k, -1).T
    P = mats[:, None] @ mats[None, :]
    targets = (P - P.transpose(1, 0, 2, 3)).reshape(k * k, -1).T
    coef = np.linalg.lstsq(B, targets, rcond=None)[0]
    scale = np.maximum(1.0, np.max(np.abs(targets), axis=0))
    if np.any(np.max(np.abs(B @ coef - targets), axis=0) > tol * scale):
        raise ValueError("commutator does not close on the basis span")
    return coef.T.reshape(k, k, k)


def poincare_residual(cfg: SpacetimeConfig, R: float) -> float:
    """Max structure-constant deviation of the contracted basis from p_n.

    The contracted de Sitter brackets are expanded in the scaled basis and
    compared entrywise with the Poincare table generated from the affine
    representation; the result decays like 1/R.
    """
    C_ds = _structure_table(_scaled_ds_basis(cfg, R))
    C_p = _structure_table(_poincare_basis(cfg.n))
    return float(np.max(np.abs(C_ds - C_p)))


def casimir_defining_multiple(cfg: SpacetimeConfig, tol: float = 1e-10) -> float:
    """Scalar c with sum_{i<j} M_ij^2 + sum_i M_in^2 - sum_i M_i0^2 - A^2 = c*Id.

    Indices i, j run over 1..n-1 and A = M_n0.  The combination is the
    quadratic Casimir (1/2) sum_ab eta_aa eta_bb M_ab^2, one contraction of
    the generator tensor.  Raises if it is not proportional to the
    identity (it is, by Schur).
    """
    n = cfg.n
    d = np.diag(eta(n))
    E = _generators(n)
    acc = 0.5 * np.einsum("a,b,abij,abjk->ik", d, d, E, E)
    c = acc[0, 0]
    if np.max(np.abs(acc - c * np.eye(n + 1))) > tol:
        raise ValueError("Casimir combination is not a multiple of the identity")
    return float(c)

"""Matrix realization of SO0(1,n), its Lie algebra, and the flat-space contraction.

Generators are real (n+1)x(n+1) matrices M_ab = eta_a. (x) delta_b. -
eta_b. (x) delta_a. acting on row vectors from the right, so that
exp((tau/R) M_n0) is the hyperbolic rotation a(tau) and
exp(sum_i (y_i/R) (M_i0 + M_in)) is the horospheric translation n(y).

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
    "basis_labels",
    "commutator",
    "structure_constant_bracket",
    "structure_residual",
    "boost_a",
    "horo_n",
    "rotation_k",
    "act",
    "regular_rep_pullback",
    "is_isometry",
    "random_group_word",
    "contract_scale",
    "poincare_residual",
    "casimir_defining_multiple",
    "iwasawa_ad_residual",
]


def eta(n: int) -> np.ndarray:
    """Minkowski metric diag[-1, 1, ..., 1] on n+1 coordinates."""
    e = np.eye(n + 1)
    e[0, 0] = -1.0
    return e


def _M(n: int, a: int, b: int) -> np.ndarray:
    # (M_ab)_{cd} = eta_{ac} delta_{bd} - eta_{bc} delta_{ad}
    e = eta(n)
    m = np.zeros((n + 1, n + 1))
    m[a, b] = e[a, a]
    m[b, a] = -e[b, b]
    return m


def generator(cfg: SpacetimeConfig, kind: str, i: int = 0, j: int = 0) -> np.ndarray:
    """Defining-representation generator matrix.

    kind: "rotation" (planes i-j, 1 <= i < j <= n), "boost" (plane i-0,
    1 <= i <= n), "iwasawa_a", or "iwasawa_n" (index i in 1..n-1).
    """
    n = cfg.n
    if kind == "rotation":
        if not (1 <= i < j <= n):
            raise ValueError(f"rotation indices need 1 <= i < j <= n, got ({i},{j})")
        return _M(n, i, j)
    if kind == "boost":
        if not (1 <= i <= n):
            raise ValueError(f"boost index needs 1 <= i <= n, got {i}")
        return _M(n, i, 0)
    if kind == "iwasawa_a":
        return _M(n, 0, n)
    if kind == "iwasawa_n":
        if not (1 <= i <= n - 1):
            raise ValueError(f"horospheric index needs 1 <= i <= n-1, got {i}")
        return _M(n, i, 0) + _M(n, i, n)
    raise ValueError(f"unknown generator kind {kind!r}")


def basis_labels(n: int) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, labeling the full so(1,n) basis M_ab."""
    return [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix commutator AB - BA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("commutator needs matrices of matching shape")
    return A @ B - B @ A


def structure_constant_bracket(n: int, ab, uv) -> np.ndarray:
    """Bracket [M_ab, M_uv] assembled from the structure constants.

    In the real convention the relations read
    [M_ab, M_uv] = eta_av M_bu + eta_bu M_av - eta_au M_bv - eta_bv M_au,
    with M_xy extended antisymmetrically (M_yx = -M_xy, M_xx = 0).
    """
    a, b = ab
    u, v = uv
    e = eta(n)

    def M(x, y):
        if x == y:
            return np.zeros((n + 1, n + 1))
        return _M(n, x, y)

    return (e[a, v] * M(b, u) + e[b, u] * M(a, v)
            - e[a, u] * M(b, v) - e[b, v] * M(a, u))


def structure_residual(cfg: SpacetimeConfig) -> float:
    """Max norm of [M_ab, M_uv] minus its structure-constant expansion."""
    n = cfg.n
    labels = basis_labels(n)
    worst = 0.0
    for ab in labels:
        A = _M(n, *ab)
        for uv in labels:
            B = _M(n, *uv)
            diff = commutator(A, B) - structure_constant_bracket(n, ab, uv)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def iwasawa_ad_residual(cfg: SpacetimeConfig) -> float:
    """Max norm of [a, n_i] - n_i over the horospheric generators."""
    a = generator(cfg, "iwasawa_a")
    worst = 0.0
    for i in range(1, cfg.n):
        ni = generator(cfg, "iwasawa_n", i)
        worst = max(worst, float(np.max(np.abs(commutator(a, ni) - ni))))
    return worst


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


def regular_rep_pullback(cfg: SpacetimeConfig, g: np.ndarray, f, x):
    """Scalar regular representation: (Pi(g) f)(x) = f(x.g)."""
    return f(act(cfg, g, x))


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


def contract_scale(basis: dict[str, np.ndarray], R: float) -> dict[str, np.ndarray]:
    """Rescale an Iwasawa-labeled basis: b' = b, a' = a/R, n'_i = n_i/R."""
    if R <= 0:
        raise ValueError("R must be positive")
    out = {}
    for name, m in basis.items():
        if name == "a" or name.startswith("n"):
            out[name] = m / R
        else:
            out[name] = np.asarray(m, dtype=float)
    return out


def _scaled_ds_basis(cfg: SpacetimeConfig, R: float) -> list[np.ndarray]:
    """Ordered contracted basis: so(1,n-1) block (J_ij, then K_i), then a'
    and the n'_i."""
    n = cfg.n
    mats: list[np.ndarray] = []
    for i in range(1, n):
        for j in range(i + 1, n):
            mats.append(_M(n, i, j))
    for i in range(1, n):
        mats.append(_M(n, i, 0))
    mats.append(generator(cfg, "iwasawa_a") / R)
    for i in range(1, n):
        mats.append(generator(cfg, "iwasawa_n", i) / R)
    return mats


def _poincare_basis(n: int) -> list[np.ndarray]:
    """Affine (n+1)x(n+1) realization of so(1,n-1) (+) R^n, matching order.

    Lorentz block acts on row vectors (y_0..y_{n-1}); translations are
    T_a = -E_{n,a}, the sign calibrated so that [K_i, T_0] = T_i mirrors the
    contracted pairing of boosts with horospheric directions.
    """
    def trans(a):
        m = np.zeros((n + 1, n + 1))
        m[n, a] = -1.0
        return m

    mats: list[np.ndarray] = []
    for i in range(1, n):
        for j in range(i + 1, n):
            mats.append(_M(n, i, j))
    for i in range(1, n):
        mats.append(_M(n, i, 0))
    mats.append(trans(0))
    for i in range(1, n):
        mats.append(trans(i))
    return mats


def _structure_table(mats: list[np.ndarray], tol: float = 1e-9) -> np.ndarray:
    """Structure constants C[p, q, r] with [m_p, m_q] = sum_r C[p,q,r] m_r.

    Solved by least squares against the vectorized basis; a large residual
    means the span does not close and raises.
    """
    k = len(mats)
    dim = mats[0].size
    B = np.stack([m.reshape(dim) for m in mats], axis=1)
    C = np.empty((k, k, k))
    for p in range(k):
        for q in range(k):
            target = (mats[p] @ mats[q] - mats[q] @ mats[p]).reshape(dim)
            coef, res, *_ = np.linalg.lstsq(B, target, rcond=None)
            recon = B @ coef
            if np.max(np.abs(recon - target)) > tol * max(1.0, np.max(np.abs(target))):
                raise ValueError("commutator does not close on the basis span")
            C[p, q] = coef
    return C


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

    Indices i, j run over 1..n-1 and A = M_n0.  Raises if the combination is
    not proportional to the identity (it is, by Schur).
    """
    n = cfg.n
    acc = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        for j in range(i + 1, n):
            acc += _M(n, i, j) @ _M(n, i, j)
    for i in range(1, n):
        acc += _M(n, i, n) @ _M(n, i, n)
        acc -= _M(n, i, 0) @ _M(n, i, 0)
    A = _M(n, n, 0)
    acc -= A @ A
    c = acc[0, 0]
    if np.max(np.abs(acc - c * np.eye(n + 1))) > tol:
        raise ValueError("Casimir combination is not a multiple of the identity")
    return float(c)

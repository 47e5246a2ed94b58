"""Independent mpmath references for the benchmark's correctness checks.

Each function re-evaluates a closed form stated in the library's
documentation with mpmath special functions.  None of them calls into
dswave, so a check built on them never calls the function it checks.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

mp.mp.dps = 25


def d_abs_closed(n: int, j: int, k: int, rho: float) -> float:
    """|d(rho)| from its closed form (tanh factor on the even-n branch)."""
    r = mp.mpf(rho)
    base = ((2 * mp.pi) ** (-mp.mpf(n + 1) / 2)
            * abs(mp.gamma(mp.mpf(n - 1) / 2 + 1j * r)) / abs(mp.gamma(-1j * r)))
    if n % 2 == 0:
        factor = mp.pi * mp.sqrt(2 * (1 + mp.tanh(mp.pi * r)))
    elif (n - 1 + 2 * (j - k)) % 4 == 0:
        factor = mp.pi * (1 + mp.tanh(mp.pi * r / 2))
    else:
        factor = mp.pi * (1 + mp.coth(mp.pi * r / 2))
    return float(base * factor)


@lru_cache(maxsize=None)
def _norm_K(alpha: int, n: int, l: int, rho: float):
    r = mp.mpf(rho)
    cosf = mp.cos((n - 1) * mp.pi / 2)
    g_lo = abs(mp.gamma((1j * r + l + mp.mpf(n - 1) / 2) / 2)) ** 2
    g_hi = abs(mp.gamma((1j * r + l + mp.mpf(n + 1) / 2) / 2)) ** 2
    sign = (-1) ** l
    if alpha == 1:
        return mp.pi * (mp.cosh(mp.pi * r) - sign * cosf) * g_lo / (
            mp.sinh(mp.pi * r) * g_hi)
    return mp.pi * (mp.cosh(mp.pi * r) + sign * cosf) * g_hi / (
        mp.sinh(mp.pi * r) * g_lo)


@lru_cache(maxsize=None)
def radial_profile_ref(n: int, alpha: int, l: int, rho: float,
                       beta: float) -> complex:
    """V(beta) = [2 tanh b] 2F1(a, b; c; tanh^2 b) cosh^{-(n-1)/2 + i rho} / sqrt(K)."""
    r = mp.mpf(rho)
    b = mp.mpf(beta)
    ir = -1j * r
    if alpha == 2:
        a, bb, c = (ir + l + mp.mpf(n - 1) / 2) / 2, (ir - l - mp.mpf(n - 3) / 2) / 2, mp.mpf(1) / 2
        pre = 1
    else:
        a, bb, c = (ir + l + mp.mpf(n + 1) / 2) / 2, (ir - l - mp.mpf(n - 5) / 2) / 2, mp.mpf(3) / 2
        pre = 2 * mp.tanh(b)
    f = mp.hyp2f1(a, bb, c, mp.tanh(b) ** 2)
    env = mp.cosh(b) ** (-mp.mpf(n - 1) / 2 + 1j * r)
    return complex(pre * f * env / mp.sqrt(_norm_K(alpha, n, l, rho)))


@lru_cache(maxsize=None)
def _block_norm(lam: float, k: int):
    # 1/sqrt of the quadrature of C^(lam)_k(cos t)^2 sin(t)^(2 lam) on [0, pi]
    val = mp.quad(lambda t: mp.gegenbauer(k, lam, mp.cos(t)) ** 2
                  * mp.sin(t) ** (2 * lam), [0, mp.pi / 2, mp.pi])
    return 1 / mp.sqrt(val)


def harmonic_ref(n: int, m: int, ls: tuple, phis, phi: float) -> complex:
    """Orthonormal hyperspherical harmonic from Gegenbauer blocks.

    Block normalizations come from numerical quadrature, not from the
    Gamma-function closed form the library uses.
    """
    out = mp.exp(1j * m * mp.mpf(phi)) / mp.sqrt(2 * mp.pi)
    chain = (abs(m),) + tuple(ls)
    for q in range(1, n - 1):
        d = n - q
        L, l = chain[d - 1], chain[d - 2]
        lam = l + mp.mpf(d - 1) / 2
        t = mp.mpf(phis[q - 1])
        out *= (_block_norm(lam, L - l) * mp.sin(t) ** l
                * mp.gegenbauer(L - l, lam, mp.cos(t)))
    return complex(out)

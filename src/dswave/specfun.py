"""Special-function kernel: complex log-Gamma, Gauss 2F1, Legendre/Gegenbauer
functions, hyperspherical harmonics, Bessel J, the normalization
constants of the hyperbolic plane waves and of the cone intertwiner, the
incomplete Gamma functions, and the Gauss rules of every quadrature.

Every Gamma product goes through ln_gamma, one broadcast Lanczos
evaluation with a masked reflection step, and the Gamma helpers built on
it broadcast: connection_gammas over parameter sets, norm_K over the top
label and rho, d_abs and gamma_upper over their arguments, each with one
ln_gamma call.

2F1 lives in one kernel: gauss_2f1_array (gauss_2f1 is its one-point call)
sums the one power series, _series_2f1_array, below a switch point v* and
evaluates the 1-v connection formula above it, with the Gamma ratios of
connection_gammas; gauss_2f1_regularized runs the same series.  The
kernel broadcasts over parameters: P sets (a, b, c) against V points,
summed in blocks of 16 terms, each block one (P x 16) @ (16 x V) complex
product of coefficients (a cumprod of the term ratio) and powers of v.
The same block adds sum |c_k v^k|, so each element knows the digits it
lost to cancellation: a direct-series element over the 8-digit budget is
recomputed by the connection formula, and a connection value over it
raises AccuracyError (DLMF 15.2, 15.8).  The principal-series parameters
always have non-integer c-a-b, which keeps the connection formula
non-degenerate.

Every Gauss rule is gauss_rule, the symmetric Gauss-Jacobi rule for
(1 - x^2)^a by Newton on the Gegenbauer recurrence of gegenbauer_C (DLMF
18.9.1, 3.5(v)), or gauss_panels, its Legendre rule on each of a row of
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, PoleError, UnsupportedCaseError

__all__ = [
    "HarmonicIndex",
    "ln_gamma",
    "gamma_upper",
    "gamma_lower_scaled",
    "gauss_2f1",
    "gauss_2f1_array",
    "gauss_2f1_regularized",
    "connection_gammas",
    "assoc_legendre_P",
    "gegenbauer_C",
    "gauss_rule",
    "gauss_panels",
    "hypersph_Y",
    "harmonic_indices",
    "sphere_laplacian_eigenvalue",
    "bessel_j",
    "norm_K",
    "d_abs",
]


# Lanczos coefficients, g = 607/128, 15 terms (double-precision standard set)
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(z):
    """Principal-branch log Gamma via the Lanczos approximation, broadcast over z.

    Within 1e-15 max(1, |z log z|) of mpmath.loggamma over Re z in [-20, 20] and
    |Im z| <= 2000, 0.05 or more from the poles; a pole in z raises PoleError.
    """
    z = np.asarray(z, dtype=complex)
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(pole):
        raise PoleError(f"log Gamma pole at z = {z[pole][0]}")
    refl = z.real < 0.5
    zm = np.where(refl, 1.0 - z, z) - 1.0
    # c_k / (zm + k) for all k by Smith's division, as Python's complex type divides
    k = np.arange(1, len(_LANCZOS)).reshape((-1,) + (1,) * zm.ndim)
    x, y, c = zm.real + k, zm.imag, np.take(_LANCZOS, k)
    p = np.where(x >= np.abs(y), x, y)
    xp, yp = x / p, y / p
    den = x * xp + y * yp
    re, im = _LANCZOS[0], 0.0
    for r, i in zip(c * xp / den, c * yp / den):  # summed in order of k
        re, im = re + r, im - i
    t = zm + _LANCZOS_G + 0.5
    out = np.asarray(_LOG_SQRT_2PI + (zm + 0.5) * np.log(t) - t + np.log(re + 1j * im))
    if np.any(refl):
        # log sin(pi z) = log(1 - e^{2u}) - u + sgn i pi/2 - log 2 with u = sgn i pi z;
        # sgn = +-1 as Im z >= 0 or < 0 keeps the log off its cut: the principal branch
        zr = z[refl]
        sgn = np.where(zr.imag >= 0.0, 1.0, -1.0)
        u = sgn * (1j * math.pi * zr)
        log_sin = (np.log(-np.expm1(2.0 * u)) - u
                   + (sgn * (0.5j * math.pi) - math.log(2.0)))
        out[refl] = (math.log(math.pi) - log_sin) - out[refl]
    return out[()]


# gamma_upper: |z| below which the Kummer series runs, the step cap of
# either method, and the relative size of the last step at convergence
# (one rounding unit)
_GAMMA_SERIES_RADIUS = 1.0
_GAMMA_MAX_STEPS = 1000
_GAMMA_TOL = 2.3e-16


def gamma_upper(s, z) -> np.ndarray:
    """Upper incomplete Gamma function Gamma(s, z), broadcast over s and z.

    z must lie off the branch cut (-inf, 0] of z^s; on it the call raises
    UnsupportedCaseError.  Each element takes one of two methods:

    * |z| < 1: Gamma(s) - z^s e^{-z} sum_k z^k / (s)_{k+1}, the Kummer form
      of gamma(s, z) (DLMF 8.7.1, gamma_lower_scaled), with Gamma(s) from
      ln_gamma; a non-positive integer s raises PoleError.  The
      subtraction loses at most about two digits there, more at larger |z|;
    * otherwise the continued fraction of DLMF 8.9.2 (even part),
      evaluated by the modified Lentz method.  Its step count grows as |z|
      shrinks: up to about 90 at |z| = 1 and 10 at |z| = 80.

    Either raises AccuracyError when it has not converged in
    _GAMMA_MAX_STEPS steps.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(z, dtype=complex))
    if np.any((z.imag == 0.0) & (z.real <= 0.0)):
        raise UnsupportedCaseError(
            "Gamma(s, z) needs z off the branch cut (-inf, 0]")
    out = np.empty(s.shape, dtype=complex)
    near = np.abs(z) < _GAMMA_SERIES_RADIUS
    if np.any(near):
        sn, zn = s[near], z[near]
        out[near] = np.exp(ln_gamma(sn)) - zn ** sn * gamma_lower_scaled(sn, zn)
    if not np.all(near):
        out[~near] = _gamma_upper_fraction(s[~near], z[~near])
    return out[()]


def gamma_lower_scaled(s, z) -> np.ndarray:
    """z^{-s} gamma(s, z) = e^{-z} sum_k z^k / (s)_{k+1}, broadcast over s and z.

    The Kummer form of the lower incomplete Gamma function (DLMF 8.7.1),
    entire in z.  e^{-z} rides in the first term, so nothing overflows for
    real z up to 700, and for real z > 0 and Re s > 0 the terms do not
    alternate, so nothing cancels.
    s must not be a non-positive integer.  Raises AccuracyError when the
    sum has not converged in _GAMMA_MAX_STEPS terms.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(z, dtype=complex))
    term = np.exp(-z) / s
    acc = term
    for k in range(1, _GAMMA_MAX_STEPS):
        term = term * z / (s + k)
        acc = acc + term
        # past k > |z| - Re s every later term shrinks by a ratio below 1
        if np.all((np.abs(term) <= _GAMMA_TOL * np.abs(acc))
                  & (k + s.real > np.abs(z))):
            return acc[()]
    raise AccuracyError(f"Kummer sum of gamma(s, z) did not converge in "
                        f"{_GAMMA_MAX_STEPS} terms")


def _gamma_upper_fraction(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    tiny = 1e-300
    out = np.empty(s.shape, dtype=complex)
    live, sl = np.arange(s.size), s
    b = z + 1.0 - s
    c = np.full(s.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_STEPS):
        an = -i * (i - sl)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        # a converged element leaves the iteration, so its value does not
        # depend on the other elements of the call
        fin = np.abs(delta - 1.0) <= _GAMMA_TOL
        if np.any(fin):
            out[live[fin]] = h[fin]
            keep = ~fin
            live, sl, b, c, d, h = (live[keep], sl[keep], b[keep], c[keep],
                                    d[keep], h[keep])
            if live.size == 0:
                return np.exp(s * np.log(z) - z) * out
    raise AccuracyError(f"Gamma(s, z) continued fraction did not converge "
                        f"in {_GAMMA_MAX_STEPS} steps")


def _is_nonpositive_int(z, tol: float = 1e-12):
    return ((np.abs(z.imag) < tol) & (z.real < 0.5)
            & (np.abs(z.real - np.round(z.real)) < tol))


# terms per block of the 2F1 series: one (P x 16) @ (16 x V) product adds a
# block to every (parameter set, point) sum
_SERIES_BLOCK = 16
# relative size of the last term at which a series stops, and its term cap
_SERIES_TOL = 1e-15
_MAX_TERMS = 40000
# argument v* above which 2F1 takes the 1-v connection formula
_CONNECTION_SWITCH = 0.5
# most decimal digits an element may lose to cancellation: a direct-series
# element over it is recomputed by the connection formula, and a connection
# element over it raises AccuracyError
_DIGIT_BUDGET = 8.0


def _series_2f1_array(a, b, c, v: np.ndarray):
    """sum_k (a)_k (b)_k / ((c)_k k!) v^k for P parameter sets (a, b, c
    broadcast to shape (P,)) against V points v >= 0.

    Returns (sum, mass), each (P, V), with mass = sum_k |c_k v^k|: its
    ratio to |sum| is the cancellation the sum suffered.  Each block takes
    the coefficients c_k from a cumprod of the term ratio and the powers
    v^k as columns, so the block is one complex and one real matrix
    product.  A set leaves the loop once the last term of every point is
    within _SERIES_TOL of its sum (checked at block ends), so its values
    do not depend on the other sets of the call.  A set whose coefficients
    overflow (|c_k| above the float range, as at rho of about 800 on the
    principal series) leaves the loop at that block: its points not yet
    summed get infinite mass, over any digit budget.
    """
    a, b, c = (np.ravel(x).astype(complex) for x in np.broadcast_arrays(a, b, c))
    v = np.asarray(v, dtype=float)
    acc = np.ones((a.size, v.size), dtype=complex)
    mass = np.ones((a.size, v.size))
    live = np.arange(a.size)
    coef = np.ones(a.size, dtype=complex)       # c_k at the block start
    done = np.zeros((a.size, v.size), dtype=bool)  # points whose sum is final
    vk = np.ones(v.size)                        # v^k at the block start
    steps = np.arange(_SERIES_BLOCK)
    vpow = v[None, :] ** (steps[:, None] + 1.0)  # v^1 .. v^16
    for k0 in range(0, _MAX_TERMS, _SERIES_BLOCK):
        k = k0 + steps
        ratio = ((a[live, None] + k) * (b[live, None] + k)
                 / ((c[live, None] + k) * (k + 1.0)))
        pw = vk * vpow
        with np.errstate(over="ignore", invalid="ignore"):
            cs = coef[:, None] * np.cumprod(ratio, axis=1)
            add, add_mass = cs @ pw, np.abs(cs) @ pw
        ok = np.all(np.isfinite(add_mass), axis=1)
        if not np.all(ok):
            blown = live[~ok]
            mass[blown] = np.where(done[~ok], mass[blown], np.inf)
            live, done, cs, add, add_mass = (live[ok], done[ok], cs[ok],
                                             add[ok], add_mass[ok])
        acc[live] += add
        mass[live] += add_mass
        coef, vk = cs[:, -1], pw[-1]
        done = (np.abs(coef)[:, None] * vk
                <= _SERIES_TOL * np.maximum(np.abs(acc[live]), 1e-300))
        fin = np.all(done, axis=1)
        if np.all(fin):
            return acc, mass
        live, coef, done = live[~fin], coef[~fin], done[~fin]
    raise AccuracyError(f"2F1 series did not converge in {_MAX_TERMS} terms")


def _digits_lost(mass, value):
    with np.errstate(divide="ignore"):
        return np.maximum(np.log10(mass / np.abs(value)), 0.0)


def connection_gammas(a, b, c):
    """Gamma ratios (G1, G2) of the 1-v connection formula (A&S 15.3.6):
    2F1(a,b;c;v) = G1 F(a,b;a+b-c+1;1-v) + G2 (1-v)^{c-a-b} F(c-a,c-b;c-a-b+1;1-v).
    Broadcast over a, b and c.
    """
    s = c - a - b
    g = ln_gamma(np.broadcast_arrays(c, s, c - a, c - b, -s, a, b))
    return np.exp(g[0] + g[1] - g[2] - g[3]), np.exp(g[0] + g[4] - g[5] - g[6])


def _connection_2f1(a, b, c, w):
    """2F1 by the 1-v connection formula for parameter sets (P,) against
    points w = 1 - v (V,): values and digits lost, each (P, V).  The loss
    counts both series and the cancellation between the two terms."""
    s = c - a - b
    if np.any((np.abs(s - np.round(s.real)) < 1e-10) & (np.abs(s.imag) < 1e-10)):
        raise UnsupportedCaseError(
            f"connection formula degenerate: c-a-b = {s} has an integer entry")
    f1, m1 = _series_2f1_array(a, b, a + b + 1.0 - c, w)
    f2, m2 = _series_2f1_array(c - a, c - b, 1.0 + s, w)
    g1, g2 = connection_gammas(a, b, c)
    e1, e2 = g1[:, None], g2[:, None] * np.exp(s[:, None] * np.log(w))
    out = e1 * f1 + e2 * f2
    return out, _digits_lost(np.abs(e1) * m1 + np.abs(e2) * m2, out)


def gauss_2f1(a: complex, b: complex, c: complex, v: float) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; v) at one v in [0, 1): a one-point
    call of gauss_2f1_array, which owns the evaluation and its errors."""
    return complex(gauss_2f1_array(a, b, c, np.array([v], dtype=float))[0])


def gauss_2f1_array(a, b, c, v) -> np.ndarray:
    """Gauss hypergeometric 2F1(a, b; c; v) over an array of v in [0, 1).

    a, b and c are scalars or broadcast to P parameter sets; the result has
    shape (P,) + v.shape (v.shape for scalar parameters).  Direct series
    for v <= v* = 0.5; for v > v* the two-term connection formula in 1-v, which
    needs c-a-b not an integer (always true on the principal series, where
    c-a-b = +-i rho).  Non-positive integer c in any set raises PoleError.

    Each element carries its digits lost, log10(sum |term| / |value|).  A
    direct-series element that loses more than 8 digits (large |a b| v,
    e.g. rho above about 30 on the principal series), or whose series
    overflows, is recomputed by the connection formula; an element whose
    connection value loses more than 8 digits raises AccuracyError.
    """
    return _gauss_2f1(a, b, c, v)[0]


def _gauss_2f1(a, b, c, v, one_minus_v=None):
    """gauss_2f1_array and its digits lost per element.

    one_minus_v may supply 1 - v to full precision (needed when v is so
    close to 1 that the subtraction underflows, e.g. tanh^2 of a large
    argument paired with sech^2); the connection branch then runs on it.
    """
    shape = np.broadcast(a, b, c).shape
    a, b, c = (np.ravel(x).astype(complex) for x in np.broadcast_arrays(a, b, c))
    v = np.asarray(v, dtype=float)
    w_all = 1.0 - v if one_minus_v is None else np.asarray(one_minus_v, dtype=float)
    if not np.all((v >= 0.0) & (w_all > 0.0)):
        raise ValueError("arguments must lie in [0, 1)")
    pole = _is_nonpositive_int(c)
    if np.any(pole):
        raise PoleError(f"2F1 parameter c = {c[pole][0]} is a non-positive integer")
    vshape = v.shape
    v, w_all = v.ravel(), np.ravel(w_all)
    out = np.empty((a.size, v.size), dtype=complex)
    lost = np.empty(out.shape)
    lo = v <= _CONNECTION_SWITCH
    if np.any(lo):
        f, mass = _series_2f1_array(a, b, c, v[lo])
        out[:, lo], lost[:, lo] = f, _digits_lost(mass, f)
    if np.any(~lo):
        out[:, ~lo], lost[:, ~lo] = _connection_2f1(a, b, c, w_all[~lo])
    # direct-series elements over the budget, a non-finite loss included,
    # take the connection formula in one call over their sets and points
    over = lo & ~(lost <= _DIGIT_BUDGET)
    if np.any(over):
        sub = np.ix_(np.any(over, axis=1), np.any(over, axis=0))
        rows = sub[0][:, 0]
        f, loss = _connection_2f1(a[rows], b[rows], c[rows], w_all[sub[1][0]])
        out[sub] = np.where(over[sub], f, out[sub])
        lost[sub] = np.where(over[sub], loss, lost[sub])
    if not np.all(lost <= _DIGIT_BUDGET):
        p, j = np.unravel_index(np.argmax(np.nan_to_num(lost, nan=np.inf)),
                                lost.shape)
        raise AccuracyError(
            f"2F1({a[p]:.6g}, {b[p]:.6g}; {c[p]:.6g}; {v[j]:.6g}) loses "
            f"{lost[p, j]:.1f} digits to cancellation on the connection branch "
            f"(budget {_DIGIT_BUDGET:g})")
    return out.reshape(shape + vshape), lost.reshape(shape + vshape)


def gauss_2f1_regularized(a: complex, b: complex, c: complex, v: float) -> complex:
    """Regularized series 2F1(a,b;c;v)/Gamma(c), entire in c.

    Direct series only, so integer c-a-b is allowed; at c = 1 - m it is
    (a)_m (b)_m / m! v^m 2F1(a+m, b+m; m+1; v) (DLMF 15.2.3_5).  Converges
    for |v| < 1; slowly near v = 1.
    """
    if not (0.0 <= v < 1.0):
        raise ValueError(f"argument must lie in [0, 1), got {v}")
    vs = np.array([v], dtype=float)
    c = complex(c)
    if not _is_nonpositive_int(c):
        return complex(_series_2f1_array(a, b, c, vs)[0][0, 0] * np.exp(-ln_gamma(c)))
    m = int(round(1 - c.real))
    lead = 1.0 + 0.0j
    for p in range(m):  # (a)_m (b)_m / m!
        lead *= (a + p) * (b + p) / (p + 1)
    return complex(lead * v ** m
                   * _series_2f1_array(a + m, b + m, m + 1.0, vs)[0][0, 0])


def assoc_legendre_P(degree: float, order: float, u: float) -> float:
    """Ferrers associated Legendre function P^order_degree(u) on (-1, 1).

    Uses the hypergeometric representation
    P^mu_nu(u) = ((1+u)/(1-u))^{mu/2} * 2F1(-nu, nu+1; 1-mu; (1-u)/2)/Gamma(1-mu)
    with the regularized series, so integer orders are included.
    """
    if not (-1.0 < u < 1.0):
        raise ValueError(f"argument must lie in (-1, 1), got {u}")
    pref = ((1.0 + u) / (1.0 - u)) ** (order / 2.0)
    val = gauss_2f1_regularized(-degree, degree + 1.0, 1.0 - order,
                                (1.0 - u) / 2.0)
    return float((pref * val).real)


def gegenbauer_C(lam: float, k: int, x):
    """Gegenbauer polynomial C^(lam)_k(x) by the three-term recurrence."""
    if k < 0:
        raise ValueError("polynomial degree must be non-negative")
    return _gegenbauer_pair(lam, k, x)[0]


def _gegenbauer_pair(lam: float, k: int, x):
    """(C^(lam)_k(x), C^(lam)_{k-1}(x)) by the three-term recurrence
    (DLMF 18.9.1), started from C_{-1} = 0 and C_0 = 1."""
    x = np.asarray(x, dtype=float)
    c, c_prev = np.ones_like(x), np.zeros_like(x)
    for m in range(k):
        c, c_prev = (2.0 * (m + lam) * x * c - (m + 2.0 * lam - 1.0) * c_prev) / (m + 1.0), c
    return c, c_prev


# recurrence passes gauss_rule may take, and the largest Newton step after
# which the nodes count as converged: the steps shrink quadratically
_GAUSS_MAX_STEPS = 20
_GAUSS_STEP_TOL = 1e-13


def gauss_rule(n: int, a: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x^2)^a on [-1, 1], a >= 0
    (Gauss-Legendre at a = 0): ascending nodes and their weights.

    The nodes, the zeros of C^(lam)_n with lam = a + 1/2, come from Newton
    on the recurrence, started at cos(pi (k - (1 - lam)/2) / (n + lam))
    (exact at lam = 0 and 1), for x >= 0 only and mirrored.  The weights
    are proportional to (1 - x^2) / ((1 - x^2) C_n')^2 and sum to
    sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2).  For n <= 128 and a <= 2 the
    nodes are exact to rounding and the weights to 3e-13 relative (against
    mpmath).  n < 1 or a < 0 raises ValueError; AccuracyError where Newton
    misses the ceil(n/2) distinct zeros in [0, 1), as at a = 4.5, n >= 17.
    """
    if n < 1 or a < 0:
        raise ValueError(f"a Gauss rule needs n >= 1 and a >= 0, got n={n}, a={a}")
    lam, odd = a + 0.5, n % 2
    # descending nodes x >= 0; the middle node of an odd rule is 0
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.5 * (1.0 - lam)) / (n + lam))
    if odd:
        x[-1] = 0.0
    step = np.inf
    for _ in range(_GAUSS_MAX_STEPS):
        c, c_prev = _gegenbauer_pair(lam, n, x)
        slope = (n + 2.0 * lam - 1.0) * c_prev - n * x * c  # (1 - x^2) C_n'
        if np.abs(step).max() <= _GAUSS_STEP_TOL:
            break  # slope is that of the converged nodes
        step = c * ((1.0 - x) * (1.0 + x)) / slope
        x = x - step
    else:
        raise AccuracyError(f"Gauss rule n={n}, a={a}: Newton did not "
                            f"converge in {_GAUSS_MAX_STEPS} passes")
    if not (x[0] < 1.0 and np.all(np.diff(x) < 0.0) and x[-1] >= 0.0):
        raise AccuracyError(f"Gauss rule n={n}, a={a}: Newton did not find "
                            f"{x.size} distinct zeros in [0, 1)")
    w = (1.0 - x) * (1.0 + x) / (slope * slope)
    w *= (math.sqrt(math.pi) * math.exp(math.lgamma(a + 1.0) - math.lgamma(a + 1.5))
          / (2.0 * w.sum() - odd * w[-1]))
    return (np.concatenate((-x, x[-1 - odd::-1])),
            np.concatenate((w, w[-1 - odd::-1])))


def gauss_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on each interval (lo, hi) between
    consecutive edges: nodes and weights, interval after interval."""
    x, w = gauss_rule(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class HarmonicIndex:
    """Mode labels (m, l_1 <= ... <= l_{n-2}) of a harmonic on S^{n-1}."""

    n: int
    m: int
    ls: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere S^{n-1} needs n >= 2")
        if len(self.ls) != self.n - 2:
            raise ValueError(f"expected {self.n - 2} chain labels, got {len(self.ls)}")
        chain = (abs(self.m),) + self.ls
        for lo, hi in zip(chain[:-1], chain[1:]):
            if lo > hi:
                raise ValueError(f"index chain must be non-decreasing, got {chain}")
        if any(l < 0 for l in self.ls):
            raise ValueError("chain labels must be non-negative")

    @property
    def top(self) -> int:
        """Highest label (total angular momentum); |m| when n = 2."""
        return self.ls[-1] if self.ls else abs(self.m)


def _block_norm(lam: float, kappa: int) -> float:
    # 1 / sqrt of  integral_0^pi [C^(lam)_kappa(cos t)]^2 (sin t)^{2 lam} dt
    ln_h = (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0)
            + math.lgamma(kappa + 2.0 * lam)
            - math.log(kappa + lam) - math.lgamma(kappa + 1.0)
            - 2.0 * math.lgamma(lam))
    return math.exp(-0.5 * ln_h)


def hypersph_Y(idx: HarmonicIndex, phis, phi) -> complex:
    """Orthonormal hyperspherical harmonic on S^{n-1}.

    Built recursively from Gegenbauer blocks; the q-th polar angle carries
    (sin)^l C^(l + (d-1)/2)_{L-l}(cos) with unit L2 norm, and the azimuth
    carries e^{i m phi}/sqrt(2 pi).  Eigenvalue of the sphere Laplacian is
    -top*(top + n - 2).

    Angles broadcast: phis is a sequence of n-2 arrays (or scalars), phi an
    array (or scalar).
    """
    n = idx.n
    phis = [np.asarray(p, dtype=float) for p in phis]
    if len(phis) != n - 2:
        raise ValueError(f"expected {n - 2} polar angles, got {len(phis)}")
    phi = np.asarray(phi, dtype=float)
    out = np.exp(1j * idx.m * phi) / math.sqrt(2.0 * math.pi)
    chain = (abs(idx.m),) + idx.ls  # (l_0 = |m|, l_1, ..., l_{n-2})
    # angle phis[q-1] lives on the sphere S^{d} with d = n - q, pairing
    # (L, l) = (chain[d-1], chain[d-2])
    for q in range(1, n - 1):
        d = n - q
        L = chain[d - 1]
        l = chain[d - 2]
        lam = l + 0.5 * (d - 1)
        theta = phis[q - 1]
        block = (_block_norm(lam, L - l) * np.sin(theta) ** l
                 * gegenbauer_C(lam, L - l, np.cos(theta)))
        out = out * block
    return out


def harmonic_indices(n: int, l_max: int, m_max: int | None = None) -> list[HarmonicIndex]:
    """All index chains with top label <= l_max (and |m| <= m_max if given)."""
    cap = l_max if m_max is None else min(l_max, m_max)
    out: list[HarmonicIndex] = []

    def chains(prefix: tuple[int, ...], remaining: int):
        if remaining == 0:
            mm = min(prefix[0], cap) if prefix else cap
            for m in range(-mm, mm + 1):
                out.append(HarmonicIndex(n, m, prefix))
            return
        hi = prefix[0] if prefix else l_max
        for l in range(0, hi + 1):
            chains((l,) + prefix, remaining - 1)

    chains((), n - 2)
    return out


def sphere_laplacian_eigenvalue(idx: HarmonicIndex) -> float:
    """Eigenvalue -top(top + n - 2) of the S^{n-1} Laplacian on the mode."""
    return -float(idx.top * (idx.top + idx.n - 2))


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), nu >= -1/2, x >= 0.

    The orders +-1/2 are elementary (DLMF 10.16.1):
    J_{1/2}(x) = sqrt(2/(pi x)) sin x and J_{-1/2}(x) = sqrt(2/(pi x)) cos x,
    with the limits 0 and inf at x = 0.  Every other order is scipy's jv.
    """
    if nu < -0.5:
        raise ValueError(f"order must be >= -1/2, got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("argument must be non-negative")
    if abs(nu) != 0.5:
        from scipy.special import jv

        return jv(nu, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        env = np.sqrt(2.0 / (math.pi * x))
        if nu < 0:
            return env * np.cos(x)
        # env * sin x is inf * 0 at the origin, where J_{1/2} vanishes
        return np.where(x == 0.0, 0.0, env * np.sin(x))[()]


def norm_K(alpha: int, n: int, l, rho):
    """Normalization constants of the hyperbolic waves, broadcast over l and rho.

    alpha = 1 is the odd family, alpha = 2 the even one.  Both expressions
    carry sinh(pi rho) in the denominator, so rho = 0 is a pole.  Built
    in log space, so large rho neither overflows nor underflows.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise PoleError("normalization constants need rho > 0")
    # ln |Gamma(lo)|^2 / |Gamma(hi)|^2 with lo, hi = (i rho + l + (n -+ 1)/2) / 2
    lo, hi = ln_gamma([0.5 * (1j * rho + l + 0.5 * (n - 1)),
                       0.5 * (1j * rho + l + 0.5 * (n + 1))]).real
    ln_ratio = 2.0 * (lo - hi)
    # (cosh x + c) / sinh x = ((1 - e)^2 + 2 (1 + c) e) / ((1 - e)(1 + e)) at
    # x = pi rho, e = e^{-x}: no overflow, and no cancellation at small rho
    c = (-1.0) ** l * math.cos((n - 1) * math.pi / 2.0)
    if alpha == 1:
        c, ln_ratio = -c, -ln_ratio
    e = np.exp(-math.pi * rho)
    d = -np.expm1(-math.pi * rho)
    return math.pi * (d * d + 2.0 * (1.0 + c) * e) / (d * (1.0 + e)) * np.exp(-ln_ratio)


def d_abs(n: int, j: int, k: int, rho):
    """Modulus of the cone-intertwiner constant d(rho), broadcast over rho.

    |d| = (2 pi)^{-(n+1)/2} |Gamma((n-1)/2 + i rho)| / |Gamma(-i rho)| times
    a parity factor: pi sqrt(2 (1 + tanh(pi rho))) for even n, and
    pi (1 + tanh(pi rho / 2)) or pi (1 + coth(pi rho / 2)) for odd n
    according to whether n - 1 + 2(j - k) is a multiple of 4.  The Gamma
    moduli enter as a log ratio: each alone underflows at large rho.

    The even-n factor carries tanh (the value the intertwiner integrals
    actually produce); see the accompanying oracle in the limits module.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise PoleError("d(rho) needs rho > 0")
    num, den = ln_gamma([0.5 * (n - 1) + 1j * rho, -1j * rho]).real
    base = (2.0 * math.pi) ** (-0.5 * (n + 1)) * np.exp(num - den)
    if n % 2 == 0:
        factor = math.pi * np.sqrt(2.0 * (1.0 + np.tanh(math.pi * rho)))
    elif (n - 1 + 2 * (j - k)) % 4 == 0:
        factor = math.pi * (1.0 + np.tanh(math.pi * rho / 2.0))
    else:
        factor = math.pi * (1.0 + 1.0 / np.tanh(math.pi * rho / 2.0))
    return base * factor

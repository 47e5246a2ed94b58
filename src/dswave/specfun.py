"""Special-function kernel: complex log-Gamma, Gauss 2F1, Gegenbauer
polynomials, hyperspherical harmonics, Bessel J, the normalization
constants of the hyperbolic plane waves and of the cone intertwiner, the
incomplete Gamma functions, and the Gauss rules of every quadrature.

Every Gamma product goes through ln_gamma, one broadcast Lanczos
evaluation with a masked reflection step, and the Gamma helpers built on
it broadcast: connection_gammas over parameter sets, norm_K over the top
label and rho, d_abs and gamma_upper over their arguments, each with one
ln_gamma call.

2F1 has one entry point, gauss_2f1_array, which returns (values,
digits_lost).  It sums the one power series, _series_2f1_array, below a
switch point v* and evaluates the 1-v connection formula above it, with
the Gamma ratios of connection_gammas.  A principal-series parameter set
is a conjugate pair (real c, c - a = conj(b), c - b = conj(a)): its
second connection series is the conjugate of its first, so it runs one.
The kernel broadcasts over parameters: P sets (a, b, c) against V
points, summed in blocks of 16 terms, each block one (P x 16) @ (16 x V)
complex product of coefficients (a cumprod of the term ratio) and powers
of v.  Each element stops on its own last term, and the products shrink
to the sets and points still summing.  The same block adds sum |c_k
v^k|, so each element knows the digits it lost to cancellation: a
direct-series element over the 8-digit budget is recomputed by the
connection formula, and a connection value over it raises AccuracyError
(DLMF 15.2, 15.8).  The principal-series parameters always have
non-integer c-a-b, which keeps the connection formula non-degenerate.

The incomplete Gamma functions run no long Python loop over terms.
gamma_lower_scaled sums the Kummer series of gamma(s, z) (DLMF 8.7.1) as
one cumprod over a term axis, each element stopping on its own last
term.  gamma_upper has three routes.  On the real axis, for z in
[0.05, 40) and s in a window that holds the |d| oracle's s = i rho - m,
it splits Gamma(s, z) into Gamma(s, 40), from the continued fraction of
DLMF 8.9.2 in at most about 10 steps, plus the integral of t^{s-1} e^{-t}
over [z, 40] by one 32-point Gauss-Legendre rule in log t.  Elsewhere it
takes the Kummer form Gamma(s) - z^s gamma*(s, z) below |z| = 1, and below
|z| = 8 on the elements whose subtraction loses at most 2 digits (the
digit-budget idiom of the 2F1 kernel, with a smaller budget); every other
element takes the continued fraction, which there converges in at most
about 110 steps.  The split elements run in the same fraction loop as
the others.

Every Gauss rule is gauss_rule, the symmetric Gauss-Jacobi rule for
(1 - x^2)^a by Newton on the Gegenbauer recurrence of gegenbauer_C (DLMF
18.9.1, 3.5(v)), or gauss_panels, its Legendre rule on each of a row of
intervals.  gauss_rule builds its rule on every call; gauss_panels reads
the Legendre rule from _legendre_rule, which builds each n once per
process and returns read-only arrays, so the cache cannot change a
result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, PoleError, UnsupportedCaseError

__all__ = [
    "HarmonicIndex",
    "ln_gamma",
    "gamma_upper",
    "gamma_lower_scaled",
    "gauss_2f1_array",
    "connection_gammas",
    "gegenbauer_C",
    "gauss_rule",
    "gauss_panels",
    "hypersph_Y",
    "harmonic_indices",
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
    |Im z| <= 2000, up to 1e-3 of the poles; a pole in z raises PoleError.
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
        # sgn = +-1 as Im z >= 0 or < 0 keeps the log off its cut: the principal branch.
        # e^{2u} = e^{2 sgn i pi delta} with delta = z - round(Re z) exact, so
        # 1 - e^{2u} keeps its digits next to a pole, where the rounded pi z loses them
        zr = z[refl]
        sgn = np.where(zr.imag >= 0.0, 1.0, -1.0)
        u = sgn * (1j * math.pi * zr)
        two_u = 2.0 * (sgn * (1j * math.pi * (zr - np.rint(zr.real))))
        log_sin = (np.log(-np.expm1(two_u)) - u
                   + (sgn * (0.5j * math.pi) - math.log(2.0)))
        out[refl] = (math.log(math.pi) - log_sin) - out[refl]
    return out[()]


# gamma_upper: the Kummer form serves |z| < 1, where the continued fraction
# needs hundreds of steps or does not converge at all, and the elements with
# |z| < 8 that lose at most _GAMMA_DIGIT_BUDGET digits to its subtraction;
# the fraction serves the rest, in at most about 110 steps (at |z| = 1)
_GAMMA_SERIES_RADIUS = 1.0
_GAMMA_KUMMER_RADIUS = 8.0
_GAMMA_DIGIT_BUDGET = 2.0
# the split route: real z in [_GAMMA_SPLIT_LO, _GAMMA_SPLIT_Z1) and s in the
# window |Im s| <= _GAMMA_SPLIT_IM, _GAMMA_SPLIT_RE_MIN <= Re s <= 0 take
# Gamma(s, Z1) from the fraction (at most 10 steps at Z1 = 40) plus
# int_z^Z1 t^{s-1} e^{-t} dt by the _GAMMA_SPLIT_NODES-point Gauss-Legendre
# rule in u = log t.  Within the window the result stays within 4e-14 of
# mpmath from z = 0.05 up, and is 7e-12 off at z = 0.01 (s = 3i); outside
# it the rule loses digits: 2.5e-12 at s = -20 + i, 3.8e-12 at s = 5i and
# 4.4e-12 at s = 1 + 3i, each at z = 0.05
_GAMMA_SPLIT_LO = 0.05
_GAMMA_SPLIT_Z1 = 40.0
_GAMMA_SPLIT_NODES = 32
_GAMMA_SPLIT_IM = 3.0
_GAMMA_SPLIT_RE_MIN = -15.0
# the step cap of either method, and the relative size of the last step at
# convergence (one rounding unit)
_GAMMA_MAX_STEPS = 1000
_GAMMA_TOL = 2.3e-16


def gamma_upper(s, z) -> np.ndarray:
    """Upper incomplete Gamma function Gamma(s, z), broadcast over s and z.

    z must lie off the branch cut (-inf, 0] of z^s; on it the call raises
    UnsupportedCaseError.  Each element takes one of three routes:

    * the split, for real z in [Z_LO, Z1) = [0.05, 40) and s in the window
      |Im s| <= 3, -15 <= Re s <= 0, except a non-positive integer s below
      z = 1: Gamma(s, z) = Gamma(s, Z1) + int e^{s u - e^u} du over
      [log z, log Z1], Gamma(s, Z1) by the continued fraction below (at
      most 10 steps at Z1 = 40 over the window, against 21 at z = 8 and
      15 at z = 16) and the integral by the 32-point Gauss-Legendre rule
      of _legendre_rule, summed row by row;
    * otherwise the Kummer form Gamma(s) - z^s e^{-z} sum_k z^k / (s)_{k+1}
      of gamma(s, z) (DLMF 8.7.1, gamma_lower_scaled), with Gamma(s) from
      ln_gamma, at |z| < 1, where a non-positive integer s raises
      PoleError, and at 1 <= |z| < 8 where s is not such an integer and
      the subtraction loses at most 2 digits, log10 of
      max(|Gamma(s)|, |gamma(s, z)|) / |Gamma(s, z)|.  Below |z| = 1 every
      element keeps it: the fraction would need hundreds of steps there,
      and the loss is at most 1.3 digits at s = i rho - m, rho >= 0.3;
    * otherwise the continued fraction of DLMF 8.9.2 (even part),
      evaluated by the modified Lentz method.  Its step count grows as |z|
      shrinks: up to about 110 at |z| = 1, 30 at |z| = 4 and 7 at |z| = 80.

    The split elements and the fraction elements share one fraction loop.
    At s = i rho - m, m <= 11, rho in [0.3, 3], the result is within 1e-12
    relative of mpmath; on the split's band it is within 3.5e-14 (measured
    over real z from 0.05 to 40, with the largest error at z = 0.05,
    rho = 3, m = 0).  Either iteration raises AccuracyError when it has
    not converged in _GAMMA_MAX_STEPS steps.  An element's value does not
    depend on the other elements of the call.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(z, dtype=complex))
    if np.any((z.imag == 0.0) & (z.real <= 0.0)):
        raise UnsupportedCaseError(
            "Gamma(s, z) needs z off the branch cut (-inf, 0]")
    shape, s, z = s.shape, s.ravel(), z.ravel()
    out = np.empty(s.shape, dtype=complex)
    r = np.abs(z)
    pole = _is_nonpositive_int(s)
    split = ((z.imag == 0.0) & (z.real >= _GAMMA_SPLIT_LO)
             & (z.real < _GAMMA_SPLIT_Z1) & ~(pole & (r < _GAMMA_SERIES_RADIUS))
             & (np.abs(s.imag) <= _GAMMA_SPLIT_IM)
             & (s.real >= _GAMMA_SPLIT_RE_MIN) & (s.real <= 0.0))
    near = ~split & ((r < _GAMMA_SERIES_RADIUS) | ((r < _GAMMA_KUMMER_RADIUS) & ~pole))
    frac = ~split & ~near
    if np.any(near):
        sn, zn = s[near], z[near]
        with np.errstate(over="ignore", invalid="ignore"):
            full = np.exp(ln_gamma(sn))
            lower = zn ** sn * gamma_lower_scaled(sn, zn)
            out[near] = full - lower
            lost = _digits_lost(np.maximum(np.abs(full), np.abs(lower)), out[near])
        # past |z| = 1 an element over the budget, or not finite, hands over
        frac[near] = (r[near] >= _GAMMA_SERIES_RADIUS) & ~(lost <= _GAMMA_DIGIT_BUDGET)
    # the split elements run the fraction at Z1, in the same loop
    frac |= split
    if np.any(frac):
        out[frac] = _gamma_upper_fraction(
            s[frac], np.where(split, _GAMMA_SPLIT_Z1, z)[frac])
    if np.any(split):
        out[split] += _gamma_split_integral(s[split], z.real[split])
    return out.reshape(shape)[()]


def _gamma_split_integral(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """int_z^Z1 t^{s-1} e^{-t} dt = int e^{s u - e^u} du over [log z, log Z1]
    for real z, by the _GAMMA_SPLIT_NODES-point Gauss-Legendre rule.  Each
    row of nodes is summed in order (a cumsum, not a pairwise or BLAS
    reduction), so an element's value does not depend on the other
    elements of the call."""
    x, w = _legendre_rule(_GAMMA_SPLIT_NODES)
    lo = np.log(z)
    half = 0.5 * (math.log(_GAMMA_SPLIT_Z1) - lo)
    u = (lo + half)[:, None] + half[:, None] * x
    f = w * np.exp(s[:, None] * u - np.exp(u))
    return half * np.cumsum(f, axis=1)[:, -1]


def gamma_lower_scaled(s, z) -> np.ndarray:
    """z^{-s} gamma(s, z) = e^{-z} sum_k z^k / (s)_{k+1}, broadcast over s and z.

    The Kummer form of the lower incomplete Gamma function (DLMF 8.7.1),
    entire in z.  The terms are one cumprod over a term axis whose first
    factor is e^{-z}/s, so nothing overflows for real z up to 700, and for
    real z > 0 and Re s > 0 they do not alternate, so nothing cancels.
    Each element stops at its own first term k >= 1 past |z| - Re s (after
    which every term shrinks) that is within one rounding unit of its
    partial sum, so its value does not depend on the other elements of the
    call.  The axis starts at the largest max(|z| - Re s, 0) + 10 sqrt|z|
    + 12 of the call, which covers the terms' fall past their peak (about
    12 terms at |z| = 0.3, 50 at |z| = 6 and Re s = -11, 920 at z = 700),
    and doubles while an element runs past it.
    s must not be a non-positive integer.  Raises AccuracyError when an
    element has not converged in _GAMMA_MAX_STEPS terms.
    """
    s, z = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(z, dtype=complex))
    shape, s, z = s.shape, s.ravel(), z.ravel()
    r = np.abs(z)
    rise = r - s.real  # terms past k = rise shrink
    need = np.maximum(rise, 0.0) + 10.0 * np.sqrt(r)
    n = min(_GAMMA_MAX_STEPS, 12 + math.ceil(
        np.max(need, initial=0.0, where=np.isfinite(need))))
    while True:
        k = np.arange(n)[:, None]
        terms = np.cumprod(np.concatenate(((np.exp(-z) / s)[None],
                                           z / (s + k[1:]))), axis=0)
        sums = np.cumsum(terms, axis=0)
        done = (np.abs(terms) <= _GAMMA_TOL * np.abs(sums)) & (k > rise)
        done[0] = False
        if np.all(np.any(done, axis=0)):
            return sums[np.argmax(done, axis=0), np.arange(s.size)].reshape(shape)[()]
        if n == _GAMMA_MAX_STEPS:
            raise AccuracyError(f"Kummer sum of gamma(s, z) did not converge "
                                f"in {_GAMMA_MAX_STEPS} terms")
        n = min(_GAMMA_MAX_STEPS, 2 * n)


def _gamma_upper_fraction(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    tiny = 1e-300
    out = np.empty(s.shape, dtype=complex)
    live, sl = np.arange(s.size), s
    b = z + 1.0 - s
    c = np.full(s.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _GAMMA_MAX_STEPS):
        # each product with its operands in the order of d = an d + b,
        # c = b + an / c: numpy's complex product (FMA) is not bitwise
        # commutative.  No product writes into an operand: numpy runs such
        # a product on a one-element array without FMA, so the last live
        # element would round differently from the others
        an = -i * (i - sl)
        b += 2.0
        d = an * d
        d += b
        d[np.abs(d) < tiny] = tiny
        np.divide(an, c, out=c)
        c += b
        c[np.abs(c) < tiny] = tiny
        np.divide(1.0, d, out=d)
        delta = d * c
        h = h * delta
        # a converged element leaves the iteration, so its value does not
        # depend on the other elements of the call
        delta -= 1.0
        fin = np.abs(delta) <= _GAMMA_TOL
        if fin.any():
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
    product over the sets and points that still hold a live element.  An
    element (set, point) stops at the first block end where its own last
    term is within _SERIES_TOL of its sum, so its value and mass depend
    only on its own terms, not on the other sets or points of the call
    (up to the rounding of the matrix products, which follows their shape).
    An element whose block mass is not finite leaves with infinite mass,
    over any digit budget: so a set whose coefficients overflow (|c_k|
    above the float range, as at rho of about 800 on the principal series)
    leaves the loop at that block.
    """
    a, b, c = (np.ravel(x).astype(complex) for x in np.broadcast_arrays(a, b, c))
    v = np.asarray(v, dtype=float)
    acc = np.ones((a.size, v.size), dtype=complex)
    mass = np.ones((a.size, v.size))
    # the working block: sets (rows) and points (cols) with a live element,
    # their sums and masses, and which of their elements are still summing
    rows, cols = np.arange(a.size), np.arange(v.size)
    acc_w, mass_w = acc, mass
    live = np.ones(acc.shape, dtype=bool)
    coef = np.ones(a.size, dtype=complex)       # c_k at the block start, per row
    vk = np.ones(v.size)                        # v^k at the block start, per col
    steps = np.arange(_SERIES_BLOCK)
    vpow = v[None, :] ** (steps[:, None] + 1.0)  # v^1 .. v^16, per col
    for k0 in range(0, _MAX_TERMS, _SERIES_BLOCK):
        k = k0 + steps
        ratio = ((a[rows, None] + k) * (b[rows, None] + k)
                 / ((c[rows, None] + k) * (k + 1.0)))
        pw = vk * vpow
        with np.errstate(over="ignore", invalid="ignore"):
            cs = coef[:, None] * np.cumprod(ratio, axis=1)
            bound = np.abs(cs) @ pw  # the block's mass
            blown = live & ~np.isfinite(bound)
            mass_w[blown] = np.inf
            live &= ~blown
            np.add(mass_w, bound, out=mass_w, where=live)
            np.add(acc_w, cs @ pw, out=acc_w, where=live)
            coef, vk = cs[:, -1], pw[-1]
            # bound becomes _SERIES_TOL |sum| (one (P x V) buffer the less):
            # an element stays live while its last term exceeds it
            np.abs(acc_w, out=bound)
            np.maximum(bound, 1e-300, out=bound)
            bound *= _SERIES_TOL
            live &= np.multiply.outer(np.abs(coef), vk) > bound
        keep_r, keep_c = np.any(live, axis=1), np.any(live, axis=0)
        if np.all(keep_r) and np.all(keep_c):
            continue
        if acc_w is not acc:
            sub = np.ix_(rows, cols)
            acc[sub], mass[sub] = acc_w, mass_w
        if not np.any(keep_r):
            return acc, mass
        sub = np.ix_(keep_r, keep_c)
        rows, cols, coef, vk, vpow = (rows[keep_r], cols[keep_c], coef[keep_r],
                                      vk[keep_c], vpow[:, keep_c])
        acc_w, mass_w, live = acc_w[sub], mass_w[sub], live[sub]
    raise AccuracyError(f"2F1 series did not converge in {_MAX_TERMS} terms")


def _digits_lost(mass, value):
    with np.errstate(divide="ignore"):
        return np.maximum(np.log10(mass / np.abs(value)), 0.0)


def _paired(a, b, c):
    """Which parameter sets are conjugate pairs: real c with c - a = conj(b)
    and c - b = conj(a), tested exactly.  Every principal-series set is
    one.  The second series of the 1-v connection formula then has the
    conjugate parameters of the first, so on real 1 - v its sum is the
    conjugate of the first's, and G2 = conj(G1)."""
    return (c.imag == 0.0) & (c - a == np.conj(b)) & (c - b == np.conj(a))


def connection_gammas(a, b, c):
    """Gamma ratios (G1, G2) of the 1-v connection formula (A&S 15.3.6):
    2F1(a,b;c;v) = G1 F(a,b;a+b-c+1;1-v) + G2 (1-v)^{c-a-b} F(c-a,c-b;c-a-b+1;1-v).
    Broadcast over a, b and c.  On a paired set (see _paired) G2 equals
    conj(G1) up to rounding; both come from one ln_gamma call.
    """
    s = c - a - b
    g = ln_gamma(np.broadcast_arrays(c, s, c - a, c - b, -s, a, b))
    return np.exp(g[0] + g[1] - g[2] - g[3]), np.exp(g[0] + g[4] - g[5] - g[6])


def _connection_2f1(a, b, c, w):
    """2F1 by the 1-v connection formula for parameter sets (P,) against
    points w = 1 - v (V,): values and digits lost, each (P, V).  The loss
    counts both series and the cancellation between the two terms.

    A paired set (see _paired) runs one series: its second is the
    conjugate of its first, with the same mass.  Only the other sets run
    the second series, on their rows."""
    s = c - a - b
    if np.any((np.abs(s - np.round(s.real)) < 1e-10) & (np.abs(s.imag) < 1e-10)):
        raise UnsupportedCaseError(
            f"connection formula degenerate: c-a-b = {s} has an integer entry")
    # the Gamma ratios first: ln_gamma's (terms x sets) temporaries then
    # meet no (P, V) series array
    g1, g2 = connection_gammas(a, b, c)
    other = ~_paired(a, b, c)
    f1, m1 = _series_2f1_array(a, b, a + b + 1.0 - c, w)
    f2, m2 = np.conj(f1), m1
    if np.any(other):
        m2 = m1.copy()
        f2[other], m2[other] = _series_2f1_array(
            c[other] - a[other], c[other] - b[other], 1.0 + s[other], w)
    # out = g1 f1 + e2 f2 and its mass |g1| m1 + |e2| m2, built in place on
    # the (P, V) series arrays, whose spent ones go before _digits_lost's
    e2 = s[:, None] * np.log(w)
    np.exp(e2, out=e2)
    np.multiply(g2[:, None], e2, out=e2)
    np.multiply(g1[:, None], f1, out=f1)
    np.multiply(e2, f2, out=f2)
    f1 += f2
    del f2
    mass = np.abs(e2)
    del e2
    mass *= m2
    m1 *= np.abs(g1)[:, None]
    m1 += mass
    del m2, mass
    return f1, _digits_lost(m1, f1)


def gauss_2f1_array(a, b, c, v, one_minus_v=None):
    """Gauss hypergeometric 2F1(a, b; c; v) over an array of v in [0, 1),
    with the digits each element lost: returns (values, digits_lost).

    a, b and c are scalars or broadcast to P parameter sets; both results
    have shape (P,) + v.shape (v.shape for scalar parameters).  Direct
    series for v <= v* = 0.5; for v > v* the two-term connection formula in
    1-v, which needs c-a-b not an integer (always true on the principal
    series, where c-a-b = +-i rho).  Non-positive integer c in any set
    raises PoleError.  one_minus_v may supply 1 - v to full precision
    (needed when v is so close to 1 that the subtraction underflows, e.g.
    tanh^2 of a large argument paired with sech^2); the connection branch
    then runs on it.

    digits_lost is log10(sum |term| / |value|) per element.  A
    direct-series element that loses more than 8 digits (large |a b| v,
    e.g. rho above about 30 on the principal series), or whose series
    overflows, is recomputed by the connection formula; an element whose
    connection value loses more than 8 digits raises AccuracyError.
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
    # each branch's (values, digits lost) over its points; the (P, V)
    # results are allocated after both, so the kernel's temporaries and
    # them do not coexist
    lo = v <= _CONNECTION_SWITCH
    parts = []
    if np.any(lo):
        f, mass = _series_2f1_array(a, b, c, v[lo])
        parts.append((lo, f, _digits_lost(mass, f)))
    if not np.all(lo):
        parts.append((~lo, *_connection_2f1(a, b, c, w_all[~lo])))
    out = np.empty((a.size, v.size), dtype=complex)
    lost = np.empty(out.shape)
    for cols, f, loss in parts:
        out[:, cols], lost[:, cols] = f, loss
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
    sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2).  The pass whose step is below
    1e-13 is the last: its (1 - x^2) C_n' moves to the new nodes by the
    first-order term of the Gegenbauer equation, (2 lam - 1) x C_n' times
    the step (DLMF 18.8.1), so no further pass re-evaluates it: Legendre
    rules with 2 <= n <= 128 take four passes.  For n <= 128 and a <= 2.5
    the nodes are exact to rounding and the weights to 3e-13 relative
    (against mpmath).  n < 1 or a < 0 raises ValueError; AccuracyError
    where Newton misses the ceil(n/2) distinct zeros in [0, 1), as at
    a = 4.5, n >= 17.
    """
    if n < 1 or a < 0:
        raise ValueError(f"a Gauss rule needs n >= 1 and a >= 0, got n={n}, a={a}")
    lam, odd = a + 0.5, n % 2
    # descending nodes x >= 0; the middle node of an odd rule is 0
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.5 * (1.0 - lam)) / (n + lam))
    if odd:
        x[-1] = 0.0
    for _ in range(_GAUSS_MAX_STEPS):
        c, c_prev = _gegenbauer_pair(lam, n, x)
        slope = (n + 2.0 * lam - 1.0) * c_prev - n * x * c  # (1 - x^2) C_n'
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        step = c * one_minus_x2 / slope
        x = x - step
        if np.abs(step).max() <= _GAUSS_STEP_TOL:
            slope *= 1.0 - (2.0 * lam - 1.0) * x * step / one_minus_x2
            break
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


@functools.lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """gauss_rule(n), built once per n and held read-only, so no caller
    can change what a later call reads."""
    x, w = gauss_rule(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on each interval (lo, hi) between
    consecutive edges: nodes and weights, interval after interval.  The
    rule comes read-only from _legendre_rule, built on the first call for
    each n."""
    x, w = _legendre_rule(n)
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


def harmonic_indices(n: int, l_max: int) -> list[HarmonicIndex]:
    """All index chains with top label <= l_max."""
    out: list[HarmonicIndex] = []

    def chains(prefix: tuple[int, ...], remaining: int):
        if remaining == 0:
            mm = prefix[0] if prefix else l_max
            for m in range(-mm, mm + 1):
                out.append(HarmonicIndex(n, m, prefix))
            return
        hi = prefix[0] if prefix else l_max
        for l in range(0, hi + 1):
            chains((l,) + prefix, remaining - 1)

    chains((), n - 2)
    return out


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

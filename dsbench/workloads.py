"""The four seeded workloads.

Each workload has three parts:

* ``build(rng, tiny, workdir, nudge)`` makes the inputs of one
  pass over the units from the seed: grids, coefficient fields, spectra,
  config files.  It runs inside the measured set-up.  Later passes draw
  the same inputs with one continuous parameter moved by ``nudge`` (1e-4
  per pass, relative or absolute): the same work, but no input a cache
  could serve.
* ``references(specs)`` computes what the checks compare against, with
  mpmath or a ``--threads 1`` CLI run, outside every timed region.
* ``unit(spec, ref)`` is a generator that yields the unit's ops one at a
  time and receives each op's output, so later ops can consume earlier
  ones (a transform round trip).  Every op is one public library call;
  its check runs after the unit has finished.

Each workload runs a fixed number of units per pass, never sized by a
clock, so a seed gives the same op list on every commit.  Every run
times at least 100 calls, so that p90 has ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from dswave import cli, limits, transform
from dswave.errors import DsWaveError
from dswave.specfun import harmonic_indices
from dswave.transform import (ConeFunction, ConeGrid, ConeSpectrum,
                              HyperCoeffs, QuadratureGrid)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    threads: int = 1


class CliRefused(DsWaveError):
    """The CLI exited with code 2 (typed or usage error)."""


# ----------------------------------------------------------- oracle_table

# every (n, j, k) class in a fixed mix per pass, plus two fixed cases:
# every seed runs the same Bessel orders, so only rho and the order
# change.  A k = 0 case costs about 1.5 times a k = 1 case; with equal
# shares the median would sit on the edge between the two groups, so the
# k = 1 classes run three times: 37 of the 50 cases per pass
_ORACLE_CLASSES = [(n, j, k) for n in range(2, 6) for j in range(3)
                   for k in range(2)]
_ORACLE_MIX = ([c for c in _ORACLE_CLASSES if c[2] == 1] * 3
               + [c for c in _ORACLE_CLASSES if c[2] == 0]
               + [(2, 0, 0), (4, 2, 1)])


def oracle_build(rng, tiny, workdir, nudge):
    cases = _ORACLE_CLASSES[::8] if tiny else _ORACLE_MIX
    order = rng.permutation(len(cases))
    rhos = rng.uniform(0.3, 3.0, len(cases))
    return [cases[i] + (float(r) * (1 + nudge),) for i, r in zip(order, rhos)]


def oracle_references(specs):
    from reference import d_abs_closed
    return [d_abs_closed(*spec) for spec in specs]


def oracle_unit(spec, ref):
    n, j, k, rho = spec
    yield Op("appendix_d_oracle",
             lambda: limits.appendix_d_oracle(n, j, k, rho),
             lambda v: abs(v - ref) <= 1e-4 * ref)


# ------------------------------------------------------------- hyper_pair

_HYPER_GRID = {  # criterion-9 sized grids
    2: dict(beta_max=24.0, n_beta=8, n_rho=64, l_max=2, n_polar=24,
            n_azimuth=24),
    3: dict(beta_max=24.0, n_beta=6, n_rho=48, l_max=2, n_polar=8,
            n_azimuth=16),
}
_HYPER_SIGMA = 0.18     # criterion 9's band: a Gaussian in rho of width
_HYPER_HALF = 0.72      # 0.18, cut to zero 0.72 from the window centre
_HYPER_SPOTS = 2


@dataclass
class HyperSpec:
    grid: QuadratureGrid
    modes: list           # [(alpha, HarmonicIndex, amplitude)]
    tables: list          # input HyperCoeffs per rho node
    spots: list           # [(beta index, sphere index)]


def hyper_build(rng, tiny, workdir, nudge):
    # five round trips per pass, four n=2 and one n=3: 314 ops, whose
    # median falls inside the n=2 cached contractions and p90 inside the
    # n=2 table builds (see NOTES.md)
    dims = (2, 3) if tiny else (2, 2, 2, 2, 3)
    specs = []
    for n in dims:
        shift = float(rng.uniform(0.0, 0.2)) + nudge
        lo, hi = 0.9 + shift, 2.6 + shift
        grid = QuadratureGrid.build(n, rho_window=(lo, hi), **_HYPER_GRID[n])
        # criterion 9's traffic: modes of both families, and a band centred
        # in the window, so that the synthesis caches the mode tables of
        # the in-band rho nodes (the forward calls there contract cached
        # tables) and skips the others (the forward calls there build their
        # tables); the band's node count is the same for every seed
        idxs = harmonic_indices(n, grid.l_max)
        alphas = [1, 2, int(rng.integers(1, 3))]
        picks = rng.choice(len(idxs), 3, replace=False)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        modes = [(a, idxs[p], complex(c)) for a, p, c in zip(alphas, picks, amps)]
        center = 0.5 * (lo + hi)
        tables = []
        for r in grid.rho_nodes:
            hc = HyperCoeffs(rho=float(r))
            if abs(r - center) < _HYPER_HALF:
                g = math.exp(-((r - center) / _HYPER_SIGMA) ** 2 / 2.0)
                for a, idx, c in modes:
                    hc.table[(a, idx.m, idx.ls)] = c * g
            tables.append(hc)
        near = np.flatnonzero(np.abs(grid.beta_nodes) <= 1.0)
        spots = [(int(rng.choice(near)), int(rng.integers(grid.sphere.size)))
                 for _ in range(_HYPER_SPOTS)]
        specs.append(HyperSpec(grid, modes, tables, spots))
    return specs


def hyper_references(specs):
    """Spot values of the synthesized field from mpmath 2F1 profiles."""
    from reference import harmonic_ref, radial_profile_ref
    refs = []
    for sp in specs:
        g = sp.grid
        n = g.sphere.n
        vals = []
        for b, s in sp.spots:
            beta = float(g.beta_nodes[b])
            phis = [float(p[s]) for p in g.sphere.phis]
            total = 0.0 + 0.0j
            for a, idx, _ in sp.modes:
                Y = harmonic_ref(n, idx.m, idx.ls, phis, float(g.sphere.phi[s]))
                for r, w, tab in zip(g.rho_nodes, g.rho_weights, sp.tables):
                    c = tab[(a, idx.m, idx.ls)]
                    if c:
                        V = radial_profile_ref(n, a, idx.top, float(r), beta)
                        total += w * 0.5 * r * c * V * Y
            vals.append(total)
        refs.append(vals)
    return refs


def _weighted_rel_l2(a, b, grid) -> float:
    n = grid.sphere.n
    meas = (grid.beta_weights * np.cosh(grid.beta_nodes) ** (n - 1))[:, None] \
        * grid.sphere.weights[None, :]
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2 * meas)
                           / np.sum(np.abs(b) ** 2 * meas)))


def hyper_unit(spec: HyperSpec, ref):
    grid = spec.grid
    scale = max(abs(c) for _, _, c in spec.modes)

    def check_synthesis(F):
        got = [F[b, s] for b, s in spec.spots]
        top = max(abs(v) for v in ref)
        return all(abs(x - y) <= 1e-8 * top for x, y in zip(got, ref))

    def check_coeffs(tab):
        def check(chi):
            keys = set(chi.table) | set(tab.table)
            return max(abs(chi[k] - tab[k]) for k in keys) <= 2e-4 * scale
        return check

    F = yield Op("fourier_hyper_inverse",
                 lambda: transform.fourier_hyper_inverse(spec.tables, grid),
                 check_synthesis)
    chis = []
    for r, tab in zip(grid.rho_nodes, spec.tables):
        chi = yield Op("fourier_hyper_forward",
                       lambda r=float(r): transform.fourier_hyper_forward(F, r, grid),
                       check_coeffs(tab))
        chis.append(chi)
    yield Op("fourier_hyper_inverse",
             lambda: transform.fourier_hyper_inverse(chis, grid),
             lambda F2: _weighted_rel_l2(F2, F, grid) <= 1e-3)


# -------------------------------------------------------------- cone_pair

_CONE_RHO = 24
_CONE_WINDOW = (0.3, 3.5)
_CONE_SIGMA = 0.4
_CONE_THETA = 128


@dataclass
class ConeSpec:
    psi0: ConeSpectrum
    rho_weights: np.ndarray


def cone_build(rng, tiny, workdir, nudge):
    # 11 units of 5 ops: 110 timed calls over the two passes
    count = 2 if tiny else 11
    x, w = roots_legendre(_CONE_RHO)
    lo, hi = _CONE_WINDOW
    rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    rho_w = 0.5 * (hi - lo) * w
    specs = []
    for u in range(count):
        grid = ConeGrid(n=2, n_theta=_CONE_THETA,
                        s_window=(1e-4, 1e4), n_s=200)
        center = 1.9 + float(rng.uniform(-0.1, 0.1)) + nudge
        prof = np.exp(-((rho - center) / _CONE_SIGMA) ** 2 / 2.0)
        js = rng.choice(np.arange(-3, 4), 3, replace=False)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        th = grid.thetas
        # psi_{-1}(theta) = psi_{+1}(theta + pi): antipodally even input
        values = {tp: np.sum([c * tp ** int(j) * np.exp(1j * j * th)
                              for j, c in zip(js, amps)], axis=0)[:, None]
                  * prof[None, :] for tp in (1, -1)}
        specs.append(ConeSpec(ConeSpectrum(grid, rho, values), rho_w))
    return specs


def cone_references(specs):
    return [None] * len(specs)  # the checks are identities on the outputs


def _cone_input(h, grid) -> ConeFunction:
    """Cone function that reads the inverse output on its own grid."""
    logs = np.log(grid.s_nodes)
    step = 2.0 * math.pi / grid.n_theta

    def fn(s, tprime, xprime):
        j = int(round((math.atan2(xprime[0], xprime[1]) % (2 * math.pi)) / step))
        col = h[tprime][:, j % grid.n_theta]
        ls = np.log(s)
        return np.interp(ls, logs, col.real) + 1j * np.interp(ls, logs, col.imag)

    return ConeFunction(2, fn, grid.s_window)


def cone_unit(spec: ConeSpec, ref):
    psi0 = spec.psi0
    grid = psi0.grid
    rw = spec.rho_weights
    half = grid.n_theta // 2
    out = {}

    def rel(a: dict, b: dict, w) -> float:
        num = sum(float(np.sum(np.abs(a[t] - b[t]) ** 2 * w)) for t in (1, -1))
        den = sum(float(np.sum(np.abs(b[t]) ** 2 * w)) for t in (1, -1))
        return math.sqrt(num / den)

    def check_inverse(method):
        other = "direct" if method == "spectral" else "spectral"
        return lambda h: (rel(h, out[("inv", other)], 1.0) <= 5e-3
                          and rel(out[("fwd", method)].values, psi0.values,
                                  rw[None, :]) <= 5e-3)

    def check_forward(psi):
        odd = psi.values[1] - np.roll(psi.values[-1], half, axis=0)
        even = psi.values[1] + np.roll(psi.values[-1], half, axis=0)
        leak = float(np.max(np.abs(odd)) / np.max(np.abs(even)))
        return leak < 1e-12 and rel(psi.values, psi0.values, rw[None, :]) <= 5e-3

    for method in ("spectral", "direct"):
        h = yield Op("cone_fourier_inverse",
                     lambda m=method: transform.cone_fourier_inverse(psi0, rw, method=m),
                     check_inverse(method))
        out[("inv", method)] = h
        hfun = _cone_input(h, grid)
        out[("fwd", method)] = yield Op(
            "cone_fourier_forward",
            lambda m=method, f=hfun: transform.cone_fourier_forward(
                f, psi0.rho_nodes, grid, method=m),
            check_forward)
    # the direct forward runs once more, on the spectral inverse output.
    # Five ops per unit, two of them direct forward calls: the median then
    # falls inside that group, not on the edge between two groups of
    # differently priced calls
    hfun = _cone_input(out[("inv", "spectral")], grid)
    yield Op("cone_fourier_forward",
             lambda: transform.cone_fourier_forward(
                 hfun, psi0.rho_nodes, grid, method="direct"),
             check_forward)


# -------------------------------------------------------------- field_cli

CLI_THREADS = 2
_PLANEWAVE_ROWS = 4


@dataclass
class CliSpec:
    command: str
    config: str           # path of the config file
    cfg: dict
    out: str
    rows: list            # planewave rows checked against mpmath


def _planewave_cfg(rng, n):
    if n == 2:
        m, ls = int(rng.integers(-2, 3)), ()
    else:
        top = int(rng.integers(0, 4))
        m = int(rng.choice([v for v in range(-top, top + 1) if (top - v) % 2 == 0]))
        ls = (top,)
    return {"n": n, "alpha": int(rng.integers(1, 3)), "m": m,
            "ls": ",".join(map(str, ls)), "rho": round(float(rng.uniform(0.5, 20.0)), 6),
            "beta_min": round(-float(rng.uniform(2.0, 4.0)), 6),
            "beta_max": round(float(rng.uniform(2.0, 4.0)), 6), "beta_steps": 61}


def _wavepacket_cfg(rng, n):
    return {"n": n, "mu": round(float(rng.uniform(1.2, 2.5)), 6),
            "profile_delta": round(float(rng.uniform(0.25, 0.45)), 6),
            "profile_shape": round(float(rng.uniform(0.8, 1.2)), 6),
            "path_s_min": round(float(rng.uniform(1.5, 3.0)), 6),
            "path_s_max": round(float(rng.uniform(150.0, 300.0)), 6)}


# The planewave calls are the cheapest (30-55 ms, with the seeded rho),
# then wavepacket n=2 (about 60 ms), then wavepacket n=3 (170 ms).  In
# shares of 20, 60 and 20 %, the median falls in the middle of the
# wavepacket n=2 calls and p90 in the middle of the n=3 ones, away from
# the edges where the groups' times overlap.
_CLI_CYCLE = [("wavepacket", 2), ("planewave", 2), ("wavepacket", 2),
              ("wavepacket", 3), ("wavepacket", 2),
              ("wavepacket", 2), ("planewave", 3), ("wavepacket", 2),
              ("wavepacket", 3), ("wavepacket", 2)]


def cli_build(rng, tiny, workdir, nudge):
    # 50 calls: 100 timed calls over the two passes
    count = 7 if tiny else 50
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out")
    specs = []
    for u in range(count):
        command, n = _CLI_CYCLE[u % len(_CLI_CYCLE)]
        if command == "wavepacket":
            cfg, rows = _wavepacket_cfg(rng, n), []
            cfg["mu"] = round(cfg["mu"] * (1 + nudge), 9)
        else:
            cfg = _planewave_cfg(rng, n)
            cfg["rho"] = round(cfg["rho"] * (1 + nudge), 9)
            rows = sorted(rng.choice(cfg["beta_steps"], _PLANEWAVE_ROWS,
                                     replace=False).tolist())
        path = os.path.join(workdir, f"op{u}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
        specs.append(CliSpec(command, path, cfg, out, rows))
    return specs


def _cli_call(spec: CliSpec, out: str, threads: int) -> bytes:
    argv = ["--config", spec.config, "--out", out, "--threads", str(threads),
            "--seed", "0", spec.command]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc == 2:
        raise CliRefused(f"dswave {spec.command} exited with 2")
    if rc != 0:
        raise RuntimeError(f"dswave {spec.command} exited with {rc}")
    with open(os.path.join(out, f"{spec.command}.csv"), "rb") as fh:
        return fh.read()


def cli_references(specs):
    """--threads 1 CSV bytes for wavepackets, mpmath rows for planewaves."""
    from reference import harmonic_ref, radial_profile_ref
    refs = []
    for sp in specs:
        if sp.command == "wavepacket":
            ref_dir = os.path.join(os.path.dirname(sp.config), "ref")
            refs.append(_cli_call(sp, ref_dir, 1))
            continue
        c = sp.cfg
        n = c["n"]
        top = int(c["ls"]) if c["ls"] else abs(c["m"])
        betas = np.linspace(c["beta_min"], c["beta_max"], c["beta_steps"])
        Y = harmonic_ref(n, c["m"], (top,) if n == 3 else (),
                         [math.pi / 2] * (n - 2), 0.0)
        refs.append([(float(betas[i]),
                      radial_profile_ref(n, c["alpha"], top, c["rho"],
                                         float(betas[i])) * Y)
                     for i in sp.rows])
    return refs


def _csv_rows(data: bytes) -> list[list[float]]:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def cli_unit(spec: CliSpec, ref):
    if spec.command == "wavepacket":
        yield Op("cli.wavepacket",
                 lambda: _cli_call(spec, spec.out, CLI_THREADS),
                 lambda data: data == ref, threads=CLI_THREADS)
        return

    def check(data):
        rows = _csv_rows(data)
        top = max(abs(v) for _, v in ref)
        return all(rows[i][0] == b and abs(complex(rows[i][1], rows[i][2]) - v)
                   <= 1e-8 * top for i, (b, v) in zip(spec.rows, ref))

    yield Op("cli.planewave", lambda: _cli_call(spec, spec.out, 1), check)


# The host's speed drifts by up to 1.5x in spells of seconds, so each op
# slot runs once per pass and reports its fastest pass; passes are seconds
# apart, so one slow spell rarely covers all of them.
PASSES = 2

# name -> (build, references, unit)
WORKLOADS = {
    "oracle_table": (oracle_build, oracle_references, oracle_unit),
    "hyper_pair": (hyper_build, hyper_references, hyper_unit),
    "cone_pair": (cone_build, cone_references, cone_unit),
    "field_cli": (cli_build, cli_references, cli_unit),
}

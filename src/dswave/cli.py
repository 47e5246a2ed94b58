"""Command-line driver.

Subcommands: planewave, wavepacket, verify, contract, appendix-d.
Configuration comes from a plain KEY = VALUE text file (--config), with
per-key overrides from environment variables prefixed DSWAVE_ (for example
DSWAVE_N=3 overrides the key "n").  Outputs are CSV files with '#'-prefixed
metadata lines; optional SVG plots are self-contained static markup.

Exit codes: 0 success (all criteria pass), 1 runtime evaluation failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import limits, lorentz, planewave, specfun, transform
from .geometry import HyperChart, SpacetimeConfig, from_hyper
from .planewave import HyperWave, principal_mass
from .specfun import HarmonicIndex

ENV_PREFIX = "DSWAVE_"

DEFAULTS = {
    "n": "2",
    "R": "1.0",
    "mu": "1.5",
    "rho": "1.0",
    "alpha": "2",
    "m": "0",
    "ls": "",
    "beta_min": "-3.0",
    "beta_max": "3.0",
    "beta_steps": "61",
    "mode": "hyper",            # planewave: hyper | ambient
    "profile_delta": "0.35",
    "profile_shape": "1.0",
    "cap_theta_nodes": "16",
    "cap_sub_polar": "8",
    "cap_sub_azimuth": "16",
    "path_s_min": "2.0",
    "path_s_max": "250.0",
    "path_points": "160",
    "windows": "4",
    "R_scan": "10,100,1000,10000",
    "fd_step": "1e-3",
    "rho_grid": "0.5,1,2",
    "j_grid": "0,1",
    "k_grid": "0,1",
    "n_grid": "2,3,4",
}


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict[str, str]:
    """Merge defaults, the optional KEY = VALUE file, and env overrides."""
    cfg = dict(DEFAULTS)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, raw in enumerate(fh, 1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{line_no}: expected KEY = VALUE")
                    key, val = line.split("=", 1)
                    cfg[key.strip()] = val.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for key in list(cfg):
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            cfg[key] = env
    return cfg


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g},{x.imag:.17g}"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header: list[str], rows, meta: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k in sorted(meta):
            fh.write(f"# {k} = {meta[k]}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_svg_line(path: str, xs, ys, title: str, xlabel: str, ylabel: str) -> None:
    """Static log-log style line plot; values are plotted as given."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    W, H, pad = 640, 420, 56
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n')
        fh.write(f'<rect width="{W}" height="{H}" fill="white"/>\n')
        fh.write(f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
                 f'font-size="15">{title}</text>\n')
        fh.write(f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" '
                 'stroke="black"/>\n')
        fh.write(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" '
                 'stroke="black"/>\n')
        fh.write(f'<text x="{W/2:.0f}" y="{H-16}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>\n')
        fh.write(f'<text x="16" y="{H/2:.0f}" font-size="12" '
                 f'transform="rotate(-90 16 {H/2:.0f})">{ylabel}</text>\n')
        fh.write(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>\n')
        fh.write("</svg>\n")


def _meta(cfg: dict, args) -> dict:
    # thread count is deliberately not echoed: --threads has no effect, so
    # outputs are byte-identical for any value
    meta = {k: cfg[k] for k in sorted(cfg)}
    meta["seed"] = args.seed
    return meta


# ------------------------------------------------------------- subcommands


def cmd_planewave(cfg: dict, args) -> int:
    n = int(cfg["n"])
    out = os.path.join(args.out, "planewave.csv")
    betas = np.linspace(float(cfg["beta_min"]), float(cfg["beta_max"]),
                        int(cfg["beta_steps"]))
    angles = tuple([np.pi / 2] * (n - 2))  # the same chart angles on every row
    meta = _meta(cfg, args)
    if cfg["mode"] == "hyper":
        ls = tuple(_ints(cfg["ls"])) if cfg["ls"] else ()
        if len(ls) != n - 2:
            ls = tuple([abs(int(cfg["m"]))] * (n - 2))
        wave = HyperWave(int(cfg["alpha"]), float(cfg["rho"]),
                         HarmonicIndex(n, int(cfg["m"]), ls))
        vals = (planewave.radial_profile(wave, betas)
                * specfun.hypersph_Y(wave.idx, angles, 0.0))
    else:
        st = SpacetimeConfig(n=n, R=float(cfg["R"]))
        mass = principal_mass(st, float(cfg["mu"]))
        xi = np.zeros(n + 1)
        xi[0] = xi[-1] = 1.0
        wave = planewave.AmbientWave(tuple(xi), mass)
        xs = np.stack([from_hyper(st, HyperChart(float(b), angles, 0.0))
                       for b in betas])
        vals = planewave.psi_ambient(wave, xs)  # NaN where x.xi = 0
        dropped = np.isnan(vals)
        meta["dropped_nodes"] = int(dropped.sum())
        betas, vals = betas[~dropped], vals[~dropped]
    write_csv(out, ["beta", "re_psi", "im_psi"],
              np.column_stack([betas, vals.real, vals.imag]), meta)
    print(f"wrote {out}")
    return 0


def cmd_wavepacket(cfg: dict, args) -> int:
    n = int(cfg["n"])
    st = SpacetimeConfig(n=n, R=float(cfg["R"]))
    mass = principal_mass(st, float(cfg["mu"]))
    center = np.zeros(n)
    center[-1] = 1.0
    profile = transform.AbsoluteProfile(tuple(center), float(cfg["profile_delta"]),
                                        shape=float(cfg["profile_shape"]))
    spec = transform.WavepacketSpec(profile, mass,
                                    n_theta=int(cfg["cap_theta_nodes"]),
                                    n_sub_polar=int(cfg["cap_sub_polar"]),
                                    n_sub_azimuth=int(cfg["cap_sub_azimuth"]))
    s_vals = np.geomspace(float(cfg["path_s_min"]), float(cfg["path_s_max"]),
                          int(cfg["path_points"]))
    betas = np.log(s_vals / st.R)
    dir_angles = tuple([np.pi / 3] * (n - 2))
    pts = np.stack([from_hyper(st, HyperChart(float(b), dir_angles, 0.5))
                    for b in betas])
    vals, rep = transform.wavepacket_ambient(spec, pts, full_output=True)
    # envelope bins must span the modulus oscillation (period pi/mu' in
    # log s); meaningful fits need paths covering several periods
    fit = limits.decay_fit(s_vals, vals, n_windows=int(cfg["windows"]),
                           noise_floor=rep.noise_estimate,
                           bin_width=np.pi / max(mass.mu_prime, 0.1) * 1.05)
    out = os.path.join(args.out, "wavepacket.csv")
    rows = np.column_stack([s_vals, vals.real, vals.imag, np.abs(vals)])
    meta = _meta(cfg, args)
    meta["decay_status"] = fit.status
    meta["decay_slopes"] = ";".join(f"{s:.6g}" for s in fit.slopes)
    meta["noise_estimate"] = f"{rep.noise_estimate:.3e}"
    write_csv(out, ["s", "re_f", "im_f", "abs_f"], rows, meta)
    if args.svg:
        good = np.abs(vals) > 0
        write_svg_line(os.path.join(args.out, "wavepacket_decay.svg"),
                       np.log10(s_vals[good]), np.log10(np.abs(vals[good])),
                       "wavepacket decay", "log10 s", "log10 |f|")
    print(f"wrote {out} (decay slopes: {fit.slopes}, status: {fit.status})")
    return 0


def _contraction_scan(n: int, scan: list[float]) -> tuple[float, list[float], bool]:
    """Poincare residuals over the radius scan, their log-log slope, and
    whether the slope meets the contraction target -1 +- 0.05."""
    st = SpacetimeConfig(n=n)
    res = [lorentz.poincare_residual(st, R) for R in scan]
    slope = float(np.polyfit(np.log(scan), np.log(res), 1)[0])
    return slope, res, abs(slope + 1.0) < 0.05


APPENDIX_TOL = 1e-4  # relative error bound of the |d| oracle vs the closed form


def _appendix_case(n: int, j: int, k: int, rho: float) -> tuple[float, float, float]:
    """(oracle, closed form, relative error) of |d(rho)| in one sector."""
    oracle = limits.appendix_d_oracle(n, j, k, rho)
    closed = specfun.d_abs(n, j, k, rho)
    return oracle, closed, abs(oracle - closed) / closed


def cmd_contract(cfg: dict, args) -> int:
    rows = []
    ok = True
    scan = _floats(cfg["R_scan"])
    for n in _ints(cfg["n_grid"]):
        slope, res, passed = _contraction_scan(n, scan)
        rows.append([n, slope] + res)
        ok = ok and passed
    out = os.path.join(args.out, "contract.csv")
    write_csv(out, ["n", "slope"] + [f"res_R{int(r)}" for r in scan],
              rows, _meta(cfg, args))
    print(f"wrote {out}; slope target -1 +- 0.05: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_appendix_d(cfg: dict, args) -> int:
    rows = []
    worst = 0.0
    for n in _ints(cfg["n_grid"]):
        for j in _ints(cfg["j_grid"]):
            for k in _ints(cfg["k_grid"]):
                for rho in _floats(cfg["rho_grid"]):
                    oracle, closed, rel = _appendix_case(n, j, k, rho)
                    worst = max(worst, rel)
                    rows.append([n, j, k, rho, oracle, closed, rel])
    out = os.path.join(args.out, "appendix_d.csv")
    write_csv(out, ["n", "j", "k", "rho", "oracle", "formula", "rel_err"],
              rows, _meta(cfg, args))
    ok = worst <= APPENDIX_TOL
    print(f"wrote {out}; worst relative error {worst:.3e}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_algebra(cfg, args, rows) -> bool:
    ok = True
    for n in (2, 3, 4, 5):
        st = SpacetimeConfig(n=n)
        r1 = lorentz.structure_residual(st)
        r2 = lorentz.iwasawa_ad_residual(st)
        rows.append(["algebra", f"structure_residual n={n}", r1, 1e-12, r1 < 1e-12])
        rows.append(["algebra", f"ad(a)n=n n={n}", r2, 1e-12, r2 < 1e-12])
        ok = ok and r1 < 1e-12 and r2 < 1e-12
    return ok


def _verify_ode(cfg, args, rows) -> bool:
    ok = True
    h = float(cfg["fd_step"])
    grid = np.linspace(0.4, 1.6, 5)
    for n in (2, 3, 4):
        for rho in (0.6, 1.1):
            ls = tuple([1] * (n - 2))
            wave = HyperWave(2, rho, HarmonicIndex(n, 1 if n == 2 else 0, ls))
            r = planewave.radial_ode_residual(wave, grid, h=h, richardson=True)
            rows.append(["ode", f"radial n={n} rho={rho}", r, 1e-6, r < 1e-6])
            ok = ok and r < 1e-6
    for n in (3, 4):
        wave = HyperWave(2, 0.9, HarmonicIndex(n, 0, tuple([1] * (n - 2))))
        chart = HyperChart(0.7, tuple([1.1] * (n - 2)), 0.9)
        r = planewave.dalembert_residual(wave, chart, h=h, richardson=True)
        rows.append(["ode", f"separated box n={n}", r, 1e-6, r < 1e-6])
        ok = ok and r < 1e-6
    return ok


def _verify_transform(cfg, args, rows) -> bool:
    # Mellin round trip on a smooth bump
    n = 2
    s = np.geomspace(0.05, 20.0, 240)

    def h(sv):
        v = np.log(sv)
        out = np.zeros_like(sv)
        inside = np.abs(v) < 2.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - (v[inside] / 2.0) ** 2))
        return out

    varpi = lambda r: transform.mellin_forward(h, n, r, (1e-4, 1e4), 800)
    back = transform.mellin_inverse(varpi, n, s, (-170, 170), 9000).real
    err = float(np.max(np.abs(back - h(s))) / np.max(np.abs(h(s))))
    rows.append(["transform", "mellin round trip", err, 1e-6, err <= 1e-6])
    return err <= 1e-6


def _verify_contract(cfg, args, rows) -> bool:
    ok = True
    for n in (2, 3, 4):
        slope, _, passed = _contraction_scan(n, [10.0, 100.0, 1000.0, 10000.0])
        rows.append(["contract", f"slope n={n}", slope, -1.0, passed])
        ok = ok and passed
    return ok


def _verify_appendix(cfg, args, rows) -> bool:
    ok = True
    for n in (2, 3):
        for (j, k) in ((0, 0), (1, 1)):
            rel = _appendix_case(n, j, k, 1.0)[2]
            passed = rel <= APPENDIX_TOL
            rows.append(["appendix", f"|d| n={n} j={j} k={k}", rel, APPENDIX_TOL, passed])
            ok = ok and passed
    return ok


def _verify_decay(cfg, args, rows) -> bool:
    st = SpacetimeConfig(n=2)
    rng = np.random.default_rng(args.seed)
    pts = []
    for _ in range(12):
        b = rng.uniform(-2, 2)
        pts.append(from_hyper(st, HyperChart(b, (), rng.uniform(0, 2 * np.pi))))
    dirs = [np.array([np.sin(t), np.cos(t)])
            for t in np.linspace(0, 2 * np.pi, 60, endpoint=False)]
    g = limits.phase_gradient_min(st, pts, dirs)
    rows.append(["decay", "min |grad Phi|", g, 0.0, g > 0.0])
    ok = g > 0.0
    rho = 2.5
    for n in (2, 3):
        wave = HyperWave(2, rho, HarmonicIndex(n, 0, tuple([0] * (n - 2))))
        betas = np.linspace(2.5, 14.0, 1200)
        fit = limits.decay_fit(np.exp(betas),
                               planewave.radial_profile(wave, betas),
                               n_windows=3, bin_width=np.pi / rho * 1.05)
        worst = max(abs(s - 0.5 * (n - 1)) for s in fit.slopes)
        rows.append(["decay", f"single-wave exponent n={n}", worst, 0.05,
                     worst < 0.05])
        ok = ok and worst < 0.05
    return ok


VERIFY_SUITES = {
    "algebra": _verify_algebra,
    "ode": _verify_ode,
    "transform": _verify_transform,
    "contract": _verify_contract,
    "appendix": _verify_appendix,
    "decay": _verify_decay,
}


def cmd_verify(cfg: dict, args) -> int:
    if args.suite not in VERIFY_SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{sorted(VERIFY_SUITES)}", file=sys.stderr)
        return 2
    rows: list = []
    ok = VERIFY_SUITES[args.suite](cfg, args, rows)
    out = os.path.join(args.out, f"verify_{args.suite}.csv")
    write_csv(out, ["suite", "criterion", "value", "target", "pass"],
              rows, _meta(cfg, args))
    for row in rows:
        print(f"{'PASS' if row[4] else 'FAIL'}  {row[1]}  value={row[2]:.3e}")
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dswave",
        description="Plane waves, Fourier analysis and wavepackets on de "
                    "Sitter spacetime")
    parser.add_argument("--config", help="KEY = VALUE configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: each field is evaluated "
                             "in one batched call")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG plots where supported")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("planewave")
    sub.add_parser("wavepacket")
    verify = sub.add_parser("verify")
    verify.add_argument("suite")
    sub.add_parser("contract")
    sub.add_parser("appendix-d")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        if args.command == "planewave":
            return cmd_planewave(cfg, args)
        if args.command == "wavepacket":
            return cmd_wavepacket(cfg, args)
        if args.command == "verify":
            return cmd_verify(cfg, args)
        if args.command == "contract":
            return cmd_contract(cfg, args)
        if args.command == "appendix-d":
            return cmd_appendix_d(cfg, args)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # evaluation failure
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

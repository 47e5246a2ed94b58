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

from . import criteria, limits, planewave, specfun, transform
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
        xs = from_hyper(st, HyperChart(betas, angles, 0.0))
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
    pts = from_hyper(st, HyperChart(betas, dir_angles, 0.5))
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


def cmd_contract(cfg: dict, args) -> int:
    rows = []
    ok = True
    scan = _floats(cfg["R_scan"])
    for n in _ints(cfg["n_grid"]):
        slope, res, passed = criteria.contraction_scan(n, scan)
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
                    oracle, closed, rel = criteria.appendix_case(n, j, k, rho)
                    worst = max(worst, rel)
                    rows.append([n, j, k, rho, oracle, closed, rel])
    out = os.path.join(args.out, "appendix_d.csv")
    write_csv(out, ["n", "j", "k", "rho", "oracle", "formula", "rel_err"],
              rows, _meta(cfg, args))
    ok = worst <= criteria.APPENDIX_TOL
    print(f"wrote {out}; worst relative error {worst:.3e}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(cfg: dict, args) -> int:
    if args.suite not in criteria.SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{sorted(criteria.SUITES)}", file=sys.stderr)
        return 2
    rows = [row for check in criteria.SUITES[args.suite] for row in check()]
    out = os.path.join(args.out, f"verify_{args.suite}.csv")
    write_csv(out, ["suite", "criterion", "value", "target", "pass"],
              [(args.suite, *row) for row in rows], _meta(cfg, args))
    for name, value, _, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  value={value:.3e}")
    print(f"wrote {out}")
    return 0 if all(row[3] for row in rows) else 1


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
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the CSV '#' metadata only; no "
                             "subcommand draws random numbers from it")
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

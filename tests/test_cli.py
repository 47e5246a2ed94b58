import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dswave import criteria, transform
from dswave import cli
from dswave.cli import load_config, main
from dswave.geometry import HyperChart, SpacetimeConfig, from_hyper
from dswave.planewave import HyperWave, principal_mass, psi_hyper
from dswave.specfun import HarmonicIndex

RUN = [sys.executable, "-m", "dswave.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


def _src_env():
    import dswave

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dswave.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_does_not_load_scipy():
    # scipy loads only on first use of a Bessel function of order other
    # than +-1/2 (integer and half-integer orders) or of the matrix
    # exponential, not at import
    code = ("import sys, dswave, dswave.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=_src_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# every subcommand and suite except appendix-d and verify appendix (Bessel
# J of integer and half-integer order, 3/2 at n = 3) and verify algebra
# (matrix exponential), with the environment overrides of each run;
# wavepacket n = 5 builds a Gauss-Jacobi rule with a = 1/2 on its sub-sphere
_NO_SCIPY_RUNS = [
    (["planewave"], {}),
    (["planewave"], {"DSWAVE_MODE": "ambient"}),
    (["wavepacket"], {}),
    (["wavepacket"], {"DSWAVE_N": "5", "DSWAVE_MU": "3"}),
    (["contract"], {}),
    (["verify", "transform"], {}),
    (["verify", "decay"], {}),
    (["verify", "ode"], {}),
    (["verify", "contract"], {}),
]


def test_cli_runs_without_scipy(tmp_path):
    # with scipy unimportable, every run must still exit 0
    code = f"""
import json, os, sys
sys.modules["scipy"] = None
from dswave.cli import main
codes = []
for argv, env in {_NO_SCIPY_RUNS!r}:
    os.environ.update(env)
    codes.append(main(["--out", sys.argv[1]] + argv))
    for key in env:
        del os.environ[key]
print(json.dumps(codes))
"""
    env = {k: v for k, v in _src_env().items() if not k.startswith("DSWAVE_")}
    r = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    codes = json.loads(r.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(_NO_SCIPY_RUNS), (codes, r.stderr)


def test_no_command_usage_error():
    assert run_cli([]).returncode == 2


def test_unknown_suite_exit_2(tmp_path):
    r = run_cli(["--out", str(tmp_path), "verify", "nonsense"])
    assert r.returncode == 2


def test_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    r = run_cli(["--config", str(bad), "--out", str(tmp_path), "planewave"])
    assert r.returncode == 2


def test_invalid_value_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = banana\n")
    r = run_cli(["--config", str(cfg), "--out", str(tmp_path), "planewave"])
    assert r.returncode == 2


def test_config_parsing_and_env_override(tmp_path, monkeypatch):
    path = tmp_path / "c.cfg"
    path.write_text("n = 3\nrho = 1.25   # comment\n\n# full comment\n")
    loaded = load_config(str(path))
    assert loaded["n"] == "3"
    assert loaded["rho"] == "1.25"
    monkeypatch.setenv("DSWAVE_N", "4")
    loaded = load_config(str(path))
    assert loaded["n"] == "4"


def test_planewave_alpha1_zero_row(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nalpha = 1\nrho = 1.0\nm = 1\n"
                   "beta_min = -1.0\nbeta_max = 1.0\nbeta_steps = 5\n")
    r = run_cli(["--config", str(cfg), "--out", str(tmp_path), "planewave"])
    assert r.returncode == 0
    rows = [l for l in (tmp_path / "planewave.csv").read_text().splitlines()
            if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == "beta,re_psi,im_psi"
    assert len(data) == 5
    mid = data[2].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 0.0 and float(mid[2]) == 0.0


def test_planewave_ambient_unit_row(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nmode = ambient\nmu = 1.0\nR = 1.0\n"
                   "beta_min = 0.0\nbeta_max = 1.0\nbeta_steps = 3\n")
    r = run_cli(["--config", str(cfg), "--out", str(tmp_path), "planewave"])
    assert r.returncode == 0
    rows = [l for l in (tmp_path / "planewave.csv").read_text().splitlines()
            if not l.startswith("#")]
    first = rows[1].split(",")
    # beta = 0 is the origin: mu R = 1 makes psi = 1 there
    assert abs(float(first[1]) - 1.0) < 1e-12
    assert abs(float(first[2])) < 1e-12


def test_planewave_ambient_drops_singular_row(tmp_path):
    # at n = 3 the first row has sinh(beta) = cosh(beta) cos(pi/2) exactly,
    # so x.xi = 0 there
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 3\nmode = ambient\nbeta_min = 6.123233995736766e-17\n"
                   "beta_max = 1.0\nbeta_steps = 3\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "planewave"]) == 0
    text = (tmp_path / "planewave.csv").read_text()
    assert "# dropped_nodes = 1\n" in text
    betas, vals = _csv_values(tmp_path / "planewave.csv")
    assert betas.tolist() == [0.5, 1.0]
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("suite", sorted(criteria.SUITES))
def test_verify_suite_passes(tmp_path, capsys, suite):
    # in-process: the module entry point is exercised by the exit-code tests
    assert main(["--out", str(tmp_path), "verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert (tmp_path / f"verify_{suite}.csv").exists()


def test_verify_writes_criteria_rows(tmp_path):
    # the CLI suite is the criterion itself, not a copy with its own cases
    assert main(["--out", str(tmp_path), "verify", "contract"]) == 0
    lines = [l for l in (tmp_path / "verify_contract.csv").read_text()
             .splitlines() if not l.startswith("#")]
    assert lines[0] == "suite,criterion,value,target,pass"
    got = [(suite, name, float(v), float(t), p == "True")
           for suite, name, v, t, p in (l.split(",") for l in lines[1:])]
    assert got == [("contract", *row) for check in criteria.SUITES["contract"]
                   for row in check()]


def test_contract_command(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_grid = 2,3\nR_scan = 10,100,1000\n")
    r = run_cli(["--config", str(cfg), "--out", str(tmp_path), "contract"])
    assert r.returncode == 0
    assert "PASS" in r.stdout


def test_wavepacket_deterministic_across_threads(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nmu = 1.5\npath_points = 24\npath_s_min = 2.0\n"
                   "path_s_max = 40.0\ncap_theta_nodes = 8\nwindows = 2\n")
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        r = run_cli(["--config", str(cfg), "--out", str(out),
                     "--threads", threads, "--seed", "7", "wavepacket"])
        assert r.returncode == 0
        outs.append((out / "wavepacket.csv").read_bytes())
    assert outs[0] == outs[1]


def test_wavepacket_svg_plot(tmp_path):
    # --svg adds a decay plot with one point per row of nonzero |f| and
    # leaves the CSV as it is
    import xml.etree.ElementTree as ET

    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nmu = 1.5\npath_points = 24\npath_s_min = 2.0\n"
                   "path_s_max = 40.0\ncap_theta_nodes = 8\nwindows = 2\n")
    for sub, extra in (("plain", []), ("svg", ["--svg"])):
        assert main(["--config", str(cfg), "--out", str(tmp_path / sub)]
                    + extra + ["wavepacket"]) == 0
    csv = (tmp_path / "svg" / "wavepacket.csv").read_bytes()
    assert csv == (tmp_path / "plain" / "wavepacket.csv").read_bytes()
    assert not (tmp_path / "plain" / "wavepacket_decay.svg").exists()
    lines = [l for l in csv.decode().splitlines() if not l.startswith("#")]
    rows_nonzero = sum(float(l.split(",")[3]) > 0 for l in lines[1:])
    root = ET.parse(tmp_path / "svg" / "wavepacket_decay.svg").getroot()
    lines_drawn = root.findall("{http://www.w3.org/2000/svg}polyline")
    assert len(lines_drawn) == 1
    assert len(lines_drawn[0].get("points").split()) == rows_nonzero > 0


def _csv_values(path):
    """(first column, complex values from the next two) of a CLI CSV."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def test_wavepacket_cli_matches_library_points(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 3\nmu = 1.5\npath_points = 24\npath_s_min = 2.0\n"
                   "path_s_max = 40.0\ncap_theta_nodes = 6\ncap_sub_polar = 4\n"
                   "cap_sub_azimuth = 8\nwindows = 2\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "wavepacket"]) == 0
    s_col, vals = _csv_values(tmp_path / "wavepacket.csv")
    st = SpacetimeConfig(n=3, R=1.0)
    spec = transform.WavepacketSpec(
        transform.AbsoluteProfile((0.0, 0.0, 1.0), 0.35, shape=1.0),
        principal_mass(st, 1.5), n_theta=6, n_sub_polar=4, n_sub_azimuth=8)
    s_vals = np.geomspace(2.0, 40.0, 24)
    ref = np.array([transform.wavepacket_ambient(
        spec, from_hyper(st, HyperChart(float(b), (np.pi / 3,), 0.5)))
        for b in np.log(s_vals)])
    assert np.array_equal(s_col, s_vals)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3])
def test_planewave_hyper_cli_matches_psi_hyper(tmp_path, n):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n = {n}\nalpha = 1\nrho = 1.3\nm = 1\nbeta_steps = 21\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "planewave"]) == 0
    betas, vals = _csv_values(tmp_path / "planewave.csv")
    wave = HyperWave(1, 1.3, HarmonicIndex(n, 1, (1,) * (n - 2)))
    ref = np.array([psi_hyper(wave, HyperChart(float(b), (np.pi / 2,) * (n - 2),
                                               0.0)) for b in betas])
    assert np.array_equal(betas, np.linspace(-3.0, 3.0, 21))
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("bad", [
    "path_s_min = -1", "path_s_min = 0", "path_s_max = 1.0",
    "path_s_max = 2.0", "path_points = 1", "windows = 0"])
def test_wavepacket_bad_path_exit_2(tmp_path, capsys, bad):
    # a path that is empty, reversed or off the positive s axis is a
    # configuration error, not a CSV of NaN rows or a reversed fit
    cfg = tmp_path / "c.cfg"
    cfg.write_text(bad + "\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "wavepacket"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "wavepacket.csv").exists()


def test_wavepacket_no_fit_status(tmp_path):
    # 10 points over 4 windows: no window is fitted, and the CSV says so
    cfg = tmp_path / "c.cfg"
    cfg.write_text("path_points = 10\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "wavepacket"]) == 0
    text = (tmp_path / "wavepacket.csv").read_text()
    assert "# decay_status = no-fit\n" in text
    assert "# decay_slopes = \n" in text


def test_wavepacket_mu_at_threshold_exit_2(tmp_path, capsys):
    # at n = 4 the default mu = 1.5 is (n-1)/2, so mu' = 0, the pole of
    # the packet's |d(mu')|^2: the refusal names the threshold
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 4\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "wavepacket"]) == 2
    assert "mu must exceed (n-1)/(2R) = 1.5 at n = 4" in capsys.readouterr().err
    assert not (tmp_path / "wavepacket.csv").exists()


def test_main_in_process_exit_codes(tmp_path):
    assert main(["--out", str(tmp_path), "verify", "nope"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("n, ls", [(3, "1,2"), (2, "1"), (4, "2")])
def test_planewave_wrong_length_ls_exit_2(tmp_path, capsys, n, ls):
    # a non-empty ls must hold n - 2 chain labels; it is not replaced
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n = {n}\nm = 1\nls = {ls}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "planewave"]) == 2
    assert "ls needs" in capsys.readouterr().err
    assert not (tmp_path / "planewave.csv").exists()


_CSV_EDGES = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
              -5e-324, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e22, -1e22, 0.1, 1.0 / 3.0,
              1.7976931348623157e308, 2.2250738585072014e-308, 123456789.0]


@pytest.mark.parametrize("rows", [
    np.array(_CSV_EDGES[:15]).reshape(5, 3),
    np.array(_CSV_EDGES).reshape(4, 4),
    np.zeros((0, 3)),
], ids=["edges-3col", "edges-4col", "empty"])
def test_write_csv_float_path_matches_value_path(tmp_path, rows):
    # the float64 array path writes the bytes _fmt writes value by value,
    # for rows of Python floats and of numpy float64 scalars alike
    meta = {"b": 2, "a": "x"}
    header = [f"c{i}" for i in range(rows.shape[1])]
    paths = [tmp_path / name for name in ("array.csv", "floats.csv", "scalars.csv")]
    cli.write_csv(str(paths[0]), header, rows, meta)
    cli.write_csv(str(paths[1]), header, rows.tolist(), meta)
    cli.write_csv(str(paths[2]), header, [list(r) for r in rows], meta)
    data = [p.read_bytes() for p in paths]
    assert data[0] == data[1] == data[2]
    lines = data[0].decode().splitlines()
    assert lines[:3] == ["# a = x", "# b = 2", ",".join(header)]
    assert len(lines) == 3 + rows.shape[0]


def test_write_csv_float_path_in_chunks(tmp_path, monkeypatch):
    # rows split over several chunks, the last one short, keep their order
    rows = np.random.default_rng(4).standard_normal((11, 2)) * 1e3
    cli.write_csv(str(tmp_path / "one.csv"), ["x", "y"], rows, {})
    monkeypatch.setattr(cli, "_CSV_CHUNK", 4)
    cli.write_csv(str(tmp_path / "chunks.csv"), ["x", "y"], rows, {})
    cli.write_csv(str(tmp_path / "values.csv"), ["x", "y"], rows.tolist(), {})
    data = (tmp_path / "chunks.csv").read_bytes()
    assert data == (tmp_path / "one.csv").read_bytes()
    assert data == (tmp_path / "values.csv").read_bytes()


def test_main_called_again_in_process(tmp_path):
    # main reuses one parser; no option of a call reaches the next one
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nmu = 1.5\npath_points = 24\npath_s_min = 2.0\n"
                   "path_s_max = 40.0\ncap_theta_nodes = 8\nwindows = 2\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--config", str(cfg), "--out", str(first), "--svg",
                 "--seed", "5", "wavepacket"]) == 0
    assert (first / "wavepacket_decay.svg").exists()
    assert main(["--config", str(cfg), "--out", str(second), "wavepacket"]) == 0
    assert not (second / "wavepacket_decay.svg").exists()
    assert "# seed = 0\n" in (second / "wavepacket.csv").read_text()
    assert main(["--out", str(second), "verify", "contract"]) == 0
    assert (second / "verify_contract.csv").exists()
    assert main(["--out", str(second), "--threads", "two", "planewave"]) == 2
    assert main(["--out", str(second), "planewave"]) == 0
    text = (second / "planewave.csv").read_text()
    assert "# n = 2\n" in text and "# seed = 0\n" in text
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 62
    assert cli._parser() is cli._parser()

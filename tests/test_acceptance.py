"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The checks of criteria 1, 3, 4, 6, 8a, 8c and 9 live in dswave.criteria,
which `dswave verify` runs too; their tests print the measured value of
every row and assert that each row passed.  Criteria 2, 5, 7, 8b and 10
have no CLI suite and are written out here.

Criterion 8's wavepacket clause (test_criterion_8b) is asserted as stated
and fails: a sharp-mass wavepacket decays at the envelope rate (n-1)/2,
not faster.  Any fixed-mass solution decaying faster would be square
integrable, i.e. an embedded point eigenvalue in the continuous spectrum
of the wave operator, which does not exist; the oscillation of the plane
waves is logarithmic in the escape scale, so no phase cancellation
accumulates over the momentum profile.  The test is kept red as an honest
record, with the measured exponents in its output; the contrast
diagnostic limits.spectral_smearing_contrast shows the super-polynomial
trend appears exactly when the spectral parameter is smeared.  All other
criteria pass.
"""

import math
import subprocess
import sys

import numpy as np

from dswave import criteria, limits, lorentz, specfun, transform
from dswave.geometry import (HyperChart, SpacetimeConfig, from_hyper,
                             minkowski_dot)
from dswave.planewave import HyperWave, principal_mass
from dswave.specfun import HarmonicIndex, harmonic_indices
from dswave.transform import AbsoluteProfile, WavepacketSpec, wavepacket_ambient


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}", flush=True)
    return ok


def check(name: str, rows) -> bool:
    """Report a criteria row list with its measured values; True if every
    row passed."""
    return report(name, all(passed for *_, passed in rows),
                  "; ".join(f"{label}={value:.3g}" for label, value, *_ in rows))


# ---------------------------------------------------------------------- 1


def test_criterion_1_algebra_suite():
    assert check("criterion 1: algebra suite", criteria.algebra())


# ---------------------------------------------------------------------- 2


def test_criterion_2_isometry_suite():
    rng = np.random.default_rng(2024)
    n = 3
    cfg = SpacetimeConfig(n=n, R=1.3)
    worst = 0.0
    for _ in range(10_000):
        g = lorentz.random_group_word(cfg, rng, length=4)
        ch = HyperChart(rng.normal(), tuple(rng.uniform(0.1, 3.0, n - 2)),
                        rng.uniform(0, 2 * np.pi))
        x = lorentz.act(cfg, g, from_hyper(cfg, ch), check=False)
        worst = max(worst, abs(minkowski_dot(x, x) - cfg.R**2))
    ok = worst < 1e-10 * cfg.R**2
    assert report("criterion 2: isometry suite (1e4 words)", ok,
                  f"worst |x.x - R^2| = {worst:.2e}")


# ---------------------------------------------------------------------- 3


def test_criterion_3_contraction_scaling():
    assert check("criterion 3: contraction slope -1 +- 0.05",
                 criteria.contraction())


# ---------------------------------------------------------------------- 4


def test_criterion_4_wave_equation_suite():
    rows = criteria.wave_equation()
    assert sum(name.startswith("radial n=") for name, *_ in rows) >= 12
    assert check("criterion 4: wave-equation suite", rows)


# ---------------------------------------------------------------------- 5


def test_criterion_5_special_functions():
    ok = True
    # 2F1 branch agreement at the switch point over a principal-series grid:
    # the direct series against the connection formula in w = 1 - v = 0.5
    worst_branch = 0.0
    half = np.array([0.5])
    for n in (2, 3, 4):
        for l in (0, 2, 4):
            for rho in (0.5, 1.0, 2.0):
                for alpha in (1, 2):
                    w = HyperWave(alpha, rho, HarmonicIndex(
                        n, l if n == 2 else 0,
                        tuple([l] * (n - 2)) if n > 2 else ()))
                    from dswave.planewave import hyper_2f1_params
                    a, b, c = (np.array([p], dtype=complex)
                               for p in hyper_2f1_params(w))
                    f1 = specfun._series_2f1_array(a, b, c, half)[0][0, 0]
                    f2 = specfun._connection_2f1(a, b, c, half)[0][0, 0]
                    worst_branch = max(worst_branch, abs(f1 - f2) / abs(f1))
    ok &= worst_branch <= 1e-10
    # harmonic orthonormality, n in {2,3,4}, l <= 4
    worst_orth = 0.0
    for n in (2, 3, 4):
        sph = transform.SphereGrid.build(n, n_polar=26, n_azimuth=2 * 4 + 14)
        idxs = harmonic_indices(n, 4)
        G = np.stack([specfun.hypersph_Y(i, sph.phis, sph.phi) for i in idxs])
        M = (G * sph.weights) @ np.conj(G.T)
        worst_orth = max(worst_orth, float(np.max(np.abs(M - np.eye(len(idxs))))))
    ok &= worst_orth <= 1e-8
    # Gamma identities
    rng = np.random.default_rng(55)
    worst_gamma = 0.0
    for _ in range(40):
        z = complex(rng.uniform(0.1, 5.0), rng.uniform(-20, 20))
        refl = np.exp(specfun.ln_gamma(z) + specfun.ln_gamma(1 - z))
        worst_gamma = max(worst_gamma,
                          abs(refl - math.pi / np.sin(math.pi * z))
                          / abs(math.pi / np.sin(math.pi * z)))
    ok &= worst_gamma <= 1e-12
    assert report("criterion 5: special functions", ok,
                  f"branch={worst_branch:.1e} orth={worst_orth:.1e} "
                  f"gamma={worst_gamma:.1e}")


# ---------------------------------------------------------------------- 6


def test_criterion_6_appendix_d():
    assert check("criterion 6: appendix |d| oracle vs formula",
                 criteria.appendix_d())


# ---------------------------------------------------------------------- 7


def test_criterion_7_flat_limit():
    ok = True
    mu = 1.0
    scan = [10.0, 100.0, 1000.0, 10000.0]
    # deviation slope on a compact y-box, on-shell covector
    sp = np.array([0.3, 0.0])
    xi = np.concatenate([[math.hypot(*sp, mu)], sp, [mu]])
    slopes = []
    for y in ([0.7, -0.4, 0.2], [0.2, 0.5, -0.3], [1.0, 0.0, 0.8]):
        out = limits.flat_limit_deviation(3, mu, xi, np.array(y), scan)
        slopes.append(out["slope"])
        ok &= abs(out["slope"] + 1.0) < 0.15
    # exact zero at the trivial point
    xi0 = np.array([mu, 0.0, 0.0, mu])
    out0 = limits.flat_limit_deviation(3, mu, xi0, np.zeros(3), scan)
    ok &= bool(np.all(out0["deviation"] == 0.0))
    # Casimir action: eigenvalue -mu^2 and two-parameter fit stability
    cas = limits.casimir_action_limit(3, mu, xi, np.array([0.7, -0.4, 0.2]),
                                      [50.0, 200.0, 800.0],
                                      h_values=(4e-3, 2e-3))
    cas2 = limits.casimir_action_limit(3, mu, xi, np.array([0.7, -0.4, 0.2]),
                                       [100.0, 400.0, 1600.0],
                                       h_values=(4e-3, 2e-3))
    c1 = cas["fits"]["r_c"]["c_R"]
    c2 = cas2["fits"]["r_c"]["c_R"]
    ok &= abs(c1 - c2) / max(c1, c2) < 0.2
    # the combined operator residual against -mu^2 falls like 1/R: the
    # R = 800 entry sits at the fitted c_R/R + c_h2 h^2 level
    tab = {(r["R"], r["h"]): r["r_c"] for r in cas["table"]}
    ok &= tab[(800.0, 2e-3)] < 1.5 * (c1 / 800.0 + cas["fits"]["r_c"]["c_h2"] * 4e-6)
    assert report("criterion 7: flat limit", ok,
                  f"slopes={[f'{s:+.3f}' for s in slopes]}, "
                  f"fit c_R stability {abs(c1-c2)/max(c1,c2):.2%}")


# ---------------------------------------------------------------------- 8


def test_criterion_8a_single_wave_exponent():
    assert check("criterion 8a: single-wave exponent (n-1)/2 +- 0.05",
                 criteria.single_wave_exponent())


def test_criterion_8c_no_stationary_phase():
    assert check("criterion 8c: min |grad Phi| > 0",
                 criteria.no_stationary_phase())


def test_criterion_8b_wavepacket_fast_decrease():
    """Asserted exactly as stated; fails, and is kept red deliberately.

    The synthesized sharp-mass wavepacket decays at the envelope rate
    (n-1)/2: the fitted exponent settles at 1.5 at n = 4 instead of
    exceeding 2.5 and growing.  A faster-decaying fixed-mass solution
    would be square integrable on the spacetime, an embedded eigenvalue
    the wave operator does not have.  The contrast diagnostic
    limits.spectral_smearing_contrast shows the super-polynomial trend
    appears once the spectral parameter is smeared, which the sharp-mass
    definition excludes.
    """
    n = 4
    cfg = SpacetimeConfig(n=n, R=1.0)
    mass = principal_mass(cfg, 2.0)
    center = np.zeros(n)
    center[-1] = 1.0
    prof = AbsoluteProfile(tuple(center), 0.4)
    spec = WavepacketSpec(prof, mass, n_theta=16, n_sub_polar=10,
                          n_sub_azimuth=20)
    betas = np.linspace(1.0, 7.5, 150)
    pts = np.stack([from_hyper(cfg, HyperChart(float(b), (1.1, 0.6), 0.8))
                    for b in betas])
    vals, rep = wavepacket_ambient(spec, pts, full_output=True)
    fit = limits.decay_fit(np.exp(betas), vals, n_windows=4,
                           noise_floor=rep.noise_estimate, bin_width=0.8)
    exceeds = all(sl > 0.5 * (n - 1) + 1.0 for sl in fit.slopes)
    ok = exceeds and fit.non_decreasing
    report("criterion 8b: wavepacket exponent > (n-1)/2 + 1, non-decreasing",
           ok, f"slopes={[f'{s:.3f}' for s in fit.slopes]} "
               "(envelope-rate decay; see this test's docstring)")
    assert ok


# ---------------------------------------------------------------------- 9


def test_criterion_9_transform_round_trips():
    assert check("criterion 9: transform round trips",
                 criteria.transform_round_trips())


# --------------------------------------------------------------------- 10


def test_criterion_10_cli_contract(tmp_path):
    run = [sys.executable, "-m", "dswave.cli"]
    ok = True
    # exit code table
    ok &= subprocess.run(run, capture_output=True).returncode == 2
    ok &= subprocess.run(run + ["--out", str(tmp_path), "verify", "nope"],
                         capture_output=True).returncode == 2
    ok &= subprocess.run(run + ["--out", str(tmp_path), "verify", "algebra"],
                         capture_output=True).returncode == 0
    # byte-identical outputs across thread counts
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\nmu = 1.5\npath_points = 16\npath_s_min = 2.0\n"
                   "path_s_max = 30.0\ncap_theta_nodes = 8\nwindows = 2\n")
    blobs = []
    for threads, sub in (("1", "t1"), ("3", "t3")):
        out = tmp_path / sub
        r = subprocess.run(run + ["--config", str(cfg), "--out", str(out),
                                  "--threads", threads, "--seed", "11",
                                  "wavepacket"], capture_output=True)
        ok &= r.returncode == 0
        blobs.append((out / "wavepacket.csv").read_bytes())
    ok &= blobs[0] == blobs[1]
    assert report("criterion 10: CLI contract", ok)

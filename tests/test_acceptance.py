"""End-to-end acceptance checks, one test per criterion.

Each test drives the shipped public surfaces at locked configurations and
asserts the stated tolerance, printing the measured numbers.  Heavy
experiments (lifespan ladders, field recording) run at the sizes the
package documents, so this module dominates the suite's wall time.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import gamma as gamma_fn

from dampedwave import exponents, harness, testfunc
from dampedwave.accel import DELTA
from dampedwave.bump import RadialBump, power, required_power
from dampedwave.dispersion import khat, kprimehat, propagate_linear
from dampedwave.grid import Grid, SpectralField, forward_transform
from dampedwave.norms import (
    divergence_probe,
    hdotneg_norm,
    hs_norm,
    lp_norm,
    seminorm_hs,
)
from dampedwave.profiles import (
    DataPair,
    assemble_pair,
    laplacian_gaussian,
    log_profile,
)
from dampedwave.solver import SimConfig, run


def _sinh_form(t: float, xi2: float) -> float:
    d = 0.25 - xi2
    r = math.sqrt(abs(d))
    if d > 0.0:
        return math.exp(-t / 2.0) * math.sinh(t * r) / r
    if d < 0.0:
        return math.exp(-t / 2.0) * math.sin(t * r) / r
    return t * math.exp(-t / 2.0)


def test_c01_kernel_identities_and_branch_continuity():
    # frozen spot values of the oscillatory branch
    assert khat(1.0, 1.0) == pytest.approx(0.533507195114693, rel=1e-13)
    assert kprimehat(1.0, 1.0) == pytest.approx(0.12619295827700872, rel=1e-13)
    # endpoint identities
    xi2 = np.concatenate([np.linspace(0.0, 0.2, 7), np.linspace(0.3, 50.0, 7)])
    assert np.max(np.abs(khat(0.0, xi2))) <= 1e-14
    assert np.max(np.abs(kprimehat(0.0, xi2) - 1.0)) <= 1e-14
    assert khat(2.5, 0.0) == pytest.approx(1.0 - math.exp(-2.5), rel=1e-12)
    # one mode solves khat'' + khat' + xi2 khat = 0 (centred differences)
    h = 1e-4
    for x2 in (0.03, 0.25, 0.2499, 7.0):
        k0, km, kp = khat(1.0, x2), khat(1.0 - h, x2), khat(1.0 + h, x2)
        resid = (kp - 2.0 * k0 + km) / (h * h) + (kp - km) / (2.0 * h) + x2 * k0
        assert abs(resid) < 1e-5
    # bounded by t, finite for large t
    for t in (0.5, 3.0, 5000.0):
        vals = khat(t, xi2)
        assert np.all(np.isfinite(vals)) and np.max(np.abs(vals)) <= t * (1 + 1e-12)
    # at 1/4 +- 1e-6 the series evaluation matches the closed forms
    worst = 0.0
    for t in (1.0, 10.0):
        for x2 in (0.25 - 1e-6, 0.25 + 1e-6):
            diff = abs(khat(t, x2) - _sinh_form(t, x2))
            worst = max(worst, diff)
            assert diff < 1e-9
    # dispatcher handoff at the series-window edges is seamless
    for t in (1.0, 10.0):
        for edge in (0.25 - DELTA, 0.25 + DELTA):
            inner = khat(t, edge - 1e-12) - khat(t, edge + 1e-12)
            assert abs(inner) < 1e-9
    spread = abs(khat(1.0, 0.25 - 1e-6) - khat(1.0, 0.25 + 1e-6))
    print(
        f"c01: series-vs-closed-form {worst:.3e}; smooth variation across "
        f"the 2e-6 window {spread:.3e} (kernel slope, not a branch artifact)"
    )


def test_c02_linear_stepping_matches_exact_propagator():
    g = Grid(1, 256, 16.0)
    field = forward_transform(g, np.exp(-g.x_axis**2))
    pair = assemble_pair(field, 1.0)
    dt, n = 0.01, 1000
    traj = run(SimConfig(data=pair, p=2.0, dt=dt, t_max=n * dt, nonlinear=False,
                         record_every=n, record_fields_every=n))
    assert traj.field_times[-1] == pytest.approx(n * dt, abs=1e-12)
    uex = propagate_linear(pair.u0, pair.u1, n * dt)[0].physical()
    err = np.max(np.abs(traj.field_snapshots[-1] - uex)) / np.max(np.abs(uex))
    print(f"c02: linear step error at t=10 is {err:.3e}")
    assert err < 1e-8


@pytest.mark.parametrize("p,horizon", [(1.5, 2.0), (2.0, 1.5), (3.0, 1.2)])
def test_c03_ode_oracle_and_convergence_order(p, horizon):
    g = Grid(1, 8, 4.0)
    u0c = forward_transform(g, np.full(g.shape, 1.0))
    u1c = forward_transform(g, np.full(g.shape, 0.5))
    pair = DataPair(u0=u0c, u1=u1c, eps=1.0)

    def rhs(t, y):
        return [y[1], -y[1] + abs(y[0]) ** p]

    sol = solve_ivp(
        rhs, (0.0, horizon + 0.1), [1.0, 0.5], method="DOP853",
        rtol=1e-12, atol=1e-14, dense_output=True,
    ).sol

    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = run(SimConfig(data=pair, p=p, dt=dt, t_max=horizon))
        # compare at the step the run actually landed on
        errs.append(abs(traj.linf[-1] - sol(traj.times[-1])[0]))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    rel = errs[-1] / abs(sol(horizon)[0])
    print(f"c03 p={p}: orders {orders[0]:.3f}/{orders[1]:.3f}, rel err {rel:.2e}")
    for q in orders:
        assert 1.7 < q < 2.3
    assert rel < 1e-3


def test_c04_gaussian_norm_oracles_and_divergence_flag():
    g = Grid(1, 1024, 30.0)
    fld = forward_transform(g, np.exp(-g.x_axis**2 / 2.0))
    l2 = lp_norm(fld, 2.0)
    h1 = hs_norm(fld, 1.0)
    semi = seminorm_hs(fld, 1.0)
    assert l2 == pytest.approx(math.pi**0.25, rel=1e-10)
    assert h1 == pytest.approx(math.sqrt(1.5 * math.sqrt(math.pi)), rel=1e-10)
    assert semi == pytest.approx(math.sqrt(0.5 * math.sqrt(math.pi)), rel=1e-10)

    gq = Grid(1, 4096, 40.0)
    fq = forward_transform(gq, np.exp(-gq.x_axis**2 / 2.0))
    target = math.sqrt(gamma_fn(0.25))
    got = hdotneg_norm(fq, 0.25, "exclude")
    rel = abs(got - target) / target
    print(f"c04: quarter-weight norm {got:.7f} vs {target:.7f} (rel {rel:.2e})")
    assert rel < 0.01

    def build(grid: Grid) -> SpectralField:
        return forward_transform(grid, np.exp(-grid.x_axis**2 / 2.0))

    vals75, flag75 = divergence_probe(build, Grid(1, 1024, 20.0), 0.75)
    vals25, flag25 = divergence_probe(build, Grid(1, 1024, 20.0), 0.25)
    print(f"c04: probe gamma=0.75 {vals75} flag={flag75}; 0.25 flag={flag25}")
    assert flag75 and not flag25


def test_c05_embedding_constant_is_uniform_and_stable():
    rng = np.random.default_rng(2026)
    params = [
        (rng.uniform(-1, 1, 3), rng.uniform(0.5, 3.0, 3), rng.uniform(0.05, 0.5, 3))
        for _ in range(100)
    ]

    def field_on(grid: Grid, amps, freqs, widths) -> SpectralField:
        x = grid.x_axis
        f = np.zeros_like(x)
        for a, b, c in zip(amps, freqs, widths):
            f += a * np.cos(b * x) * np.exp(-c * x * x)
        return forward_transform(grid, f)

    ratios = {}
    for label, grid in (("coarse", Grid(1, 256, 24.0)), ("fine", Grid(1, 512, 48.0))):
        worst = 0.0
        for amps, freqs, widths in params:
            # the inclusion's norm comparison: weaker weight over stronger
            fld = field_on(grid, amps, freqs, widths)
            base = hs_norm(fld, 1.0)
            ratio = (base + hdotneg_norm(fld, 0.25, "exclude")) / (
                base + hdotneg_norm(fld, 0.5, "exclude"))
            worst = max(worst, ratio)
        ratios[label] = worst
    drift = abs(ratios["fine"] - ratios["coarse"]) / ratios["fine"]
    print(f"c05: C_coarse={ratios['coarse']:.4f} C_fine={ratios['fine']:.4f} "
          f"drift {drift:.2%}")
    assert ratios["fine"] <= 2.0
    assert drift <= 0.10


def test_c06_profile_memberships_are_sharp():
    base = Grid(1, 512, 64.0)
    log_vals, log_flag = divergence_probe(
        lambda g: log_profile(g, 0.5), base, 0.5, policy="require_zero"
    )
    strong_vals, strong_flag = divergence_probe(
        lambda g: log_profile(g, 0.5), base, 1.25, policy="require_zero"
    )
    print(f"c06: log profile at own weight {log_vals} flag={log_flag}; "
          f"stronger weight {strong_vals} flag={strong_flag}")
    assert not log_flag
    assert strong_flag

    lg = laplacian_gaussian(base, 1)
    assert abs(lg.coeffs[0]) == 0.0
    lg_vals, lg_flag = divergence_probe(
        lambda g: laplacian_gaussian(g, 1), base, 1.0, policy="require_zero"
    )
    print(f"c06: derivative-family probe {lg_vals} flag={lg_flag}")
    assert not lg_flag


def test_c07_bump_certification_and_counterexample():
    res = harness.run_bump_check({"shifted_center": 0.8})
    s = res["summary"]
    print(
        f"c07: nonneg={s['base']['nonneg_ok']} fourier={s['base']['fourier_ok']} "
        f"monotone={s['base']['monotone_ok']} "
        f"transform residual {s['transform_identity_residual']:.2e} "
        f"shifted monotone={s['shifted']['monotone_ok']}"
    )
    assert res["check"]["passed"]
    assert s["base"]["nonneg_ok"] and s["base"]["fourier_ok"] and s["base"]["monotone_ok"]
    assert s["transform_identity_residual"] < 1e-10
    assert not s["shifted"]["monotone_ok"]
    assert required_power(2.0) == 5
    assert required_power(3.0) == 4
    assert required_power(5.0) == 3


def test_c08_linear_decay_rates():
    t0 = time.perf_counter()
    res = harness.run_decay(
        {
            "grid": {"dim": 1, "size": 4096, "half_length": 3200.0},
            "profile": {"family": "power", "gamma": 0.5},
            "times": {"start": 100.0, "ratio": 2.0, "count": 5},
            "s": 1.0,
            "check": {"l2_tol": 0.05, "seminorm_tol": 0.1},
        }
    )
    el = time.perf_counter() - t0
    s = res["summary"]
    print(
        f"c08: l2 slope {s['l2_fit']['slope']:.4f} (target -0.25 +- 0.05), "
        f"seminorm slope {s['seminorm_fit']['slope']:.4f} (target -0.75 +- 0.10), "
        f"{el:.1f}s"
    )
    assert res["check"]["passed"], res["check"]["details"]
    assert el < 120.0


def test_c09a_small_data_global_existence():
    t0 = time.perf_counter()
    res = harness.run_simulate(
        {
            "grid": {"dim": 1, "size": 1024, "half_length": 128.0},
            "profile": {"family": "log", "gamma": 0.5},
            "eps": 1e-3,
            "p": 3.5,
            "dt": 0.03125,
            "t_max": 500.0,
            "record_every": 320,
            "check": {"expect_outcome": "survived", "l2_decreasing_factor": 0.5},
        }
    )
    el = time.perf_counter() - t0
    s = res["summary"]
    factor = res["check"]["details"]["l2_last_over_first"]
    print(f"c09a: outcome={s['outcome']} l2 ratio {factor:.4f}, {el:.1f}s")
    assert res["check"]["passed"]
    assert el < 120.0


def test_c09b_blowup_detection_is_threshold_insensitive():
    t0 = time.perf_counter()
    base = {
        "grid": {"dim": 1, "size": 256, "half_length": 32.0},
        "profile": {"family": "laplacian_gaussian", "k": 1},
        "eps": 0.5,
        "p": 2.0,
        "dt": 0.02,
        "t_max": 60.0,
        "record_every": 50,
        "check": {"expect_outcome": "blewup"},
    }
    lo = harness.run_simulate({**base, "blowup_threshold": 1e6})
    hi = harness.run_simulate({**base, "blowup_threshold": 1e12})
    el = time.perf_counter() - t0
    tb_lo, tb_hi = lo["summary"]["t_blowup"], hi["summary"]["t_blowup"]
    shift = abs(tb_hi - tb_lo)
    print(f"c09b: t_b {tb_lo:.4f} (1e6) vs {tb_hi:.4f} (1e12), shift {shift:.4f} "
          f"< {2 * base['dt']:.4f}, {el:.1f}s")
    assert lo["check"]["passed"] and hi["check"]["passed"]
    assert shift < 2.0 * base["dt"]
    assert el < 120.0


def test_c10_lifespan_scaling_below_threshold():
    t0 = time.perf_counter()
    res = harness.run_lifespan(
        {
            "grid": {"dim": 1, "size": 4096, "half_length": 512.0},
            "profile": {"family": "power", "gamma": 0.25, "scale": 0.0625},
            "p": 2.0,
            "eps_values": [0.4, 0.282842712474619, 0.2, 0.1414213562373095, 0.1],
            "dt": 0.03125,
            "t_cap": 2000.0,
            "check": {"rel_tol": 0.2, "min_uncensored": 5},
        }
    )
    el = time.perf_counter() - t0
    s = res["summary"]
    print(
        f"c10: measured exponent {s['measured_exponent']:.4f} vs predicted "
        f"{s['predicted']['a_combined']:.4f} (rel tol 20%), "
        f"censored {s['n_censored']}, {el:.1f}s"
    )
    assert res["check"]["passed"], res["check"]["details"]
    assert el < 600.0


def test_c11_lifespan_bounded_by_unweighted_prediction():
    t0 = time.perf_counter()
    res = harness.run_lifespan(
        {
            "grid": {"dim": 1, "size": 2048, "half_length": 256.0},
            "profile": {"family": "power", "gamma": 1.0},
            "p": 2.0,
            "eps_values": [0.4, 0.282842712474619, 0.2, 0.1414213562373095, 0.1],
            "dt": 0.03125,
            "t_cap": 600.0,
            "check": {"max_slope": 4.3, "min_uncensored": 3},
        }
    )
    el = time.perf_counter() - t0
    s = res["summary"]
    print(
        f"c11: measured exponent {s['measured_exponent']:.4f} <= 4.3 "
        f"(prediction 4.0 + slack), censored {s['n_censored']}, {el:.1f}s"
    )
    assert res["check"]["passed"], res["check"]["details"]
    assert el < 300.0


def test_c12_weak_solution_bounds_on_recorded_fields(tmp_path):
    t0 = time.perf_counter()
    sim = harness.run_simulate(
        {
            "grid": {"dim": 1, "size": 1024, "half_length": 128.0},
            "profile": {"family": "power", "gamma": 0.25},
            "eps": 0.03,
            "p": 2.0,
            "dt": 0.03125,
            "t_max": 150.0,
            "record_every": 32,
            "record_fields_every": 2,
        }
    )
    assert sim["summary"]["outcome"] == "blewup"
    assert sim["summary"]["t_blowup"] > 64.0  # cutoff window for R=8 closes first
    paths = harness.emit_outputs(sim, str(tmp_path))
    npz = [p for p in paths if p.endswith("fields.npz")][0]

    res = harness.run_testfunc(
        {
            "fields": npz,
            "R_values": [2.0, 4.0, 8.0],
            "check": {"min_margin": 0.0, "max_identity_rel": 0.1},
        }
    )
    for row in res["rows"]:
        print(
            f"c12: R={row['R']:g} margin_holder={row['margin_holder']:.3e} "
            f"margin_absorbed={row['margin_absorbed']:.3e} "
            f"identity_rel={row['identity_rel']:.2e}"
        )
    assert res["check"]["passed"], res["rows"]
    assert res["summary"]["weight_rel_change"] < 0.01

    # data pairing follows the predicted dilation power up to a bounded band
    g = Grid(1, 1024, 128.0)
    pair, _ = harness.build_pair(g, {"family": "power", "gamma": 0.25}, 0.03)
    bump = power(RadialBump(1), 5)
    band = []
    for R in (4.0, 8.0, 16.0, 32.0):
        val = testfunc.pairing(pair, testfunc.spatial_factors(bump, R, g)[0])
        band.append(val / R**0.25)
    ratio = max(band) / min(band)
    el = time.perf_counter() - t0
    print(f"c12: pairing band {['%.3e' % b for b in band]} max/min {ratio:.2f}, "
          f"{el:.1f}s")
    assert ratio <= 4.0
    assert el < 600.0


def test_c13_exponent_identities_and_independent_raster():
    for n in range(1, 7):
        assert exponents.crit(n, n / 2.0) == pytest.approx(
            exponents.fujita(n), rel=1e-14
        )
    for n, g in ((1, 0.4), (2, 1.0), (3, 0.7)):
        assert exponents.crit_conjugate(n, g) == pytest.approx(
            exponents.conjugate(exponents.crit(n, g)), rel=1e-14
        )
    t1 = exponents.thm_thresholds(1)
    assert (t1.gamma_min, t1.p_min) == (0.5, 3.0)
    t2 = exponents.thm_thresholds(2)
    assert (t2.gamma_min, t2.p_min) == (1.0, 2.0)
    assert exponents.lifespan_exponents(1, 1.0, 2.0).a_combined == pytest.approx(4.0)
    assert exponents.lifespan_exponents(1, 0.25, 2.0).a_combined == pytest.approx(1.6)
    assert exponents.lifespan_exponents(2, 2.0, 1.25).a_combined == pytest.approx(0.4)

    def independent_verdict(n, g, p, s):
        root = math.sqrt(n * n + 16.0 * n)
        gmin = min(n / 2.0, (root - n) / 4.0)
        pmin = max(1.0 + 2.0 / n, (root + n) / (2.0 * n))
        pc = 1.0 + 4.0 / (n + 2.0 * g)
        pf = 1.0 + 2.0 / n
        cap_ok = n <= 2.0 * s or p <= n / (n - 2.0 * s)
        if g >= gmin and p > pmin and cap_ok:
            return "GlobalLargeGamma"
        if g < n / 2.0 and p > pc and p >= 1.0 + 2.0 * g / n and cap_ok:
            return "GlobalSupercritical"
        if g < n / 2.0 and p == pc:
            return "GlobalCritical"
        if p < pc:
            return "BlowupSubcritical"
        if p < pf:
            return "BlowupSubfujita"
        return "Unknown"

    gammas = [0.2 + 0.15 * j for j in range(8)]
    ps = [1.55 + 0.4 * i for i in range(8)]
    mismatches = 0
    for n, s in ((1, 1.0), (2, 1.0), (3, 0.9)):
        rows = exponents.atlas_raster(n, s, gammas, ps)
        for g, p, verdict in rows:
            if verdict != independent_verdict(n, g, p, s):
                mismatches += 1
    print(f"c13: 192 raster points re-derived independently, {mismatches} mismatches")
    assert mismatches == 0

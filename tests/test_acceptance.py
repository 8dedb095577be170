"""Acceptance suite: one test per criterion, at desk scale.

Expensive artifacts (the preset solve, ladders, simulations) are shared
module-scoped fixtures; each test prints a PASS/FAIL line with the
measured numbers.
"""

import time

import numpy as np
import pytest

from hypokin import fpsolver as fp
from hypokin import kolmogorov as kg
from hypokin import mckean as mk
from hypokin import semigroup as sg
from hypokin import spectral as sp
from hypokin.fields import GridField, TimeField
from hypokin.scenario import load_scenario, preset_path


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(preset_path("kinetic-langevin"))


@pytest.fixture(scope="module")
def model(scenario):
    return scenario.build_model()


@pytest.fixture(scope="module")
def grid(scenario, model):
    return scenario.build_grid(model)


@pytest.fixture(scope="module")
def u0(scenario, grid):
    return scenario.build_u0(grid)


@pytest.fixture(scope="module")
def drift(scenario, grid):
    return scenario.build_drift(grid)          # raw: the paper's drift


@pytest.fixture(scope="module")
def nonlin(scenario):
    return scenario.nonlinearity()


@pytest.fixture(scope="module")
def fp_problem(scenario, model, u0, drift):
    return fp.FPProblem(model=model, b=drift, u0=u0,
                        beta=scenario["drift.beta"],
                        epsilon=scenario["fp.epsilon"], T=scenario["run.T"])


@pytest.fixture(scope="module")
def fp_solution(scenario, fp_problem, nonlin):
    start = time.monotonic()
    sol = fp.solve_fp(fp_problem, nonlin, scenario.fp_config())
    return sol, time.monotonic() - start


def test_criterion_1_reconstruction(grid):
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        f = sp.random_smooth_field(grid, seed, decay=1.0 + 0.1 * (seed % 5))
        rec = sum(s.values for s in sp.lp_decompose(f))
        worst = max(worst, np.max(np.abs(rec - f.values)) / f.sup_norm())
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"reconstruction rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_bernstein(grid_xfine):
    from test_spectral import fitted_gain_exponents

    slopes = fitted_gain_exponents(grid_xfine)
    ok = abs(slopes[0] - 1.0) <= 0.1 and abs(slopes[1] - 3.0) <= 0.3
    report(2, ok, f"derivative-gain exponents {slopes[0]:.3f} (want 1), "
                  f"{slopes[1]:.3f} (want 3)")


def test_criterion_3_covariance(model):
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        ref = np.array([[t, t ** 2 / 2], [t ** 2 / 2, t ** 3 / 3]])
        C = sg.covariance(model, t)
        worst = max(worst, np.max(np.abs(C - ref)) / np.max(np.abs(ref)))
    ok = worst < 1e-10
    report(3, ok, f"covariance rel err {worst:.2e}")


def test_criterion_4_law_and_duality(model, grid):
    worst_law, worst_dual = 0.0, 0.0
    pairs = [(sp.random_localized_field(grid, 2 * k, decay=2.5, width=0.12),
              sp.random_localized_field(grid, 2 * k + 1, decay=2.5, width=0.12))
             for k in range(10)]
    times = [(0.05, 0.03), (0.04, 0.04), (0.02, 0.06), (0.03, 0.05),
             (0.06, 0.02)] * 2
    prop = sg.Propagator(model, grid)
    for (f, g), (s, t) in zip(pairs, times):
        one = prop.apply_Pprime(t, prop.apply_Pprime(s, f))
        two = prop.apply_Pprime(s + t, f)
        worst_law = max(worst_law,
                        np.max(np.abs(one.values - two.values))
                        / two.sup_norm())
        cv = grid.cell_volume
        lhs = float(np.sum(prop.apply_P(s + t, f).values
                           * g.values) * cv)
        rhs = float(np.sum(f.values
                           * prop.apply_Pprime(s + t, g).values) * cv)
        worst_dual = max(worst_dual, abs(lhs - rhs) / abs(lhs))
    ok = worst_law < 1e-8 and worst_dual < 1e-8
    report(4, ok, f"semigroup law {worst_law:.2e}, duality {worst_dual:.2e}")


def test_criterion_5_schauder(model, grid):
    start = time.monotonic()
    gamma, alpha = -0.4, 1.2
    fields = [sp.synthesize_besov_field(-gamma, 30 + k, grid,
                                        modes_per_shell=8, window=True)
              for k in range(6)]
    t_list = np.geomspace(1e-3, 1e-1, 9)
    rep = sg.schauder_probe(model, gamma, alpha, t_list, fields)
    elapsed = time.monotonic() - start
    slope = rep.slopes["Pprime"]
    spread = rep.ratio_spread["Pprime"]
    ok = -0.72 <= slope <= -0.48 and spread <= 5.0 and elapsed < 120.0
    report(5, ok, f"smoothing slope {slope:.3f} (band [-0.72, -0.48]), "
                  f"ratio spread {spread:.2f}, {elapsed:.0f}s")


def test_criterion_6_kernel_decay(model, grid):
    rep = sg.kernel_block_decay(model, grid, t_list=[0.0625, 0.25],
                                j_list=list(range(0, grid.J_max + 1)))
    ok = rep.exponent >= 1.0
    report(6, ok, f"shell decay exponent {rep.exponent:.2f} "
                  f"(slope {-rep.exponent:.2f} <= -1) on t*4^j in {rep.window}")


def test_criterion_7_picard(scenario, fp_problem, nonlin, fp_solution):
    # the marched solve is read through its cold-start Picard certificate,
    # which raises NoConvergence if Picard misses the tolerance or its
    # limit lies beyond the a-posteriori bound from the march
    sol, elapsed = fp_solution
    start = time.monotonic()
    cert = fp.fp_certificate(fp_problem, nonlin, sol, scenario.fp_config())
    elapsed += time.monotonic() - start
    ok = (cert.contraction <= 0.9
          and cert.iterations <= 30
          and cert.increments[-1] < 1e-8
          and elapsed < 300.0)
    report(7, ok, f"contraction {cert.contraction:.3f}, "
                  f"{cert.iterations} iterations, final increment "
                  f"{cert.increments[-1]:.1e}, distance from the march "
                  f"{cert.distance:.1e} <= bound {cert.bound:.1e} (ratio "
                  f"{cert.distance / cert.bound:.2f}), solve residual "
                  f"{sol.increments[-1]:.1e}, {elapsed:.0f}s")


def test_criterion_8_conservation(fp_solution):
    sol, _ = fp_solution
    rep = fp.conservation_report(sol.u)
    mass_dev = max(abs(m - 1.0) for m in rep.mass)
    min_val = min(rep.min_value)
    ok = mass_dev <= 1e-3 and min_val >= -1e-3
    report(8, ok, f"mass within {mass_dev:.1e} of 1, min value {min_val:.1e}")


@pytest.fixture(scope="module")
def stability_ladder(scenario, model, u0, drift, nonlin, fp_solution):
    """Rungs n = 4, 16, 64 of the mollified problems: the distances
    sup_t ||u_n - u||_(beta+eps) and sup_t ||b_n - b||_(-beta-eta) to the
    raw drift b and its solution u, with b_n the level-n mollification of
    b.  One rung's drift and solution are alive at a time."""
    u = fp_solution[0].u
    beta, eps = scenario["drift.beta"], scenario["fp.epsilon"]
    eta = min(eps, 1.0 - 2.0 * beta - eps)
    ns = (4, 16, 64)
    diffs, drift_diffs = [], []
    for n in ns:
        bn = sp.mollify_time_field(drift, n)
        drift_diffs.append(sp.besov_norm(
            (a - b for a, b in zip(bn.fields, drift.fields)), -beta - eta))
        problem = fp.FPProblem(model=model, b=bn, u0=u0, beta=beta,
                               epsilon=eps, T=scenario["run.T"])
        un = fp.solve_fp(problem, nonlin, scenario.fp_config()).u
        del bn, problem
        diffs.append(sp.besov_norm(
            (a - b for a, b in zip(un.fields, u.fields)), beta + eps))
        del un
    return ns, diffs, drift_diffs


def test_criterion_9_stability(stability_ladder):
    # The stability estimate bounds ||u_n - u||_(beta+eps) by
    # C ||b_n - b||_(-beta-eta), u the solution on the raw drift b and u_n
    # the one on its level-n mollification b_n, so u is their limit.
    # Checked: one constant C along the rungs, and the decay order.
    ns, diffs, drift_diffs = stability_ladder
    ratios = [d / db for d, db in zip(diffs, drift_diffs)]
    spread = max(ratios) / min(ratios)
    slope_u = -np.polyfit(np.log(ns), np.log(diffs), 1)[0]
    slope_b = -np.polyfit(np.log(ns), np.log(drift_diffs), 1)[0]
    ok = spread <= 2.0 and abs(slope_u - slope_b) <= 0.3 * slope_b
    report(9, ok, f"distances to the raw solve {['%.4f' % d for d in diffs]}"
                  f", drift distances {['%.4f' % d for d in drift_diffs]}, "
                  f"ratios {['%.3f' % r for r in ratios]} spread "
                  f"{spread:.2f} (<= 2), decay order {slope_u:.2f} vs "
                  f"mollification rate {slope_b:.2f}")


def test_criterion_10_duality(scenario, model, grid, u0):
    T, n_t = 0.5, 65
    zero = GridField(grid, np.zeros(grid.shape + (1,)))
    ztf = TimeField(t0=0.0, t1=T, fields=(zero,) * n_t)
    ell = sp.random_localized_field(grid, 77, decay=2.5, width=0.15)
    fwd_prob = fp.FPProblem(model=model, b=ztf, u0=u0, beta=0.3,
                            epsilon=0.2, T=T)
    fwd = fp.solve_fp(fwd_prob, fp.bounded_rational_nonlinearity(),
                      fp.SolverConfig())
    bwd_prob = kg.BackwardProblem(model=model, Bc=ztf, g=None, ell=ell,
                                  lam=0.0, beta=0.3, epsilon=0.2)
    bwd = kg.solve_kolmogorov(bwd_prob)
    cv = grid.cell_volume
    lhs = float(np.sum(fwd.u.at_index(n_t - 1).values * ell.values) * cv)
    rhs = float(np.sum(u0.values * bwd.u.at_index(0).values) * cv)
    rel = abs(lhs - rhs) / abs(lhs)
    ok = rel < 1e-6
    report(10, ok, f"forward/backward pairing rel err {rel:.2e}")


@pytest.fixture(scope="module")
def zvonkin_ladder(scenario, model, grid, drift):
    problem = kg.BackwardProblem.zvonkin(
        model, drift, lam=1.0, beta=scenario["drift.beta"],
        epsilon=scenario["fp.epsilon"])
    return kg.lambda_bar_search(problem, scenario.backward_config(),
                                require_gradient=True)


def test_criterion_11_zvonkin(zvonkin_ladder, grid):
    ladder = zvonkin_ladder
    maps = kg.zvonkin_phi(ladder.solution.u, grad_bound=ladder.grad_sup)
    rng = np.random.default_rng(123)
    pts = rng.uniform(-0.9, 0.9, (1000, 2)) * grid.half_extents
    worst_rt, worst_contr = 0.0, 0.0
    for t in (maps.u.times[0], maps.u.times[63], maps.u.times[127]):
        inv, contr = maps.psi(t, pts)
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(maps.phi(t, inv) - pts))))
        worst_contr = max(worst_contr, contr)
    ok = (ladder.achieved_norm <= 0.5 and worst_rt <= 1e-8
          and worst_contr <= 0.55)
    report(11, ok, f"lambda_bar={ladder.lam:g}, norm {ladder.achieved_norm:.3f}"
                   f" <= 1/2, roundtrip {worst_rt:.1e}, "
                   f"inverse contraction {worst_contr:.2f}")


def test_criterion_12_simulation_exactness(model):
    start = time.monotonic()
    ens = mk.ParticleEnsemble(states=np.zeros((100_000, 2)), t=0.0,
                              dt=1e-3, seed=2024, box=None)
    ens = mk.simulate(ens, model, None, T=1.0, checkpoints=(0.25, 1.0),
                      dt=1e-3)
    worst = 0.0
    for t in (0.25, 1.0):
        emp = np.cov(ens.record_at(t).T)
        C = sg.covariance(model, t)
        worst = max(worst, float(np.max(np.abs(emp - C) / np.abs(C))))
    elapsed = time.monotonic() - start
    ok = worst < 0.05 and elapsed < 120.0
    report(12, ok, f"drift-free covariance rel err {worst:.3f} "
                   f"(<5%), {elapsed:.0f}s")


def test_criterion_13_marginals(scenario, model, drift, nonlin, fp_solution):
    sol, _ = fp_solution
    start = time.monotonic()
    frozen = mk.frozen_drift(sol.u, drift, nonlin)
    rep_full = mk.validate_marginals(model, sol.u, frozen,
                                     M=100_000, seed=31,
                                     checkpoints=(0.25, 0.5, 1.0), dt=1e-3)
    rep_quarter = mk.validate_marginals(model, sol.u, frozen,
                                        M=25_000, seed=32,
                                        checkpoints=(0.25, 0.5, 1.0), dt=1e-3)
    elapsed = time.monotonic() - start
    worst = max(rep_full.distances)
    decreasing = all(a < b for a, b in
                     zip(rep_full.distances, rep_quarter.distances))
    ok = worst <= 0.1 and decreasing and elapsed < 600.0
    report(13, ok, f"L1 distances {['%.3f' % d for d in rep_full.distances]}"
                   f" (<=0.1), smaller than at M/4 {decreasing}, {elapsed:.0f}s")


def test_criterion_14_martingale(scenario, model, grid, drift, nonlin,
                                 fp_solution):
    sol, _ = fp_solution
    frozen = mk.frozen_drift(sol.u, drift, nonlin)
    times = sol.u.times
    mesh_of = lambda t: float(times[np.argmin(np.abs(times - t))])
    windows = [(mesh_of(0.25), mesh_of(0.5)), (mesh_of(0.5), mesh_of(1.0))]
    g_list = [TimeField(t0=0.0, t1=1.0, fields=(sp.random_localized_field(
        grid, 100 + k, decay=2.0, width=0.2),) * sol.u.n_t) for k in range(3)]
    # solved on demand: one preset backward solution alive at a time
    u_list = (kg.solve_kolmogorov(kg.BackwardProblem(
        model=model, Bc=frozen, g=gsrc, ell=None, lam=0.0,
        beta=scenario["drift.beta"], epsilon=scenario["fp.epsilon"])).u
        for gsrc in g_list)
    rep, ctrl = mk.martingale_test(model, frozen, u_list, g_list,
                                   sol.u.at_index(0), M=20_000, seed=500,
                                   windows=windows, dt=1e-3)
    panel = rep.rows[:20]
    above = sum(1 for r in panel if abs(r.z) > 3.0)
    ctrl_max = ctrl.max_abs_z()
    ok = above <= 1 and ctrl_max > 5.0
    zs = [round(abs(r.z), 2) for r in panel]
    report(14, ok, f"panel |z| {zs}: {above} above 3 (allow 1); "
                   f"fault control max |z| {ctrl_max:.1f} > 5")

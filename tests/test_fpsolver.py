import resource
from dataclasses import replace

import numpy as np
import pytest

import hypokin
from hypokin.errors import NoConvergence, NotADensity
from hypokin.fields import AnisoGrid, GridField, TimeField
from hypokin import fpsolver as fp
from hypokin.semigroup import Propagator
from hypokin import spectral as sp


def zero_drift(grid, T, n_t, channels=1):
    zero = GridField(grid, np.zeros(grid.shape + (channels,)))
    return TimeField(t0=0.0, t1=T, fields=(zero,) * n_t)


def synth_drift(grid, T, n_t, seed=42, amplitude=0.3, mollify=8):
    times = np.linspace(0.0, T, n_t)
    b = sp.synthesize_besov_field(0.3, seed, grid, time_mesh=times,
                                  amplitude=amplitude, window=True)
    return sp.mollify_time_field(b, mollify) if mollify else b


@pytest.fixture(scope="module")
def small_problem(kinetic, grid128, u0_128):
    T, n_t = 1.0, 64
    b = synth_drift(grid128, T, n_t)
    return fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                        epsilon=0.2, T=T)


@pytest.fixture(scope="module")
def small_solution(small_problem):
    return fp.solve_fp(small_problem, fp.bounded_rational_nonlinearity())


# --- nonlinearities ---------------------------------------------------------------

def test_nonlinearity_bounds():
    for maker in (fp.bounded_rational_nonlinearity, fp.constant_nonlinearity):
        rep = maker().validate()
        for label in ("F", "Ftilde"):
            assert np.isfinite(rep[label]["sup_deriv"])
            assert np.isfinite(rep[label]["lip_deriv"])


def test_nonlinearity_values():
    nl = fp.bounded_rational_nonlinearity()
    s = np.array([0.0, 1.0, 2.0])
    assert np.allclose(nl(s), 1.0 / (1.0 + s ** 2))
    assert np.allclose(nl.tilde(s), s / (1.0 + s ** 2))


def test_composition_bound_stable(kinetic):
    # || Ftilde(f) - Ftilde(g) ||_a <= C (1 + ||f||_a + ||g||_a) ||f-g||_a
    # with one fitted C stable across grid resolutions
    from hypokin.fields import AnisoGrid
    nl = fp.bounded_rational_nonlinearity()
    alpha = 0.5
    cs = []
    for n in (64, 128, 256):
        grid = AnisoGrid.build(kinetic.blocks, [n, n])
        c_grid = 0.0
        for seed in range(3):
            f = sp.random_smooth_field(grid, seed, decay=1.5)
            g = sp.random_smooth_field(grid, 50 + seed, decay=1.5)
            lhs = sp.besov_norm(
                f.with_values(nl.tilde(f.values[..., 0])[..., None]
                              - nl.tilde(g.values[..., 0])[..., None]),
                alpha)
            na, ng = sp.besov_norm(f, alpha), sp.besov_norm(g, alpha)
            nd = sp.besov_norm(f - g, alpha)
            c_grid = max(c_grid, lhs / ((1.0 + na + ng) * nd))
        cs.append(c_grid)
    assert max(cs) / min(cs) < 1.4 / 0.6


# --- problem validation --------------------------------------------------------------

def test_problem_validation(kinetic, grid128, u0_128):
    b = zero_drift(grid128, 1.0, 8)
    with pytest.raises(ValueError):
        fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.6, epsilon=0.1, T=1.0)
    with pytest.raises(ValueError):
        fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3, epsilon=0.5, T=1.0)
    with pytest.raises(NotADensity):
        fp.FPProblem(model=kinetic, b=b, u0=u0_128 * 2.0, beta=0.3,
                     epsilon=0.2, T=1.0)
    # non-strict admits rescaled data (linearity checks)
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128 * 2.0, beta=0.3,
                        epsilon=0.2, T=1.0, strict=False)
    assert prob.kappa == pytest.approx(0.9)


def test_the_mesh_is_the_drifts(kinetic, grid128, u0_128):
    # the solver runs on the drift's mesh, whatever the settings: 9 drift
    # slices give 9 solution slices; a T off the drift's mesh and a w on
    # another mesh are errors
    b = synth_drift(grid128, 0.5, 9)
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                        epsilon=0.2, T=0.5)
    nl = fp.bounded_rational_nonlinearity()
    sol = fp.solve_fp(prob, nl, fp.SolverConfig())
    assert sol.u.mesh == b.mesh
    assert np.array_equal(sol.u.times, b.times)
    with pytest.raises(ValueError):
        fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3, epsilon=0.2,
                     T=1.0)
    with pytest.raises(ValueError):
        fp.picard_J(zero_drift(grid128, 0.5, 5), prob, nl)


# --- right-hand side -----------------------------------------------------------------

def test_div_of_v_independent_field(grid128):
    _, X = grid128.meshgrid()
    g = GridField(grid128, np.sin(X * 2 * np.pi / (2 * np.pi ** 3)))
    out = g.with_values(sp.ifftn_real(sp.div_first_block(g)))
    assert out.sup_norm() < 1e-12


def test_fp_rhs_zero_cases(kinetic, grid128, u0_128):
    # div_v G_s(u), the source of the mild map, at u = P'_s u0 and
    # s = times[3]
    T, n_t = 0.5, 9
    b0 = zero_drift(grid128, T, n_t)
    hom = Propagator(kinetic, grid128).apply_Pprime(b0.times[3], u0_128)
    nl = fp.bounded_rational_nonlinearity()
    out = hom.with_values(sp.ifftn_real(sp.div_first_block(
        fp.nonlinear_flux(hom, b0.at_index(3), nl))))
    assert out.sup_norm() == 0.0
    # F == 0 forces Ftilde == 0
    bsyn = synth_drift(grid128, T, n_t, mollify=0)
    out2 = hom.with_values(sp.ifftn_real(sp.div_first_block(
        fp.nonlinear_flux(hom, bsyn.at_index(3),
                          fp.constant_nonlinearity(0.0)))))
    assert out2.sup_norm() < 1e-12


def test_fp_rhs_channel_mismatch(kinetic, grid128, u0_128):
    # the drift has one channel per noisy coordinate, model.d
    b2 = zero_drift(grid128, 0.5, 5, channels=2)
    with pytest.raises(ValueError):
        fp.FPProblem(model=kinetic, b=b2, u0=u0_128, beta=0.3,
                     epsilon=0.2, T=0.5)


# --- the Duhamel map -------------------------------------------------------------------

def test_picard_J_zero_drift(kinetic, grid128, u0_128):
    # without drift the mild map is the free evolution, whatever u is
    T, n_t = 0.5, 17
    prob = fp.FPProblem(model=kinetic, b=zero_drift(grid128, T, n_t),
                        u0=u0_128, beta=0.3, epsilon=0.2, T=T)
    u = sp.synthesize_besov_field(0.3, 3, grid128,
                                  time_mesh=np.linspace(0.0, T, n_t))
    out = fp.picard_J(u, prob, fp.bounded_rational_nonlinearity())
    hom = Propagator(kinetic, grid128).evolve(u0_128, u.times, adjoint=True)
    for of, hf in zip(out.fields, hom):
        assert np.array_equal(of.values, hf.values)


def direct_duhamel(prob, b, nonlin, grid, t, n_fine, grading=4.0):
    """Independent oracle for -int_0^t P'_(t-s)[div_v Ftilde(P'_s u0) b_s] ds,
    that is Phi(h)_t - h_t with h_s = P'_s u0.

    Frozen-factor product integration with one-shot semigroup applications
    on a mesh graded towards the singular endpoint s -> t (the smooth
    factor varies like (t-s)^(-1) there, so uniform meshes converge too
    slowly to serve as a reference).
    """
    from hypokin.semigroup import Propagator
    prop = Propagator(prob.model, grid)
    kappa = prob.kappa
    u = np.linspace(0.0, 1.0, n_fine)
    s_nodes = t * (1.0 - (1.0 - u) ** grading)
    total = np.zeros(grid.shape + (1,))
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        for k in range(n_fine - 1):
            s = s_nodes[k]
            hom = prop.apply_Pprime(s, prob.u0) if s > 0 else prob.u0
            g = fp.nonlinear_flux(hom, b.sample(s), nonlin)
            q = GridField(grid, sp.ifftn_real(sp.div_first_block(g)))
            weight = ((t - s) ** (1 - kappa)
                      - (t - s_nodes[k + 1]) ** (1 - kappa)) \
                / (1 - kappa) * (t - s) ** kappa
            total += weight * prop.apply_Pprime(t - s, q).values
    return GridField(grid, -total)


@pytest.mark.filterwarnings("ignore::hypokin.errors.TimeTooSmallWarning")
def test_picard_step_matches_direct_quadrature(kinetic, u0_128):
    # its own grid: the ~760 memo tables that n_t = 257 and the graded
    # oracle build (about 100 MB) are freed with it when the test ends
    grid = AnisoGrid.build(kinetic.blocks, [128, 128])
    u0 = GridField(grid, u0_128.values)
    T = 0.5
    b_coarse = synth_drift(grid, T, 33, mollify=8)
    n_t = 257
    times = np.linspace(0.0, T, n_t)
    b = TimeField(t0=0.0, t1=T,
                  fields=tuple(b_coarse.sample(t) for t in times))
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0, beta=0.3,
                        epsilon=0.2, T=T)
    nl = fp.bounded_rational_nonlinearity()
    hom = Propagator(kinetic, grid).evolve(u0, times, adjoint=True)
    h = TimeField(t0=0.0, t1=T, fields=tuple(hom))
    step = fp.picard_J(h, prob, nl, homogeneous=hom).at_index(n_t - 1) \
        - hom[-1]
    oracle = direct_duhamel(prob, b_coarse, nl, grid, times[-1], n_fine=257)
    rel = np.max(np.abs(step.values - oracle.values)) / oracle.sup_norm()
    assert rel < 0.01


@pytest.fixture(scope="module")
def causal_problem(kinetic, grid128, u0_128):
    T, n_t = 0.5, 9
    return fp.FPProblem(model=kinetic, b=synth_drift(grid128, T, n_t),
                        u0=u0_128, beta=0.3, epsilon=0.2, T=T)


def test_picard_J_is_causal(causal_problem):
    # step i + 1 of Phi reads only u_i, so n_t - 1 applications from the
    # homogeneous solution h reach the fixed point of Phi to round-off,
    # relative to the size of the Duhamel term u - h; so does the one
    # march of solve_fp, which builds each source from the slice just made
    prob = causal_problem
    nl = fp.bounded_rational_nonlinearity()
    hom = Propagator(prob.model, prob.b.grid).evolve(prob.u0, prob.b.times,
                                                      adjoint=True)
    u = TimeField(t0=prob.b.t0, t1=prob.b.t1, fields=tuple(hom))
    for _ in range(prob.b.n_t - 1):
        u = fp.picard_J(u, prob, nl)
    again = fp.picard_J(u, prob, nl)
    marched = fp.solve_fp(prob, nl).u
    scale = max((f - h).sup_norm() for f, h in zip(u.fields, hom))
    assert scale > 0.0
    for other in (again, marched):
        assert max((a - b).sup_norm() for a, b in
                   zip(other.fields, u.fields)) <= 1e-13 * scale


# --- the solver ---------------------------------------------------------------------------

def test_certifying_sweep_is_live(causal_problem):
    # a start off the fixed point, the march of a flux scaled by 0.9, makes
    # the driver of solve_fp iterate more than once, to the same u
    prob = causal_problem
    nl = fp.bounded_rational_nonlinearity()
    scaled = fp.NonlinearitySpec(func=lambda s: 0.9 * nl(s))
    hom = Propagator(prob.model, prob.b.grid).evolve(prob.u0, prob.b.times,
                                                      adjoint=True)
    start = fp._march(prob, scaled, hom, lambda i, made: made[-1])
    w, _, increments = fp.picard_fixed_point(
        lambda u: fp.picard_J(u, prob, nl, homogeneous=hom), start,
        prob.beta + prob.epsilon, fp.SolverConfig())
    assert len(increments) > 1
    u = fp.solve_fp(prob, nl).u
    scale = max((f - h).sup_norm() for f, h in zip(u.fields, hom))
    assert max((a - b).sup_norm() for a, b in
               zip(w.fields, u.fields)) <= 1e-13 * scale


def test_solve_zero_drift_is_homogeneous(kinetic, grid128, u0_128):
    T, n_t = 1.0, 33
    prob = fp.FPProblem(model=kinetic, b=zero_drift(grid128, T, n_t),
                        u0=u0_128, beta=0.3, epsilon=0.2, T=T)
    sol = fp.solve_fp(prob, fp.bounded_rational_nonlinearity(),
                      fp.SolverConfig())
    assert sol.iterations == 1
    hom = Propagator(kinetic, grid128).evolve(u0_128, sol.u.times,
                                              adjoint=True)
    for uf, hf in zip(sol.u.fields, hom):
        assert np.array_equal(uf.values, hf.values)
    rep = fp.conservation_report(sol.u)
    assert all(abs(m - 1.0) < 1e-6 for m in rep.mass)


def test_solver_converges_and_conserves(small_solution):
    # the certifying sweep of Phi reads the march's floats: one iteration,
    # its increment (the fixed-point residual) below the tolerance
    sol = small_solution
    assert sol.converged
    assert sol.contraction <= 0.9
    assert sol.iterations == 1 == len(sol.increments)
    assert sol.increments[-1] < fp.SolverConfig().picard_tol
    rep = fp.conservation_report(sol.u)
    assert all(abs(m - 1.0) < 1e-3 for m in rep.mass)
    assert min(rep.min_value) > -5e-3


@pytest.mark.skipif(not hypokin.ALLOCATOR_POLICY,
                    reason="the C library has no mallopt")
def test_warm_solve_faults_in_no_pages(kinetic, grid256, u0_256):
    # the allocator keeps what a solve frees, so a second solve of the
    # same size reuses it (about 18,000 minor faults under glibc's
    # self-tuning default)
    T, n_t = 1.0, 16
    prob = fp.FPProblem(model=kinetic, b=synth_drift(grid256, T, n_t),
                        u0=u0_256, beta=0.3, epsilon=0.2, T=T)
    nonlin = fp.bounded_rational_nonlinearity()
    fp.solve_fp(prob, nonlin)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fp.solve_fp(prob, nonlin)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_first_order_perturbation(kinetic, grid128, u0_128):
    # F == c constant, small drift: u - hom matches the one-term expansion
    # to O(||b||^2): the residual after removing it shrinks quadratically
    T, n_t = 0.5, 33
    nl = fp.constant_nonlinearity(1.0)
    errs = {}
    for scale in (1e-3, 2e-3):
        b = synth_drift(grid128, T, n_t, amplitude=scale)
        prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                            epsilon=0.2, T=T)
        sol = fp.solve_fp(prob, nl, fp.SolverConfig(picard_tol=1e-13))
        hom = Propagator(kinetic, grid128).evolve(u0_128, sol.u.times,
                                                  adjoint=True)
        h = TimeField(t0=0.0, t1=T, fields=tuple(hom))
        phi = fp.picard_J(h, prob, nl, homogeneous=hom)
        # first = Phi(h) - h, the one-term expansion of u - h
        resid = max(
            (sol.u.at_index(i) - phi.at_index(i)).sup_norm()
            for i in range(n_t))
        errs[scale] = resid
    ratio = errs[2e-3] / errs[1e-3]
    assert 2.5 < ratio < 6.0  # quadratic in the drift amplitude


def test_mass_linearity_under_scaling(kinetic, grid128, u0_128):
    T, n_t = 0.5, 33
    b = synth_drift(grid128, T, n_t)
    nl = fp.constant_nonlinearity(1.0)
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128 * 2.0, beta=0.3,
                        epsilon=0.2, T=T, strict=False)
    sol = fp.solve_fp(prob, nl)
    rep = fp.conservation_report(sol.u)
    assert all(abs(m - 2.0) < 2e-3 for m in rep.mass)


def test_no_convergence_raises(kinetic, grid128, u0_128):
    # the march reaches the discrete fixed point whatever the drift, so
    # the cut iteration budget fails the cold-start certificate
    T, n_t = 1.0, 17
    b = synth_drift(grid128, T, n_t, amplitude=40.0, mollify=4)
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                        epsilon=0.2, T=T)
    nl = fp.bounded_rational_nonlinearity()
    sol = fp.solve_fp(prob, nl)
    with pytest.raises(NoConvergence):
        fp.fp_certificate(prob, nl, sol, fp.SolverConfig(max_iters=4))


def test_forward_picard_certificate(kinetic, grid128, u0_128):
    # the shared certificate run forward, as the backward one: the uncut
    # limit lies within its a-posteriori bound of the march, and a march
    # moved off the fixed point fails the certificate
    T, n_t = 1.0, 9
    prob = fp.FPProblem(model=kinetic, b=synth_drift(grid128, T, n_t),
                        u0=u0_128, beta=0.3, epsilon=0.2, T=T)
    nl = fp.bounded_rational_nonlinearity()
    sol = fp.solve_fp(prob, nl)
    cert = fp.fp_certificate(prob, nl, sol)
    assert cert.distance <= cert.bound
    moved = TimeField(t0=0.0, t1=T,
                      fields=tuple(f * (1.0 + 1e-6) for f in sol.u.fields))
    with pytest.raises(NoConvergence):
        fp.fp_certificate(prob, nl, replace(sol, u=moved))


def test_fixed_metric_sees_late_increments(grid128):
    # the only increment sits at t = T and shrinks by 0.95 per sweep: the
    # unweighted stop rule sees it at full size, so the run cannot stop
    # before the increment falls below the tolerance
    T, n_t = 1.0, 5
    f = sp.random_localized_field(grid128, 0)
    f = f * (1.0 / sp.besov_norm(f, 0.5))
    steps = (f * 0.95 ** k for k in range(100))

    def sweep(w):
        return TimeField(t0=0.0, t1=T,
                         fields=w.fields[:-1] + (w.fields[-1] + next(steps),))

    with pytest.raises(NoConvergence, match="after 20 iterations"):
        fp.picard_fixed_point(sweep, zero_drift(grid128, T, n_t), 0.5,
                              fp.SolverConfig(picard_tol=1e-3, max_iters=20))


def test_certificate_without_contraction(grid128):
    # increments that grow before they vanish: the measured contraction is
    # 100, so the certificate has no a-posteriori bound and says so, not
    # that the limit lies beyond a bound of 0
    T, n_t = 1.0, 5
    f = sp.random_localized_field(grid128, 0)
    f = f * (1.0 / sp.besov_norm(f, 0.5))
    steps = iter((f * 1e-2, f, f * 0.0))

    def sweep(w):
        return TimeField(t0=0.0, t1=T,
                         fields=w.fields[:-1] + (w.fields[-1] + next(steps),))

    start = zero_drift(grid128, T, n_t)
    with pytest.raises(NoConvergence, match="contraction 100 >= 1: no "
                       "a-posteriori bound"):
        fp.certify_march(sweep, start, start, 0.0, 0.5, fp.SolverConfig())


def test_picard_norm_inverts_few_shells(kinetic, grid128, u0_128,
                                        monkeypatch):
    # the stop rule's norm inverts only the shells that can hold its
    # maximum.  Inverting every shell of every slice takes iterations x n_t
    # x (J_max + 2) transforms, 9 x 9 x 7 = 567 here; the ceiling is one
    # slice's worth of shells per iteration, 63 (46 are made).  Counted in
    # the stop rule of the cold-start certificate, whose Picard run has the
    # 9 iterations; its first norm, sup_t ||u_t|| of the march in the
    # bound, and its last, the distance from the march, are not the stop
    # rule's.
    T, n_t = 1.0, 9
    prob = fp.FPProblem(model=kinetic, b=synth_drift(grid128, T, n_t),
                        u0=u0_128, beta=0.3, epsilon=0.2, T=T)
    nl = fp.bounded_rational_nonlinearity()
    sol = fp.solve_fp(prob, nl)
    calls = {"ifftn_real": 0, "in_norm": []}
    ifftn_real, besov_norm = sp.ifftn_real, fp.besov_norm

    def counted_ifftn_real(spectrum):
        calls["ifftn_real"] += 1
        return ifftn_real(spectrum)

    def counted_besov_norm(*args):
        before = calls["ifftn_real"]
        out = besov_norm(*args)
        calls["in_norm"].append(calls["ifftn_real"] - before)
        return out

    monkeypatch.setattr(sp, "ifftn_real", counted_ifftn_real)
    monkeypatch.setattr(fp, "besov_norm", counted_besov_norm)
    cert = fp.fp_certificate(prob, nl, sol)
    assert cert.iterations == 9
    assert len(calls["in_norm"]) == cert.iterations + 2
    in_stop_rule = sum(calls["in_norm"][1:-1])
    assert cert.iterations <= in_stop_rule \
        <= cert.iterations * (grid128.J_max + 2)


# --- weak-form consistency ------------------------------------------------------------------

def weak_residual(sol, prob, nonlin, phi):
    grid = phi.grid
    model = prob.model
    mesh = grid.meshgrid()
    lap = sp.spectral_derivative(sp.spectral_derivative(phi, 0), 0)
    grads = [sp.spectral_derivative(phi, a) for a in range(model.N)]
    Bz = [sum(model.B[a, c] * mesh[c] for c in range(model.N))
          for a in range(model.N)]
    a_phi = 0.5 * lap.values[..., 0] + sum(
        Bz[a] * grads[a].values[..., 0] for a in range(model.N))
    dv_phi = grads[0].values[..., 0]

    inner = lambda v, w: float(np.sum(v * w) * grid.cell_volume)
    times = sol.u.times
    pair_a, pair_flux = [], []
    for i, t in enumerate(times):
        uv = sol.u.at_index(i).values[..., 0]
        Fv = nonlin(uv)
        bv = prob.b.at_index(i).values[..., 0]
        pair_a.append(inner(uv, a_phi))
        pair_flux.append(inner(uv * Fv * bv, dv_phi))
    lhs = inner(sol.u.at_index(len(times) - 1).values[..., 0],
                phi.values[..., 0])
    rhs = inner(prob.u0.values[..., 0], phi.values[..., 0]) \
        + np.trapezoid(np.asarray(pair_a) + np.asarray(pair_flux), times)
    return abs(lhs - rhs)


def test_weak_form_residual_shrinks(kinetic, grid128, u0_128):
    # coarse meshes, where the O(dt) part dominates the fixed grid floor;
    # the order is fitted over four meshes, since single ratios on these
    # pre-asymptotic meshes swing with the drift draw (the scheme is first
    # order)
    T = 0.5
    nl = fp.bounded_rational_nonlinearity()
    phis = [sp.random_localized_field(grid128, 70 + k, width=0.15)
            for k in range(5)]
    n_ts = (5, 9, 17, 33)
    res = []
    for n_t in n_ts:
        b = synth_drift(grid128, T, n_t)
        prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                            epsilon=0.2, T=T)
        sol = fp.solve_fp(prob, nl)
        res.append(max(weak_residual(sol, prob, nl, phi) for phi in phis))
    dts = [T / (n_t - 1) for n_t in n_ts]
    order = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert order >= 0.8, (
        f"fitted order {order:.2f} < 0.8; residuals "
        + ", ".join(f"{r:.2e} (n_t={n})" for n, r in zip(n_ts, res)))


# --- regularized-drift stability -----------------------------------------------------------

def test_stability_ladder(kinetic, grid128, u0_128):
    # small-scale version; the desk-scale check (one stability constant
    # along the ladder) lives in the acceptance suite
    T, n_t = 0.5, 33
    nl = fp.bounded_rational_nonlinearity()
    times = np.linspace(0.0, T, n_t)
    raw = sp.synthesize_besov_field(0.3, 42, grid128, time_mesh=times,
                                    amplitude=0.3, window=True,
                                    modes_per_shell=16)
    sols = {}
    for n in (2, 4, 8, 16, 32):
        bn = sp.mollify_time_field(raw, n)
        prob = fp.FPProblem(model=kinetic, b=bn, u0=u0_128, beta=0.3,
                            epsilon=0.2, T=T)
        sols[n] = fp.solve_fp(prob, nl)
    norm_idx = 0.5
    diffs = []
    for n in (2, 4, 8, 16):
        d = max(sp.besov_norm(a - b_, norm_idx) for a, b_ in
                zip(sols[n].u.fields, sols[2 * n].u.fields))
        diffs.append(d)
    assert diffs[0] > diffs[-1]
    # decay order vs the measured drift mollification rate, within 30%
    eta = min(0.2, 1 - 2 * 0.3 - 0.2)  # min(eps, 1-2beta-eps)
    drift_diffs = [
        sp.besov_norm(
            sp.mollify_time_field(raw, n).at_index(16)
            - sp.mollify_time_field(raw, 2 * n).at_index(16), -0.3 - eta)
        for n in (2, 4, 8, 16)
    ]
    ns = np.array([2.0, 4.0, 8.0, 16.0])
    slope_u = -np.polyfit(np.log(ns), np.log(diffs), 1)[0]
    slope_b = -np.polyfit(np.log(ns), np.log(drift_diffs), 1)[0]
    assert abs(slope_u - slope_b) <= 0.3 * slope_b

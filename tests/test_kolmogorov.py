from dataclasses import replace

import numpy as np
import pytest

from hypokin.errors import (GradientBoundViolated, LadderExhausted,
                            NoConvergence)
from hypokin.fields import GridField, TimeField, constant_field
from hypokin.fpsolver import SolverConfig
from hypokin import kolmogorov as kg
from hypokin import semigroup as sg
from hypokin import spectral as sp


def zero_tf(grid, T, n_t, channels=1):
    zero = GridField(grid, np.zeros(grid.shape + (channels,)))
    return TimeField(t0=0.0, t1=T, fields=(zero,) * n_t)


def synth_bc(grid, T, n_t, seed=7, amplitude=0.3, mollify=8,
             modes_per_shell=1):
    times = np.linspace(0.0, T, n_t)
    b = sp.synthesize_besov_field(0.3, seed, grid, time_mesh=times,
                                  amplitude=amplitude, window=True,
                                  modes_per_shell=modes_per_shell)
    return sp.mollify_time_field(b, mollify) if mollify else b


@pytest.fixture(scope="module")
def zv_ladder(kinetic, grid128):
    bc = synth_bc(grid128, 1.0, 64)
    problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0, beta=0.3,
                                         epsilon=0.2)
    return kg.lambda_bar_search(problem, require_gradient=True)


def test_problem_validation(kinetic, grid128):
    bc = zero_tf(grid128, 1.0, 8)
    with pytest.raises(ValueError):
        kg.BackwardProblem(model=kinetic, Bc=bc, g=None, ell=None,
                           lam=0.0, beta=0.3, epsilon=0.2)
    with pytest.raises(ValueError):
        kg.BackwardProblem(model=kinetic, Bc=bc, g=bc, ell=None,
                           lam=-1.0, beta=0.3, epsilon=0.2)


def test_the_mesh_is_the_drifts(kinetic, grid128):
    # the march runs on the mesh of Bc: 9 slices in, 9 out; a source or an
    # iterate on another mesh is an error
    T, n_t = 0.5, 9
    bc = synth_bc(grid128, T, n_t)
    problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0, beta=0.3,
                                         epsilon=0.2)
    assert problem.T == T
    sol = kg.solve_kolmogorov(problem)
    assert sol.u.mesh == bc.mesh
    for other in (zero_tf(grid128, T, 5), zero_tf(grid128, 1.0, n_t)):
        with pytest.raises(ValueError):
            kg.BackwardProblem(model=kinetic, Bc=bc, g=other, ell=None,
                               lam=1.0, beta=0.3, epsilon=0.2)
    prop = sg.Propagator(kinetic, grid128)
    with pytest.raises(ValueError):
        kg.backward_sweep(zero_tf(grid128, T, 5), problem, prop,
                          kg._terminal_sweep(problem, prop))


def test_norms_are_computed_on_first_read(kinetic, grid128, monkeypatch):
    # the march takes d derivatives per step for its transport term and no
    # norm; each norm is computed once, on first read, by the functions
    # that define it
    T, n_t = 0.5, 9
    problem = kg.BackwardProblem.zvonkin(kinetic, synth_bc(grid128, T, n_t),
                                         lam=1.0, beta=0.3, epsilon=0.2)
    calls = {"besov_norm": 0, "spectral_derivative": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kg, name, counted(name, getattr(kg, name)))
    sol = kg.solve_kolmogorov(problem)
    d = kinetic.d
    assert calls == {"besov_norm": 0, "spectral_derivative": (n_t - 1) * d}
    norm = sol.sup_norm_index
    assert calls == {"besov_norm": 1, "spectral_derivative": (n_t - 1) * d}
    grad = sol.grad_sup
    assert calls == {"besov_norm": 1,
                     "spectral_derivative": (2 * n_t - 1) * d}
    assert (sol.sup_norm_index, sol.grad_sup) == (norm, grad)
    assert calls == {"besov_norm": 1,
                     "spectral_derivative": (2 * n_t - 1) * d}
    monkeypatch.undo()
    assert norm == sp.besov_norm(sol.u, problem.norm_index)
    assert grad == kg._sup_grad_v(sol.u)


def test_terminal_only_oracle(kinetic, grid128):
    # Bc = 0, g = 0, lambda = 0: u_t = P_(T-t) ell, reproduced exactly
    T, n_t = 1.0, 33
    ell = sp.random_localized_field(grid128, 5, decay=2.0, width=0.2)
    prob = kg.BackwardProblem(model=kinetic, Bc=zero_tf(grid128, T, n_t),
                              g=None, ell=ell, lam=0.0,
                              beta=0.3, epsilon=0.2)
    sol = kg.solve_kolmogorov(prob)
    for t, f in zip(sol.u.times, sol.u.fields):
        ref = ell if t == T else sg.apply_P(kinetic, T - t, ell)
        assert np.max(np.abs(f.values - ref.values)) < 1e-12


def test_constant_source_oracle(kinetic, grid128):
    # Bc = 0, ell = 0, g = c, lambda = 0, tr B = 0: u_t = -(T - t) c
    T, n_t = 1.0, 33
    c = 1.7
    g = TimeField(t0=0.0, t1=T,
                  fields=(constant_field(grid128, c),) * n_t)
    prob = kg.BackwardProblem(model=kinetic, Bc=zero_tf(grid128, T, n_t),
                              g=g, ell=None, lam=0.0,
                              beta=0.3, epsilon=0.2)
    sol = kg.solve_kolmogorov(prob)
    errs = [np.max(np.abs(f.values + (T - t) * c))
            for t, f in zip(sol.u.times, sol.u.fields)]
    assert max(errs) < 1e-12


def test_resolvent_damping_with_lambda(kinetic, grid128):
    # with lambda > 0 the constant-source solution is (e^{-lam(T-t)}-1) c/lam
    T, n_t, lam, c = 1.0, 65, 8.0, 1.0
    g = TimeField(t0=0.0, t1=T,
                  fields=(constant_field(grid128, c),) * n_t)
    prob = kg.BackwardProblem(model=kinetic, Bc=zero_tf(grid128, T, n_t),
                              g=g, ell=None, lam=lam,
                              beta=0.3, epsilon=0.2)
    sol = kg.solve_kolmogorov(prob)
    errs = []
    for t, f in zip(sol.u.times, sol.u.fields):
        exact = (np.exp(-lam * (T - t)) - 1.0) * c / lam
        errs.append(np.max(np.abs(f.values - exact)))
    assert max(errs) < 2e-4  # first-order in dt against the exact resolvent


def test_pointwise_residual_refines(kinetic, grid128):
    # smooth drift: the discrete transport-diffusion residual, with the
    # flow derivative taken along exp(hB), shrinks under mesh refinement
    T = 0.5
    res = {}
    for n_t in (9, 17, 33):
        bc = synth_bc(grid128, T, n_t, mollify=16)
        prob = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0, beta=0.3,
                                          epsilon=0.2)
        sol = kg.solve_kolmogorov(prob)
        prop = sg.Propagator(kinetic, grid128)
        dt = sol.u.dt
        worst = 0.0
        # central region, away from the velocity seam of the box
        V, _ = grid128.meshgrid()
        core = np.abs(V) < 0.5 * grid128.half_extents[0]
        for i in (n_t // 4, n_t // 2):
            u_i = sol.u.at_index(i)
            u_next = sol.u.at_index(i + 1)
            flowed = sp.ifftn_real(sp.fftn(u_next.values), prop._shear(dt))
            lie = (flowed - u_i.values) / dt
            lap = sp.spectral_derivative(
                sp.spectral_derivative(u_i, 0), 0).values
            du = sp.spectral_derivative(u_i, 0).values
            bc_i = prob.Bc.at_index(i).values
            resid = lie[..., 0] + 0.5 * lap[..., 0] \
                + bc_i[..., 0] * du[..., 0] \
                - prob.lam * u_i.values[..., 0] \
                - prob.g.at_index(i).values[..., 0]
            worst = max(worst, float(np.max(np.abs(resid[core]))))
        res[n_t] = worst
    assert res[9] / res[17] > 1.5
    assert res[17] / res[33] > 1.5


def test_backward_picard_driver(kinetic, grid128):
    # the shared Picard driver run backward, as the certificate of the
    # march: a cut iteration budget fails loudly, the uncut limit lies
    # within its a-posteriori bound of the march, and a march moved off
    # the fixed point fails the certificate
    T, n_t = 0.5, 9
    problem = kg.BackwardProblem.zvonkin(kinetic, synth_bc(grid128, T, n_t),
                                         lam=1.0, beta=0.3, epsilon=0.2)
    sol = kg.solve_kolmogorov(problem)
    with pytest.raises(NoConvergence):
        kg.picard_certificate(problem, sol,
                              SolverConfig(max_iters=2))
    cert = kg.picard_certificate(problem, sol, SolverConfig())
    assert cert.iterations > 2
    assert cert.distance <= cert.bound
    moved = TimeField(t0=0.0, t1=T,
                      fields=tuple(f * (1.0 + 1e-6) for f in sol.u.fields))
    with pytest.raises(NoConvergence):
        kg.picard_certificate(problem, replace(sol, u=moved),
                              SolverConfig())


def _problem_for(case, kinetic, grid, T, n_t):
    bc = synth_bc(grid, T, n_t)
    if case.startswith("zvonkin"):
        lam = float(case.split("-")[1])
        return kg.BackwardProblem.zvonkin(kinetic, bc, lam=lam, beta=0.3,
                                          epsilon=0.2)
    datum = sp.random_localized_field(grid, 5, decay=2.0, width=0.2)
    g = TimeField(t0=0.0, t1=T, fields=(datum,) * n_t) \
        if case == "g" else None
    return kg.BackwardProblem(model=kinetic, Bc=bc, g=g,
                              ell=datum if case == "ell" else None,
                              lam=1.0, beta=0.3, epsilon=0.2)


@pytest.mark.parametrize("case", ["zvonkin-1", "zvonkin-8", "g", "ell"])
def test_march_is_picard_exhausted(case, kinetic, grid128):
    # step i of backward_sweep reads only steps after i, so n_t + 1 sweeps
    # from zero are exhausted Picard; the one-pass march equals them and
    # is a fixed point of the sweep, both to round-off
    T, n_t = 0.5, 9
    problem = _problem_for(case, kinetic, grid128, T, n_t)
    march = kg.solve_kolmogorov(problem).u
    prop = sg.Propagator(kinetic, grid128)
    terminal = kg._terminal_sweep(problem, prop)
    w = zero_tf(grid128, T, n_t, problem.channels)
    for _ in range(n_t + 1):
        w = kg.backward_sweep(w, problem, prop, terminal)
    again = kg.backward_sweep(march, problem, prop, terminal)
    scale = march.sup_norm()
    assert scale > 0.0
    for other in (w, again):
        assert max((a - b).sup_norm() for a, b in
                   zip(other.fields, march.fields)) <= 1e-13 * scale


def test_lambda_ladder_trivial(kinetic, grid128):
    bc = zero_tf(grid128, 1.0, 17)
    problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0, beta=0.3,
                                         epsilon=0.2)
    res = kg.lambda_bar_search(problem)
    assert res.lam == 1.0
    assert res.achieved_norm == 0.0


def test_lambda_ladder_monotone(zv_ladder):
    norms = [r[1] for r in zv_ladder.rungs]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert zv_ladder.achieved_norm <= 0.5
    assert zv_ladder.grad_sup <= 0.5


def test_lambda_ladder_drift_scaling(kinetic, grid128):
    # doubling the drift never shrinks the returned lambda
    lams = []
    for amp in (0.15, 0.3):
        bc = synth_bc(grid128, 0.5, 17, amplitude=amp)
        problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0,
                                             beta=0.3, epsilon=0.2)
        res = kg.lambda_bar_search(problem)
        lams.append(res.lam)
    assert lams[1] >= lams[0]


def test_ladder_exhausted(kinetic, grid128):
    bc = synth_bc(grid128, 0.5, 9, amplitude=0.3)
    problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0, beta=0.3,
                                         epsilon=0.2)
    with pytest.raises(LadderExhausted):
        kg.lambda_bar_search(problem, lam_cap=2.0, bound=1e-6)


# --- coordinate change ------------------------------------------------------------

def test_identity_maps(kinetic, grid128):
    u = zero_tf(grid128, 1.0, 5)
    maps = kg.zvonkin_phi(u)
    pts = np.array([[0.3, -2.0], [1.0, 5.0]])
    assert np.allclose(maps.phi(0.5, pts), pts)
    out, contr = maps.psi(0.5, pts)
    assert np.allclose(out, pts)
    assert contr == 0.0


def test_second_block_identity(zv_ladder):
    maps = kg.zvonkin_phi(zv_ladder.solution.u,
                          grad_bound=zv_ladder.grad_sup)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (200, 2)) * maps.u.grid.half_extents * 0.9
    t = maps.u.times[7]
    out = maps.phi(t, pts)
    assert np.array_equal(out[:, 1], pts[:, 1])   # x block untouched
    disp = np.max(np.abs(out - pts))
    assert disp <= max(f.sup_norm() for f in maps.u.fields) + 1e-12


def test_roundtrip_and_contraction(zv_ladder):
    maps = kg.zvonkin_phi(zv_ladder.solution.u,
                          grad_bound=zv_ladder.grad_sup)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (1000, 2)) * maps.u.grid.half_extents * 0.9
    for t in (maps.u.times[0], maps.u.times[31]):
        inv, contr = maps.psi(t, pts)
        back = maps.phi(t, inv)
        assert np.max(np.abs(back - pts)) < 1e-8
        assert contr <= 0.55


def test_psi_linear_growth(zv_ladder):
    maps = kg.zvonkin_phi(zv_ladder.solution.u,
                          grad_bound=zv_ladder.grad_sup)
    rng = np.random.default_rng(2)
    v = rng.uniform(-3, 3, (500, 1))
    x = rng.uniform(-0.9, 0.9, (500, 1)) * maps.u.grid.half_extents[1]
    pts = np.concatenate([v, x], axis=1)
    inv, _ = maps.psi(maps.u.times[10], pts)
    c = np.max(np.abs(inv[:, 0]) / (1.0 + np.abs(v[:, 0])))
    assert np.isfinite(c) and c < 5.0


def test_gradient_bound_violation(kinetic, grid128):
    V, _ = grid128.meshgrid()
    steep = GridField(grid128, (0.8 * np.sin(V))[..., np.newaxis])
    u = TimeField(t0=0.0, t1=1.0, fields=(steep,) * 5)
    with pytest.raises(GradientBoundViolated):
        kg.zvonkin_phi(u)


def test_psi_equicontinuity_along_mollification(kinetic, grid128):
    # modulus of continuity of the inverse stays bounded along the ladder
    T, n_t = 0.5, 17
    raw = synth_bc(grid128, T, n_t, mollify=0)
    rng = np.random.default_rng(3)
    base = rng.uniform(-1, 1, (200, 2)) * grid128.half_extents * 0.8
    delta = np.array([0.05, 0.3])
    moduli = []
    for n in (2, 4, 8):
        bc = sp.mollify_time_field(raw, n)
        problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=1.0,
                                             beta=0.3, epsilon=0.2)
        ladder = kg.lambda_bar_search(problem, require_gradient=True)
        maps = kg.zvonkin_phi(ladder.solution.u,
                              grad_bound=ladder.grad_sup)
        t = maps.u.times[8]
        a, _ = maps.psi(t, base)
        b, _ = maps.psi(t, base + delta)
        moduli.append(np.max(np.abs(a - b)))
    assert max(moduli) < 4.0 * np.linalg.norm(delta)


# --- duality with the forward solver ------------------------------------------------

def test_forward_backward_duality(kinetic, grid128, u0_128):
    # drift-free: <P'_t u0, ell> agrees with the backward value at time 0
    from hypokin import fpsolver as fp
    T, n_t = 0.5, 33
    ell = sp.random_localized_field(grid128, 21, decay=2.5, width=0.15)
    fwd_prob = fp.FPProblem(model=kinetic, b=zero_tf(grid128, T, n_t),
                            u0=u0_128, beta=0.3, epsilon=0.2, T=T)
    fwd = fp.solve_fp(fwd_prob, fp.bounded_rational_nonlinearity(),
                      fp.SolverConfig())
    bwd_prob = kg.BackwardProblem(model=kinetic,
                                  Bc=zero_tf(grid128, T, n_t),
                                  g=None, ell=ell, lam=0.0,
                                  beta=0.3, epsilon=0.2)
    bwd = kg.solve_kolmogorov(bwd_prob)
    cv = grid128.cell_volume
    lhs = float(np.sum(fwd.u.at_index(n_t - 1).values * ell.values) * cv)
    rhs = float(np.sum(u0_128.values * bwd.u.at_index(0).values) * cv)
    assert abs(lhs - rhs) < 1e-6 * abs(lhs)


def test_backward_stability_under_mollification(kinetic, grid128):
    T, n_t = 0.5, 17
    raw = synth_bc(grid128, T, n_t, mollify=0, modes_per_shell=4)
    sols = {}
    for n in (2, 4, 8, 16):
        bc = sp.mollify_time_field(raw, n)
        problem = kg.BackwardProblem.zvonkin(kinetic, bc, lam=4.0,
                                             beta=0.3, epsilon=0.2)
        sols[n] = kg.solve_kolmogorov(problem)
    eta = 0.1
    idx = 1.0 + 0.3 + 0.2 - eta
    diffs = [max(sp.besov_norm(a - b, idx) for a, b in
                 zip(sols[n].u.fields, sols[2 * n].u.fields))
             for n in (2, 4, 8)]
    assert diffs[0] > diffs[-1]

import weakref

import numpy as np
import pytest

from hypokin.errors import NotADensity, ParticleEscapeWarning
from hypokin.fields import (AnisoGrid, GridField, PeriodicInterpolator,
                            TimeField, gaussian_field)
from hypokin import fpsolver as fp
from hypokin import mckean as mk
from hypokin import semigroup as sg
from hypokin import spectral as sp


def resolved_kernel_density(model, grid, t):
    u = sp.bandlimit(sg.kernel_field(model, grid, t))
    return u * (1.0 / float(u.integral()[0]))


# --- sampling -----------------------------------------------------------------

def test_sampling_deterministic(kinetic, grid256, u0_256):
    a = mk.sample_initial(u0_256, 5000, 3)
    b = mk.sample_initial(u0_256, 5000, 3)
    assert np.array_equal(a.states, b.states)


def test_sampling_and_steps_use_separate_streams(grid256):
    # simulate draws its noise from Philox(key=seed) at counter 0; an
    # initial sample drawn from those words would correlate with the
    # first steps' noise.  All mass in one cell: every state is that node
    # plus a uniform jitter of the cell, so no state may be the node plus
    # a uniform of the noise stream.
    node = tuple(m // 2 + 3 for m in grid256.shape)
    vals = np.zeros(grid256.shape)
    vals[node] = 1.0 / grid256.cell_volume
    M, seed = 4000, 3
    ens = mk.sample_initial(GridField(grid256, vals), M, seed)
    noise = np.random.Generator(np.random.Philox(key=seed))
    same = noise.uniform(-0.5, 0.5, size=4 * M + 100)
    for a in range(grid256.N):
        start = -grid256.half_extents[a] + node[a] * grid256.spacings[a]
        assert np.all(np.abs(ens.states[:, a] - start)
                      <= 0.5 * grid256.spacings[a])
        assert not np.any(np.isin(ens.states[:, a],
                                  start + same * grid256.spacings[a]))


def test_sampling_rejects_bad_density(kinetic, grid256, u0_256):
    with pytest.raises(NotADensity):
        mk.sample_initial(u0_256 * 1.5, 1000, 0)


def test_sampling_mean_matches(kinetic, grid256):
    # narrow cloud: sample mean within 4 sigma / sqrt(M) per coordinate
    u0 = gaussian_field(grid256, [0.2, 0.6], center=[0.5, 2.0])
    u0 = u0 * (1.0 / float(u0.integral()[0]))
    M = 40000
    ens = mk.sample_initial(u0, M, 1)
    mean = ens.states.mean(axis=0)
    sig = np.array([0.2, 0.6])
    assert np.all(np.abs(mean - [0.5, 2.0]) < 4.0 * sig / np.sqrt(M)
                  + 0.5 * grid256.spacings / np.sqrt(M))


def test_sampling_covariance_matches_kernel(kinetic, grid_widev):
    # Gamma_{t0} samples: covariance within 5% at M = 1e5 (wide box keeps
    # the correlated tails off the seam)
    t0 = 1.5
    u0 = resolved_kernel_density(kinetic, grid_widev, t0)
    ens = mk.sample_initial(u0, 100_000, 7)
    C = sg.covariance(kinetic, t0)
    emp = np.cov(ens.states.T)
    assert np.max(np.abs(emp - C) / np.abs(C)) < 0.05


# --- stepping -----------------------------------------------------------------

def test_trajectories_deterministic(kinetic):
    ens = mk.ParticleEnsemble(states=np.zeros((500, 2)), t=0.0, dt=1e-3,
                              seed=5, box=None)
    a = mk.simulate(ens, kinetic, None, T=0.2, checkpoints=(0.1, 0.2))
    b = mk.simulate(ens, kinetic, None, T=0.2, checkpoints=(0.1, 0.2))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.record_at(0.1), b.record_at(0.1))


def test_position_update_is_noiseless(kinetic):
    z0 = np.tile([[0.7, -0.3]], (1000, 1))
    ens = mk.ParticleEnsemble(states=z0.copy(), t=0.0, dt=1e-3, seed=9,
                              box=None)
    out = mk.simulate(ens, kinetic, None, T=1e-3)
    dx = out.states[:, 1] - z0[:, 1] - 1e-3 * z0[:, 0]  # B1 z = v
    assert np.ptp(out.states[:, 1]) == 0.0  # no noise enters the position
    assert np.max(np.abs(dx)) < 1e-15
    dv = out.states[:, 0] - z0[:, 0]
    assert np.std(dv) > 0  # the velocity does get noise


def test_driftfree_covariance(kinetic):
    ens = mk.ParticleEnsemble(states=np.zeros((100_000, 2)), t=0.0, dt=1e-3,
                              seed=11, box=None)
    ens = mk.simulate(ens, kinetic, None, T=1.0, checkpoints=(0.25, 1.0))
    for t in (0.25, 1.0):
        emp = np.cov(ens.record_at(t).T)
        C = sg.covariance(kinetic, t)
        assert np.max(np.abs(emp - C) / np.abs(C)) < 0.05


def test_euler_weak_order_one(kinetic):
    # deterministic oracle: the EM covariance recursion
    # S_{k+1} = (I + dt B) S_k (I + dt B)^T + dt A converges to C(T) at
    # first order, fitted over five steps, and the empirical covariance
    # matches the recursion
    T = 0.5

    def em_cov(dt):
        n = int(round(T / dt))
        Mstep = np.eye(2) + dt * kinetic.B
        S = np.zeros((2, 2))
        for _ in range(n):
            S = Mstep @ S @ Mstep.T + dt * kinetic.A
        return S

    C = sg.covariance(kinetic, T)
    dts = 0.05 / 2.0 ** np.arange(5)
    errs = [np.max(np.abs(em_cov(dt) - C)) for dt in dts]
    order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.95 <= order <= 1.05
    ens = mk.ParticleEnsemble(states=np.zeros((200_000, 2)), t=0.0, dt=0.05,
                              seed=3, box=None)
    ens = mk.simulate(ens, kinetic, None, T=T, dt=0.05)
    emp = np.cov(ens.states.T)
    assert np.max(np.abs(emp - em_cov(0.05))) < 0.01


def test_escape_counting(kinetic, grid256, u0_256):
    ens = mk.sample_initial(u0_256, 2000, 5)
    out = mk.simulate(ens, kinetic, None, T=2.0, dt=1e-2)
    assert out.escape_count > 0          # v-diffusion reaches the seam
    assert np.all(np.abs(out.states) <= grid256.half_extents)

    # _wrap moves only the columns of the coordinate rows Z (N, M) outside
    # [-L, L), and counts them
    L = grid256.half_extents
    rng = np.random.default_rng(2)
    Z = np.ascontiguousarray(rng.uniform(-1.5 * L, 1.5 * L, size=(5000, 2)).T)
    Z[:, :3] = np.array([-L, np.nextafter(L, 0.0), L]).T  # edges: in, in, out
    L = L[:, np.newaxis]
    outside = np.any((Z < -L) | (Z >= L), axis=0)
    assert outside[:3].tolist() == [False, False, True]
    before = Z.copy()
    count = mk._wrap(Z, grid256)
    assert count == int(np.sum(outside))
    assert np.array_equal(Z[:, ~outside], before[:, ~outside])
    assert np.all((Z >= -L) & (Z <= L))
    # the moved columns differ from the old ones by whole periods
    periods = (Z[:, outside] - before[:, outside]) / (2.0 * L)
    assert np.allclose(periods, np.round(periods), atol=1e-12)


def _reference_simulate(ens, model, drift, T, checkpoints, dt, integrands):
    """The Euler-Maruyama loop on (M, N) states, one fresh array per
    operation: the arithmetic `simulate` must reproduce bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=ens.seed))
    d, L = model.d, ens.box.half_extents
    states = ens.states.copy()
    t, n_steps = ens.t, int(round((T - ens.t) / dt))
    check = sorted(checkpoints)
    records, integrals, escapes = [], [], 0
    acc = [np.zeros(ens.M) for _ in integrands]

    def gather(field, pts):
        from scipy.ndimage import map_coordinates
        cells = ((pts + L) / field.grid.spacings).T
        return np.stack([map_coordinates(field.values[..., c], cells, order=1,
                                         mode="grid-wrap")
                         for c in range(field.channels)], axis=-1)

    def snapshot(time):
        records.append((time, states.copy()))
        integrals.append(tuple(a.copy() for a in acc))

    if check and np.isclose(check[0], t):
        snapshot(t)
        check.pop(0)
    for step in range(n_steps):
        for f, a in zip(integrands, acc):
            a += dt * f(t, states)
        drift_v = states @ model.B0.T
        drift_v = drift_v + gather(drift.sample(t), states)
        dx = states @ model.B1.T
        noise = rng.standard_normal(size=(ens.M, d))
        states[:, :d] += drift_v * dt + np.sqrt(dt) * noise
        states[:, d:] += dx * dt
        outside = np.any((states < -L) | (states >= L), axis=1)
        states[outside] = (states[outside] + L) % (2.0 * L) - L
        escapes += int(np.count_nonzero(outside))
        t = ens.t + (step + 1) * dt
        while check and t >= check[0] - 0.5 * dt:
            snapshot(check.pop(0))
    return states, records, integrals, escapes


def test_simulate_matches_reference_loop(kinetic, chain3, grid128):
    # drift mesh 0, 0.1, ..., 0.4 against particle steps of 0.03: every
    # step but those at t = 0 and 0.3 blends two slices; the checkpoint
    # 0.13 lies between mesh times
    grid3 = AnisoGrid.build(chain3.blocks, [16, 16, 16])
    for model, grid in ((kinetic, grid128), (chain3, grid3)):
        rng = np.random.default_rng(11)
        L = grid.half_extents
        drift = TimeField(t0=0.0, t1=0.4, fields=tuple(
            GridField(grid, rng.standard_normal(grid.shape + (model.d,)))
            for _ in range(5)))
        weight = GridField(grid, rng.standard_normal(grid.shape))
        integrands = [
            lambda t, z: np.sin(z[:, 0]) * (1.0 + t),
            lambda t, z: PeriodicInterpolator(weight)(z)[:, 0],
        ]
        ens = mk.ParticleEnsemble(
            states=rng.uniform(-L, L, size=(3000, model.N)), t=0.0, dt=0.03,
            seed=4, box=grid)
        T, check, dt = 0.39, (0.0, 0.13), 0.03
        with pytest.warns(ParticleEscapeWarning):
            out = mk.simulate(ens, model, drift, T=T, checkpoints=check,
                              dt=dt, integrands=integrands)
        states, records, integrals, escapes = _reference_simulate(
            ens, model, drift, T, check, dt, integrands)
        assert escapes > 0                      # the wrap fired
        assert out.escape_count == escapes
        assert np.array_equal(out.states, states)
        assert out.states.flags.c_contiguous
        assert [t for t, _ in out.records] == [t for t, _ in records] \
            == [0.0, 0.13]
        for (_, a), (_, b) in zip(out.records, records):
            assert np.array_equal(a, b) and a.flags.c_contiguous
        for a, b in zip(out.integrals, integrals):
            assert len(a) == len(b) == 2
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


# --- density estimation ----------------------------------------------------------

def test_kde_point_mass(kinetic, grid256):
    cell = np.array([0.5, 3.0])
    states = np.tile(cell, (2000, 1))
    ens = mk.ParticleEnsemble(states=states, t=0.0, dt=1e-3, seed=0,
                              box=grid256)
    kde = mk.kde_density(ens, grid256)
    assert float(kde.integral()[0]) == pytest.approx(1.0, abs=1e-10)
    imax = np.unravel_index(np.argmax(kde.values), kde.values.shape)
    peak = np.array([grid256.axes()[a][imax[a]] for a in range(2)])
    assert np.all(np.abs(peak - cell) <= 2.0 * grid256.spacings)


def test_kde_requires_enough_particles(kinetic, grid256):
    ens = mk.ParticleEnsemble(states=np.zeros((10, 2)), t=0.0, dt=1e-3,
                              seed=0, box=grid256)
    with pytest.raises(ValueError):
        mk.kde_density(ens, grid256)


def test_kde_accuracy_and_scaling(kinetic, grid256):
    target = resolved_kernel_density(kinetic, grid256, 1.5)
    e1 = mk.l1_distance(
        mk.kde_density(mk.sample_initial(target, 100_000, 3), grid256), target)
    e2 = mk.l1_distance(
        mk.kde_density(mk.sample_initial(target, 200_000, 4), grid256), target)
    assert e1 < 0.05
    ratio = e1 / e2
    assert np.sqrt(2.0) * 0.7 < ratio < np.sqrt(2.0) * 1.3


# --- marginal validation -----------------------------------------------------------

def test_validate_marginals_driftfree(kinetic, grid128, u0_128):
    T, n_t = 0.5, 17
    zero = GridField(grid128, np.zeros(grid128.shape + (1,)))
    b = TimeField(t0=0.0, t1=T, fields=(zero,) * n_t)
    prob = fp.FPProblem(model=kinetic, b=b, u0=u0_128, beta=0.3,
                        epsilon=0.2, T=T)
    sol = fp.solve_fp(prob, fp.bounded_rational_nonlinearity(),
                      fp.SolverConfig())
    drift = mk.frozen_drift(sol.u, b, fp.bounded_rational_nonlinearity())
    rep = mk.validate_marginals(kinetic, sol.u, drift, M=100_000, seed=5,
                                checkpoints=(T / 2, T), dt=1e-3)
    assert all(d <= 0.06 for d in rep.distances)


# --- martingale statistics -----------------------------------------------------------

def test_martingale_trivial_zero(kinetic, grid128, u0_128):
    # u = 0, g = 0: increments are exactly zero
    T, n_t = 0.5, 17
    zero = GridField(grid128, np.zeros(grid128.shape + (1,)))
    ztf = TimeField(t0=0.0, t1=T, fields=(zero,) * n_t)
    rep, _ = mk.martingale_test(kinetic, None, [ztf], [ztf], u0_128,
                                M=2000, seed=1, windows=[(0.25, 0.5)],
                                dt=1e-2)
    assert all(r.estimate == 0.0 for r in rep.rows)
    assert all(r.z == 0.0 for r in rep.rows)


def test_martingale_holds_one_solution_at_a_time(kinetic, grid128, u0_128):
    # a generator of backward solutions is read once, after the
    # simulation: each solution is dropped before the next is made, and
    # every row equals that of a list of the same solutions
    T, n_t = 0.5, 17
    times = np.linspace(0.0, T, n_t)
    bases = [sp.random_localized_field(grid128, 100 + k, decay=2.0,
                                       width=0.2) for k in range(3)]
    g_list = [TimeField(t0=0.0, t1=T, fields=(f,) * n_t) for f in bases]

    def solution(k):
        return TimeField(t0=0.0, t1=T, fields=tuple(
            bases[k] * float(T - t) for t in times))

    refs, alive = [], []

    def solutions():
        for k in range(3):
            alive.append(sum(r() is not None for r in refs))
            u = solution(k)
            refs.append(weakref.ref(u))
            yield u
            del u

    args = dict(M=2000, seed=1, windows=[(0.125, 0.25), (0.25, 0.5)],
                dt=1e-2)
    streamed = mk.martingale_test(kinetic, None, solutions(), g_list,
                                  u0_128, **args)
    assert alive == [0, 0, 0]
    listed = mk.martingale_test(kinetic, None, [solution(k) for k in range(3)],
                                g_list, u0_128, **args)
    for a, b in zip(streamed, listed):
        assert len(a.rows) == len(b.rows) == 3 * 2 * (kinetic.N + 2)
        assert [(r.estimate, r.std_error, r.z) for r in a.rows] \
            == [(r.estimate, r.std_error, r.z) for r in b.rows]

"""Particle Monte Carlo for the regularized interacting diffusion.

Only the first block gets noise: the Euler-Maruyama step is

    V <- V + (D(t, Z) + B0 Z) dt + sqrt(dt) xi,     X <- X + B1 Z dt,

with D the (mollified) drift field evaluated by periodic interpolation.
Densities are estimated by histogram binning plus spectral Gaussian
smoothing with a covariance-aware Silverman kernel, and martingale
functionals built from backward solutions are tested statistically.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotADensity, ParticleEscapeWarning
from .fields import GridField, PeriodicInterpolator, TimeField
from .spectral import apply_multiplier, gaussian_multiplier, upsample

ESCAPE_WARN_FRACTION = 1e-3
KDE_MIN_PARTICLES = 1000
# Offset of the wrong functional u + c v_1 that the martingale negative
# control tests; it must be large enough for the panel to reject it.
CONTROL_PERTURBATION = 0.1


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """M particle states in R^N with deterministic counter-based noise."""

    states: np.ndarray       # (M, N)
    t: float
    dt: float
    seed: int
    box: object = None       # AnisoGrid for periodic wrap, or None (free space)
    escape_count: int = 0
    records: tuple = ()      # (time, states snapshot) pairs

    @property
    def M(self):
        return self.states.shape[0]

    @property
    def N(self):
        return self.states.shape[1]

    def record_at(self, t):
        for rt, snap in self.records:
            if np.isclose(rt, t):
                return snap
        raise KeyError(f"no record at t={t}")


def _wrap(states, box):
    """Wrap into the box; returns (wrapped states, number of moved entries)."""
    L = box.half_extents
    wrapped = (states + L) % (2.0 * L) - L
    moved = int(np.sum(np.any(np.abs(wrapped - states) > 1e-12, axis=1)))
    return wrapped, moved


def sample_initial(u0, M, seed):
    """M i.i.d. samples from a grid density: cell multinomial + in-cell jitter."""
    grid = u0.grid
    vals = u0.values[..., 0]
    mass = float(np.sum(vals) * grid.cell_volume)
    if abs(mass - 1.0) > 1e-3:
        raise NotADensity(f"density mass {mass} differs from 1")
    if float(np.min(vals)) < -1e-3:
        raise NotADensity("density has negative values beyond tolerance")
    # spectral ringing can leave tiny negative cells; they carry no samples
    p = np.clip(vals.ravel(), 0.0, None)
    p /= p.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(M, p)
    cells = np.repeat(np.arange(p.size), counts)
    idx = np.stack(np.unravel_index(cells, grid.shape), axis=-1)
    # jitter over the cell centred at the grid point, then wrap
    jitter = rng.uniform(-0.5, 0.5, size=(M, grid.N))
    nodes = -grid.half_extents + idx * grid.spacings
    states, _ = _wrap(nodes + jitter * grid.spacings, grid)
    return ParticleEnsemble(states=states, t=0.0, dt=1e-3, seed=seed, box=grid)


def simulate(ensemble, model, drift_field, T, checkpoints=(), dt=None,
             integrands=()):
    """Euler-Maruyama to time T with snapshot records at the checkpoints.

    drift_field may be None (linear dynamics only).  `integrands` is a list
    of callables f(t, states) -> (M,) whose running time integrals are
    accumulated alongside and recorded at the checkpoints (used for the
    martingale functionals).  Deterministic given ensemble.seed.
    """
    dt = dt or ensemble.dt
    d = model.d
    B0 = model.B0
    B1 = model.B1
    interps = None if drift_field is None else _time_interps(drift_field, 1)
    rng = np.random.Generator(np.random.Philox(key=ensemble.seed))
    states = ensemble.states.copy()
    t = ensemble.t
    n_steps = int(round((T - t) / dt))
    check = sorted(float(c) for c in checkpoints)
    records = list(ensemble.records)
    escapes = ensemble.escape_count
    acc = [np.zeros(ensemble.M) for _ in integrands]
    acc_records = []

    def snapshot(time):
        records.append((time, states.copy()))
        acc_records.append((time, tuple(a.copy() for a in acc)))

    if check and np.isclose(check[0], t):
        snapshot(t)
        check.pop(0)
    for step in range(n_steps):
        for f, a in zip(integrands, acc):
            a += dt * f(t, states)
        drift_v = states @ B0.T
        if interps is not None:
            drift_v = drift_v + _eval_time_interp(interps, drift_field, t,
                                                  states)
        dx = states @ B1.T
        noise = rng.standard_normal(size=(ensemble.M, d))
        states[:, :d] += drift_v * dt + np.sqrt(dt) * noise
        states[:, d:] += dx * dt
        if ensemble.box is not None:
            states, moved = _wrap(states, ensemble.box)
            escapes += moved
        t = ensemble.t + (step + 1) * dt
        while check and t >= check[0] - 0.5 * dt:
            snapshot(check.pop(0))  # labelled by the requested checkpoint
    if ensemble.box is not None and escapes > ESCAPE_WARN_FRACTION * \
            ensemble.M * max(n_steps, 1):
        warnings.warn(
            f"{escapes} particle-steps wrapped at the box boundary",
            ParticleEscapeWarning, stacklevel=2)
    out = replace(ensemble, states=states, t=t, dt=dt,
                  escape_count=escapes, records=tuple(records))
    if integrands:
        return out, acc_records
    return out


def silverman_kernel_covariance(states, grid):
    """Silverman-scaled kernel covariance H = s^2 Cov(states).

    Using the full sample covariance orients the kernel along the tilted
    ridges the degenerate dynamics produces; per-coordinate bandwidths
    oversmooth across them.
    """
    M, N = states.shape
    s2 = (4.0 / ((N + 2.0) * M)) ** (2.0 / (N + 4.0))
    S = np.cov(states.T)
    floor = np.diag(grid.spacings ** 2)
    return s2 * S + 0.25 * s2 * floor


def kde_density(ensemble, grid=None):
    """Gaussian-kernel density estimate on the grid (binned, spectral).

    The histogram is smoothed by the exact Gaussian multiplier, so the
    estimate integrates to one by construction (periodic convolution).
    """
    grid = grid or ensemble.box
    if ensemble.M < KDE_MIN_PARTICLES:
        raise ValueError(f"KDE needs at least {KDE_MIN_PARTICLES} particles")
    # shift by half a cell so that bin k is the cell centred at grid node k
    states, _ = _wrap(ensemble.states + 0.5 * grid.spacings, grid)
    edges = [
        np.linspace(-L, L, m + 1)
        for L, m in zip(grid.half_extents, grid.shape)
    ]
    counts, _ = np.histogramdd(states, bins=edges)
    dens = counts / (ensemble.M * grid.cell_volume)
    H = silverman_kernel_covariance(states, grid)
    # The bin top-hat already smooths by cell^2/12 per axis; the Gaussian
    # factor only supplies the remainder of the kernel variance.
    H_eff = H - np.diag(grid.spacings ** 2) / 12.0
    ev = np.linalg.eigvalsh(H_eff)
    if ev[0] < 0:
        H_eff = H
    return apply_multiplier(GridField(grid, dens[..., np.newaxis]),
                            gaussian_multiplier(grid, H_eff))


def l1_distance(f, g):
    return float(np.sum(np.abs(f.values - g.values)) * f.grid.cell_volume)


def frozen_drift(fp_solution_u, b, nonlin):
    """D(t, z) = F(u_t(z)) b_t(z): the linearized drift of a solved density."""
    fields = []
    for uf, bf in zip(fp_solution_u.fields, b.fields):
        F = nonlin.matrix(uf.values[..., 0])
        g = np.einsum("...dm,...m->...d", F, bf.values)
        fields.append(GridField(uf.grid, g))
    return TimeField(t0=b.t0, t1=b.t1, fields=tuple(fields))


@dataclass(frozen=True)
class MarginalReport:
    times: tuple
    distances: tuple      # L1(grid) distance KDE vs solved density
    escapes: int
    records: tuple        # (time, states snapshot) of the simulated ensemble

    def csv_rows(self):
        yield "t,l1_distance"
        for t, d in zip(self.times, self.distances):
            yield f"{t:.10g},{d:.10g}"


def validate_marginals(model, u, b, nonlin, M, seed, checkpoints=(0.25, 0.5, 1.0),
                       dt=1e-3):
    """Simulate the linear SDE with drift frozen from the solved density
    and compare kernel density estimates against it at the checkpoints."""
    drift = frozen_drift(u, b, nonlin)
    ens = sample_initial(u.at_index(0), M, seed)
    ens = simulate(ens, model, drift, T=u.t1, checkpoints=checkpoints, dt=dt)
    times, dists = [], []
    for t in checkpoints:
        snap = ens.record_at(t)
        kde = kde_density(replace(ens, states=snap), grid=u.grid)
        dists.append(l1_distance(kde, u.sample(t)))
        times.append(float(t))
    return MarginalReport(times=tuple(times), distances=tuple(dists),
                          escapes=ens.escape_count, records=ens.records)


# --- martingale statistics -----------------------------------------------------

@dataclass(frozen=True)
class MartingaleRow:
    g_id: int
    h_id: int
    s: float
    t: float
    estimate: float
    std_error: float
    z: float


@dataclass(frozen=True)
class MartingaleReport:
    rows: tuple
    M: int

    @property
    def z_scores(self):
        return np.array([r.z for r in self.rows])

    def max_abs_z(self):
        return float(np.max(np.abs(self.z_scores)))

    def count_above(self, level=3.0):
        return int(np.sum(np.abs(self.z_scores) > level))

    def csv_rows(self):
        yield "g_id,h_id,s,t,estimate,std_error,z"
        for r in self.rows:
            yield (f"{r.g_id},{r.h_id},{r.s:.6g},{r.t:.6g},"
                   f"{r.estimate:.10g},{r.std_error:.10g},{r.z:.6g}")


def _tanh_panel(N):
    """Bounded F_s-measurable weights: products of tanh of coordinates."""
    funcs = [lambda z: np.ones(z.shape[0])]
    for k in range(N):
        funcs.append(lambda z, k=k: np.tanh(z[:, k]))
    funcs.append(lambda z: np.tanh(z[:, 0]) * np.tanh(z[:, -1]))
    return funcs


def martingale_test(model, drift, u_list, g_list, u0, M, seed,
                    windows, dt=1e-3, upsample_factor=2):
    """z-scores of E[(M^u_t - M^u_s) h(Z_s)] for backward solutions u.

    `u_list[i]` solves the backward problem with source `g_list[i]` and the
    same drift as the simulation; the functional is
    M^u_t = u(t, Z_t) - u(0, Z_0) - int_0^t g(r, Z_r) dr.  Windows are
    (s, t) pairs.  Returns (report, control): the control tests the
    deliberately wrong functional u + CONTROL_PERTURBATION * v_1 on the
    same simulated paths (negative control).
    """
    grid = u0.grid
    ens = sample_initial(u0, M, seed)
    times = sorted({w[0] for w in windows} | {w[1] for w in windows})
    g_interps = [_time_interps(g, upsample_factor) for g in g_list]

    def make_integrand(gi):
        def f(t, states):
            return _eval_time_interp(g_interps[gi], g_list[gi], t,
                                     states)[:, 0]
        return f

    integrands = [make_integrand(i) for i in range(len(g_list))]
    ens, acc_records = simulate(ens, model, drift, T=max(times),
                                checkpoints=times, dt=dt,
                                integrands=integrands)
    u_interps = [_time_interps(u, upsample_factor) for u in u_list]

    snap = {}
    for (rt, states), (_, accs) in zip(ens.records, acc_records):
        snap[round(rt, 9)] = (states, accs)

    h_panel = _tanh_panel(model.N)
    c = CONTROL_PERTURBATION
    rows, control = [], []
    for gi, u in enumerate(u_list):
        for (s, t) in windows:
            zs, acc_s = snap[round(s, 9)]
            zt, acc_t = snap[round(t, 9)]
            u_t = _eval_time_interp(u_interps[gi], u, t, zt)[:, 0]
            u_s = _eval_time_interp(u_interps[gi], u, s, zs)[:, 0]
            weights = [h(zs) for h in h_panel]
            dM = (u_t - u_s) - (acc_t[gi] - acc_s[gi])
            rows += _panel_rows(gi, s, t, dM, weights)
            dM = ((u_t + c * zt[:, 0]) - (u_s + c * zs[:, 0])) \
                - (acc_t[gi] - acc_s[gi])
            control += _panel_rows(gi, s, t, dM, weights)
    return (MartingaleReport(rows=tuple(rows), M=M),
            MartingaleReport(rows=tuple(control), M=M))


def _panel_rows(gi, s, t, dM, weights):
    """One z-score row per panel weight h(Z_s) for the increment dM."""
    rows = []
    for hi, w in enumerate(weights):
        samples = dM * w
        est = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
        se = max(se, 1e-300)
        rows.append(MartingaleRow(g_id=gi, h_id=hi, s=float(s), t=float(t),
                                  estimate=est, std_error=se, z=est / se))
    return rows


def _time_interps(tfield, factor):
    """One interpolator per time slice, built once per distinct field."""
    built = {}
    for f in tfield.fields:
        if id(f) not in built:
            built[id(f)] = PeriodicInterpolator(
                upsample(f, factor) if factor > 1 else f)
    return [built[id(f)] for f in tfield.fields]


def _eval_time_interp(interps, tfield, t, states):
    """All channels at time t, blended linearly between the two mesh slices
    around it; a time within 1e-9 steps of a mesh time reads that slice."""
    s = (t - tfield.t0) / tfield.dt
    i = int(np.clip(np.floor(s + 1e-9), 0, tfield.n_t - 2))
    w = float(s - i)
    a = interps[i](states)
    if abs(w) < 1e-9:
        return a
    return (1.0 - w) * a + w * interps[i + 1](states)

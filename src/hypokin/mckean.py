"""Particle Monte Carlo for the regularized interacting diffusion.

Only the first block gets noise: the Euler-Maruyama step is

    V <- V + (D(t, Z) + B0 Z) dt + sqrt(dt) xi,     X <- X + B1 Z dt,

with D the drift field.  Every field is read at particles in
one way: `TimeField.sample` blends the two mesh slices around t on the
grid (or returns a slice itself at a mesh time), and one
`PeriodicInterpolator` gather evaluates the result at the states.
Particles step as coordinate rows, an (N, M) array, in work arrays
allocated once per `simulate`, and leave it as (M, N) arrays.  The float
operations and their order are those of the (M, N) step, so every output
byte is the same; only the products B Z go through BLAS in the other
orientation, which may sum a one-row B1 of three or more terms in another
order.  The periodic wrap moves only the particles outside the box.
Densities are estimated by histogram binning plus spectral Gaussian
smoothing with a covariance-aware Silverman kernel, and martingale
functionals built from backward solutions are tested statistically.
Both checks take the frozen drift F(u)b of `frozen_drift`, built once by
the caller.  The martingale test reads its backward solutions once, after
the simulation, and drops each before asking for the next, so a generator
of solutions keeps only one of them alive.
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
    integrals: tuple = ()    # the integrands' running integrals per record

    @property
    def M(self):
        return self.states.shape[0]

    @property
    def N(self):
        return self.states.shape[1]

    def _checkpoint(self, t):
        """Index of the record at time t: the one checkpoint lookup."""
        for i, (rt, _) in enumerate(self.records):
            if np.isclose(rt, t):
                return i
        raise KeyError(f"no record at t={t}")

    def record_at(self, t):
        return self.records[self._checkpoint(t)][1]

    def integrals_at(self, t):
        return self.integrals[self._checkpoint(t)]


def _wrap(Z, box):
    """Wrap the columns of the coordinate rows Z (N, M) that leave the box
    [-L, L) back into it, in place; columns inside are not touched.
    Returns the number of columns moved."""
    L = box.half_extents[:, np.newaxis]
    cols = np.flatnonzero(np.any((Z < -L) | (Z >= L), axis=0))
    Z[:, cols] = (Z[:, cols] + L) % (2.0 * L) - L
    return int(cols.size)


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
    # a jumped stream: `simulate` draws its noise from counter 0 of this key
    rng = np.random.Generator(np.random.Philox(key=seed).jumped())
    counts = rng.multinomial(M, p)
    cells = np.repeat(np.arange(p.size), counts)
    idx = np.stack(np.unravel_index(cells, grid.shape), axis=-1)
    # jitter over the cell centred at the grid point, then wrap
    jitter = rng.uniform(-0.5, 0.5, size=(M, grid.N))
    nodes = -grid.half_extents + idx * grid.spacings
    states = nodes + jitter * grid.spacings
    _wrap(states.T, grid)
    return ParticleEnsemble(states=states, t=0.0, dt=1e-3, seed=seed, box=grid)


def simulate(ensemble, model, drift_field, T, checkpoints=(), dt=None,
             integrands=()):
    """Euler-Maruyama to time T with snapshot records at the checkpoints.

    drift_field may be None (linear dynamics only).  `integrands` is a list
    of callables f(t, states) -> (M,) whose running time integrals are
    accumulated alongside and recorded at the checkpoints, in `integrals`
    (used for the martingale functionals).  Deterministic given
    ensemble.seed.

    The step runs on the coordinate rows Z = states.T, a C-contiguous
    (N, M) array, and writes into work arrays allocated once per call;
    integrands and the drift gather read the (M, N) view Z.T.
    """
    dt = dt or ensemble.dt
    d = model.d
    B0 = model.B0
    B1 = model.B1
    M = ensemble.M
    rng = np.random.Generator(np.random.Philox(key=ensemble.seed))
    Z = np.ascontiguousarray(ensemble.states.T)
    noise = np.empty((M, d))
    drift_v = np.empty((d, M))
    kick = np.empty((d, M))
    dx = np.empty((Z.shape[0] - d, M))
    sqrt_dt = np.sqrt(dt)
    t = ensemble.t
    n_steps = int(round((T - t) / dt))
    check = sorted(float(c) for c in checkpoints)
    records, integrals = list(ensemble.records), list(ensemble.integrals)
    escapes = ensemble.escape_count
    acc = [np.zeros(M) for _ in integrands]

    def snapshot(time):
        records.append((time, np.ascontiguousarray(Z.T)))
        integrals.append(tuple(a.copy() for a in acc))

    if check and np.isclose(check[0], t):
        snapshot(t)
        check.pop(0)
    for step in range(n_steps):
        for f, a in zip(integrands, acc):
            a += dt * f(t, Z.T)
        np.matmul(B0, Z, out=drift_v)
        if drift_field is not None:
            drift_v += PeriodicInterpolator(drift_field.sample(t))(Z.T).T
        np.matmul(B1, Z, out=dx)
        rng.standard_normal(out=noise)
        drift_v *= dt
        np.multiply(noise.T, sqrt_dt, out=kick)
        drift_v += kick
        Z[:d] += drift_v
        dx *= dt
        Z[d:] += dx
        if ensemble.box is not None:
            escapes += _wrap(Z, ensemble.box)
        t = ensemble.t + (step + 1) * dt
        while check and t >= check[0] - 0.5 * dt:
            snapshot(check.pop(0))  # labelled by the requested checkpoint
    if ensemble.box is not None and escapes > ESCAPE_WARN_FRACTION * \
            M * max(n_steps, 1):
        warnings.warn(
            f"{escapes} particle-steps wrapped at the box boundary",
            ParticleEscapeWarning, stacklevel=2)
    return replace(ensemble, states=np.ascontiguousarray(Z.T), t=t, dt=dt,
                   escape_count=escapes, records=tuple(records),
                   integrals=tuple(integrals))


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
    states = ensemble.states + 0.5 * grid.spacings
    _wrap(states.T, grid)
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
        F = nonlin(uf.values[..., 0])
        fields.append(uf.with_values(F[..., np.newaxis] * bf.values))
    return TimeField(t0=b.t0, t1=b.t1, fields=tuple(fields))


@dataclass(frozen=True)
class MarginalReport:
    times: tuple
    distances: tuple      # L1(grid) distance KDE vs solved density
    records: tuple        # (time, states snapshot) of the simulated ensemble

    def csv_rows(self):
        yield "t,l1_distance"
        for t, d in zip(self.times, self.distances):
            yield f"{t:.10g},{d:.10g}"


def validate_marginals(model, u, drift, M, seed, checkpoints=(0.25, 0.5, 1.0),
                       dt=1e-3):
    """Simulate the linear SDE with the frozen drift and compare kernel
    density estimates against the solved density u at the checkpoints.

    `drift` is the frozen drift F(u)b of `frozen_drift` (or None for
    linear dynamics), on the mesh of u.
    """
    ens = sample_initial(u.at_index(0), M, seed)
    ens = simulate(ens, model, drift, T=u.t1, checkpoints=checkpoints, dt=dt)
    times, dists = [], []
    for t in checkpoints:
        snap = ens.record_at(t)
        kde = kde_density(replace(ens, states=snap), grid=u.grid)
        dists.append(l1_distance(kde, u.sample(t)))
        times.append(float(t))
    return MarginalReport(times=tuple(times), distances=tuple(dists),
                          records=ens.records)


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
                    windows, dt=1e-3):
    """z-scores of E[(M^u_t - M^u_s) h(Z_s)] for backward solutions u.

    `drift` is the frozen drift F(u)b of `frozen_drift` (or None).
    `u_list[i]` solves the backward problem with source `g_list[i]` and
    that drift; the functional is
    M^u_t = u(t, Z_t) - u(0, Z_0) - int_0^t g(r, Z_r) dr.  `u_list` is
    any iterable and is read once, after the simulation; each solution is
    dropped before the next is asked for, so a generator that solves on
    demand keeps one backward solution alive at a time.  Windows are
    (s, t) pairs.  Returns (report, control): the control tests the
    deliberately wrong functional u + CONTROL_PERTURBATION * v_1 on the
    same simulated paths (negative control).
    """
    ens = sample_initial(u0, M, seed)
    times = sorted({w[0] for w in windows} | {w[1] for w in windows})
    # g is read at every step, so all of its slices are upsampled once
    integrands = [lambda t, z, fine=_upsampled(g): PeriodicInterpolator(
        fine.sample(t))(z)[:, 0] for g in g_list]
    ens = simulate(ens, model, drift, T=max(times), checkpoints=times, dt=dt,
                   integrands=integrands)

    h_panel = _tanh_panel(model.N)
    c = CONTROL_PERTURBATION
    rows, control = [], []
    gi = 0
    for u in u_list:   # not enumerate: its reused result tuple would hold u
        for (s, t) in windows:
            zs, zt = ens.record_at(s), ens.record_at(t)
            # u is read only here, so only these slices are upsampled
            u_t = PeriodicInterpolator(upsample(u.sample(t)))(zt)[:, 0]
            u_s = PeriodicInterpolator(upsample(u.sample(s)))(zs)[:, 0]
            dG = ens.integrals_at(t)[gi] - ens.integrals_at(s)[gi]
            weights = [h(zs) for h in h_panel]
            rows += _panel_rows(gi, s, t, (u_t - u_s) - dG, weights)
            dM = ((u_t + c * zt[:, 0]) - (u_s + c * zs[:, 0])) - dG
            control += _panel_rows(gi, s, t, dM, weights)
        del u  # not held while the iterable makes the next solution
        gi += 1
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


def _upsampled(tfield):
    """tfield with each distinct slice upsampled 2x once; shared slices
    stay one object, so `TimeField.sample` skips their blend."""
    fine = {}
    for f in tfield.fields:
        if id(f) not in fine:
            fine[id(f)] = upsample(f)
    return replace(tfield, fields=tuple(fine[id(f)] for f in tfield.fields))

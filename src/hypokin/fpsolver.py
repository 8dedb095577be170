"""Mild-solution solver for the nonlinear singular Fokker-Planck problem.

The density is the fixed point of the mild map

    Phi(u)_t = P'_t u0 - int_0^t P'_(t-s) div_v(Ftilde(u_s) b_s) ds.

One application of Phi is `Propagator.march`, the one march that the
backward solver shares: its time integral is product integration, one
loop over the steps, with data frozen at the start of each mesh
interval, the Fourier multiplier of the singular semigroup factor
integrated exactly over it, and the steps chained through the exact
semigroup property, so one sweep costs O(n_t) applications.  The shear
exp(-tau B) of a step is frozen at tau = 0 (`Propagator.convolve_local`):
the quadrature is first order in dt.  The sources reach the chain as
half spectra, so the divergence of the flux never goes back to the grid:
a step is two transform pairs.

On the mesh Phi is causal: step k reads only u_0, ..., u_(k-1).  So the
march that builds each source from the slice it has just made is the
fixed point itself (product integration for Volterra equations), and
`solve_fp` marches once.  One more sweep of Phi over the march certifies
it; the two run in lockstep over one lazy P'_t u0, each lag made once
and read by both, and the sweep's slices are compared with the march's
as they are made and dropped, so the solve holds one solution.  The
causal march needs no exponential weight in time to contract, so every
norm here is the plain sup_t ||u_t||_(beta+eps), which sees late times
as well as early ones.  Picard iteration of Phi from u = P'u0, run by
the driver `picard_fixed_point`, survives as the cold-start certificate
`fp_certificate`, which shares `certify_march`, and with it the one
a-posteriori bound, with the backward `picard_certificate`.
"""

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import NoConvergence, NotADensity
from .fields import GridField, TimeField
from .semigroup import Propagator
from .spectral import besov_norm, div_first_block

MASS_TOL = 1e-6


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise scalar coefficient F: R -> R, with Ftilde(s) = s F(s).

    `func` maps an array of densities to an array of the same shape; the
    one F scales each of the d drift channels alike.  Both F and Ftilde
    must have bounded, Lipschitz derivatives; `validate` estimates those
    bounds on a 1-D lattice by finite differences.
    """

    func: object

    def __call__(self, s):
        return np.asarray(self.func(np.asarray(s, dtype=float)))

    def tilde(self, s):
        s = np.asarray(s, dtype=float)
        return s * self(s)

    def validate(self, s_min=-10.0, s_max=10.0, n=4001):
        """Finite-difference bounds for F' and Ftilde' on a sample lattice:
        the paper's hypotheses on F, bounded Lipschitz derivatives of F and
        Ftilde, which make the flux Lipschitz in the solver norm."""
        s = np.linspace(s_min, s_max, n)
        h = s[1] - s[0]
        report = {}
        for label, vals in (("F", self(s)), ("Ftilde", self.tilde(s))):
            deriv = np.gradient(vals, h, axis=0)
            dd = np.diff(deriv, axis=0) / h
            sup_d = float(np.max(np.abs(deriv)))
            lip_d = float(np.max(np.abs(dd)))
            if not np.isfinite(sup_d) or not np.isfinite(lip_d):
                raise ValueError(f"{label}' unbounded on the sample lattice")
            report[label] = {"sup_deriv": sup_d, "lip_deriv": lip_d}
        return report


def bounded_rational_nonlinearity():
    """F(s) = 1 / (1 + s^2); both F and sF(s) satisfy the derivative bounds."""
    return NonlinearitySpec(func=lambda s: 1.0 / (1.0 + s ** 2))


def constant_nonlinearity(c=1.0):
    return NonlinearitySpec(func=lambda s: np.full_like(s, float(c)))


def check_regularity(beta, epsilon):
    """The (beta, epsilon) pair of the forward and the backward problem."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if not 0.0 < epsilon < 1.0 - 2.0 * beta:
        raise ValueError("epsilon must lie in (0, 1 - 2 beta)")


@dataclass(frozen=True, eq=False)
class FPProblem:
    """Data of the forward Cauchy problem."""

    model: object
    b: TimeField          # drift, d channels, regularity -beta, on [0, T]
    u0: GridField         # initial density, regularity beta + eps
    beta: float
    epsilon: float
    T: float              # b.t1: the drift's mesh is the solver mesh
    strict: bool = True   # enforce the probability-density contract on u0

    def __post_init__(self):
        check_regularity(self.beta, self.epsilon)
        if self.b.t0 != 0 or self.b.t1 != self.T or self.T <= 0:
            raise ValueError(f"the drift's mesh [{self.b.t0:g}, {self.b.t1:g}]"
                             f" is not [0, T] for a T = {self.T:g} > 0")
        if self.b.channels != self.model.d:
            raise ValueError("b must have d channels")
        if self.u0.channels != 1:
            raise ValueError("u0 must be scalar")
        if not self.b.grid.is_compatible(self.u0.grid):
            raise ValueError("u0 is not on the drift's grid")
        if self.strict:
            mass = float(self.u0.integral()[0])
            if abs(mass - 1.0) > MASS_TOL:
                raise NotADensity(f"u0 mass {mass} differs from 1")
            if float(np.min(self.u0.values)) < -MASS_TOL:
                raise NotADensity("u0 has negative values")

    @property
    def kappa(self):
        """Singularity exponent beta + (eps + 1)/2 of the Duhamel kernel in
        the Schauder estimate ||P'_t div_v f||_(beta+eps) <~ t^-kappa
        ||f||_(-beta); kappa < 1 makes it integrable."""
        return self.beta + (self.epsilon + 1.0) / 2.0


@dataclass(frozen=True)
class SolverConfig:
    """Picard settings of both certificates, and the tolerance of the
    forward solve's one-sweep check (`solve_fp` reads no `max_iters`):
    constants that no config key sets, changed only to force a failure.
    The time mesh is the drift's, the time scheme `march`'s."""

    picard_tol: float = 1e-8
    max_iters: int = 30


@dataclass(frozen=True, eq=False)
class FPSolution:
    """u = Phi(u) on the solver mesh, marched once.  The Picard
    diagnostics are those of the one sweep of Phi that certifies u:
    iterations 1, contraction 0.0, converged True, and `increments` the
    fixed-point residual of u alone."""

    u: TimeField
    contraction: float
    iterations: int
    increments: tuple        # sup_t increment per iteration
    converged: bool


def picard_fixed_point(sweep, w, norm_index, cfg):
    """Iterate w <- sweep(w) to a fixed point in the norm
    sup_t ||w_t||_(norm_index); runs the certificates of both solvers
    (`certify_march`).

    Returns (w, contraction, increments), the contraction being the
    largest ratio of successive increments; raises NoConvergence if none
    falls below cfg.picard_tol within cfg.max_iters sweeps.
    """
    increments = []
    for _ in range(cfg.max_iters):
        w_next = sweep(w)
        increments.append(besov_norm(
            (a - b for a, b in zip(w_next.fields, w.fields)), norm_index))
        w = w_next
        if increments[-1] < cfg.picard_tol:
            ratios = [b / a for a, b in pairwise(increments) if a > 0]
            return w, max(ratios, default=0.0), tuple(increments)
    raise NoConvergence(
        f"Picard increment {increments[-1]:.3e} above tol after "
        f"{len(increments)} iterations")


@dataclass(frozen=True)
class PicardCertificate:
    contraction: float
    iterations: int
    increments: tuple        # sup_t increment per iteration
    distance: float          # sup_t distance of its limit to the march
    bound: float             # a-posteriori bound on that distance


def certify_march(sweep, start, march, march_norm, norm_index, cfg):
    """Iterate `sweep` from the cold `start` with `picard_fixed_point` and
    measure the distance of its limit from the marched solution `march`,
    in the driver's norm; the certificate of either solver.

    Raises NoConvergence if the iteration misses cfg.picard_tol within
    cfg.max_iters sweeps, if the measured contraction c is not below 1,
    so that no a-posteriori bound exists, or if the distance exceeds the
    bound c/(1-c) (last increment) plus a round-off floor
    1e-12 (1 + `march_norm`), march_norm being sup_t ||march_t|| in the
    driver's norm."""
    w, c, increments = picard_fixed_point(sweep, start, norm_index, cfg)
    if c >= 1.0:
        raise NoConvergence(f"Picard contraction {c:.3g} >= 1: no "
                            f"a-posteriori bound on the distance of its "
                            f"limit from the march exists")
    distance = besov_norm((a - b for a, b in zip(w.fields, march.fields)),
                          norm_index)
    bound = c / (1.0 - c) * increments[-1] + 1e-12 * (1.0 + march_norm)
    if distance > bound:
        raise NoConvergence(f"Picard limit {distance:.3e} from the "
                            f"march > bound {bound:.3e} (contraction {c:.3g})")
    return PicardCertificate(c, len(increments), increments, distance, bound)


def nonlinear_flux(u_field, b_field, nonlin):
    """G = Ftilde(u) b as a d-channel field."""
    return u_field.with_values(nonlin.tilde(u_field.values[..., 0])
                               [..., np.newaxis] * b_field.values)


def _flux_source(problem, nonlin):
    """source_of of the march of P' (`Propagator.march`): the half
    spectrum of div_v(Ftilde(v) b_i) for the slice v at mesh time i."""
    b = problem.b
    return lambda i, v: div_first_block(nonlinear_flux(v, b.at_index(i),
                                                       nonlin))


def _homogeneous(problem):
    """P'_t u0 on the drift's mesh (`Propagator.evolve`), as a tuple."""
    b = problem.b
    return tuple(Propagator(problem.model, b.grid).evolve(
        problem.u0, b.times, adjoint=True))


def picard_J(u, problem, nonlin, homogeneous=None):
    """One application of the mild map Phi to u on the drift's mesh:
    `Propagator.march` of P' from P'_t u0 over the sources
    div_v(Ftilde(u) b) at the mesh times 0, ..., T - dt, streamed as half
    spectra; see `Propagator.march` for the step and the local term.
    `homogeneous` holds P'_t u0 on the mesh (`Propagator.evolve`),
    computed here when not given.
    """
    b = problem.b
    if u.mesh != b.mesh:
        raise ValueError(f"u is on the time mesh {u.mesh}, not b's")
    if homogeneous is None:
        homogeneous = _homogeneous(problem)
    source = _flux_source(problem, nonlin)
    out = Propagator(problem.model, b.grid).march(
        homogeneous, lambda i, _: source(i, u.at_index(i)), b.dt,
        adjoint=True)
    return TimeField(t0=b.t0, t1=b.t1, fields=tuple(out))


def solve_fp(problem, nonlin, cfg=None):
    """The fixed point of Phi in one causal march of P' from P'_t u0: the
    source of step i is built from u_i, the slice made just before, so
    the march is Picard iterated to exhaustion.  One sweep of Phi over the
    march certifies it, run in lockstep with the march: each lag of P'_t
    u0 is made once and read by both, the sweep's step k reads the
    march's u_(k-1), and its slices go straight into the increment
    sup_t ||Phi(u)_t - u_t||_(beta+eps), so the solve holds one
    solution.  The sweep reads the march's floats, so the increment is 0
    at the fixed point; one at or above cfg.picard_tol means the march
    is not the fixed point, and raises NoConvergence."""
    cfg = cfg or SolverConfig()
    b = problem.b
    prop = Propagator(problem.model, b.grid)
    source = _flux_source(problem, nonlin)
    held, fields = [], []       # held: the lag the march read last

    def lags():
        for lag in prop.evolve(problem.u0, b.times, adjoint=True):
            held.append(lag)
            yield lag

    march = prop.march(lags(), source, b.dt, adjoint=True)
    sweep = prop.march((held.pop() for _ in b.times),
                       lambda i, _: source(i, fields[i]), b.dt, adjoint=True)

    def increments():
        # zip makes u_k first, so the sweep's step k finds lag k in
        # `held` and u_(k-1) in `fields`
        for u, w in zip(march, sweep):
            fields.append(u)
            yield w - u

    residual = besov_norm(increments(), problem.beta + problem.epsilon)
    if not residual < cfg.picard_tol:
        raise NoConvergence(f"the march is off the fixed point of Phi: "
                            f"sweep increment {residual:.3e} >= "
                            f"tol {cfg.picard_tol:.1e}")
    return FPSolution(u=TimeField(t0=b.t0, t1=b.t1, fields=tuple(fields)),
                      contraction=0.0, iterations=1, increments=(residual,),
                      converged=True)


def fp_certificate(problem, nonlin, sol, cfg=None):
    """Picard iteration of Phi from the cold start P'_t u0, checked
    against the march sol.u by `certify_march`: raises NoConvergence if
    the iteration misses cfg.picard_tol within cfg.max_iters sweeps or
    its limit lies beyond the a-posteriori bound from the march."""
    cfg = cfg or SolverConfig()
    norm_index = problem.beta + problem.epsilon
    homogeneous = _homogeneous(problem)
    return certify_march(
        lambda u: picard_J(u, problem, nonlin, homogeneous=homogeneous),
        TimeField(t0=problem.b.t0, t1=problem.b.t1, fields=homogeneous),
        sol.u, besov_norm(sol.u, norm_index), norm_index, cfg)


@dataclass(frozen=True)
class ConservationReport:
    times: tuple
    mass: tuple
    min_value: tuple
    negative_fraction: tuple

    def passes(self, delta=1e-3):
        ok_mass = all(abs(m - 1.0) <= delta for m in self.mass)
        ok_min = all(v >= -delta for v in self.min_value)
        return ok_mass and ok_min

    def csv_rows(self):
        yield "t,mass,min_value,negative_fraction"
        for t, m, v, nf in zip(self.times, self.mass, self.min_value,
                               self.negative_fraction):
            yield f"{t:.10g},{m:.12g},{v:.6g},{nf:.6g}"


def conservation_report(u):
    """Per-time mass, minimum value and negative-mass fraction of a density."""
    times, mass, min_value, neg_frac = [], [], [], []
    for t, f in zip(u.times, u.fields):
        v = f.values[..., 0]
        total = np.sum(v) * u.grid.cell_volume
        neg = -np.sum(v[v < 0]) * u.grid.cell_volume
        times.append(float(t))
        mass.append(float(total))
        min_value.append(float(np.min(v)))
        neg_frac.append(float(neg / abs(total)) if total != 0 else 0.0)
    return ConservationReport(times=tuple(times), mass=tuple(mass),
                              min_value=tuple(min_value),
                              negative_fraction=tuple(neg_frac))

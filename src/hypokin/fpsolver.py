"""Mild-solution solver for the nonlinear singular Fokker-Planck problem.

The density solves u_t = P'_t u0 - int_0^t P'_(t-s) div_v(u_s F(u_s) b_s) ds.
Writing u = w + P'u0, w is the fixed point of

    J(w)_t = - int_0^t P'_(t-s) [ div_v( Ftilde(w_s + P'_s u0) b_s ) ] ds,

found by Picard iteration in the exponentially weighted sup norm
sup_t e^(-rho t) ||w_t||_(beta+eps).  The time integral is product
integration, `Propagator.duhamel`, the one chain that the backward solver
shares: data frozen at the start of each mesh interval, the Fourier
multiplier of the singular semigroup factor integrated exactly over it,
and the steps chained through the exact semigroup property, so one sweep
costs O(n_t) applications.  The shear exp(-tau B) of a step is frozen at
tau = 0 (`Propagator.convolve_local`): the quadrature is first order in dt.
The sources reach the chain as half spectra, so the divergence of the
flux never goes back to the grid: a step is two transform pairs.
"""

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import NoConvergence, NotADensity
from .fields import GridField, TimeField, zero_time_field
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
    """Picard settings of the forward solver and the backward certificate;
    the time mesh is the drift's, and the one time scheme `duhamel`'s."""

    rho: float = 0.0
    picard_tol: float = 1e-8
    max_iters: int = 30


@dataclass(frozen=True, eq=False)
class FPSolution:
    """u = w* + P'_t u0 on the solver mesh; the Picard diagnostics of w*
    are all measured in the one weighted norm of weight rho."""

    u: TimeField
    rho: float
    contraction: float
    iterations: int
    increments: tuple        # rho-weighted increment per iteration
    converged: bool


def picard_fixed_point(sweep, w, weight_times, norm_index, cfg):
    """Iterate w <- sweep(w) to a fixed point in the weighted norm
    sup_t e^(-rho s_t) ||w_t||_(norm_index) with rho = cfg.rho and s_t the
    `weight_times` (t forward, T - t backward); solves the forward problem
    and certifies the backward march.

    The weight changes only the metric, never the iterates, and it is not
    re-chosen during a run: a larger rho could only make the stop rule
    laxer at late times.  Returns (w, contraction, weighted increments),
    the contraction being the largest ratio of successive increments;
    raises NoConvergence if none falls below cfg.picard_tol within
    cfg.max_iters sweeps.
    """
    weights = np.exp(-cfg.rho * weight_times)
    weighted = []
    for _ in range(cfg.max_iters):
        w_next = sweep(w)
        weighted.append(besov_norm(
            (a - b for a, b in zip(w_next.fields, w.fields)),
            norm_index, weights))
        w = w_next
        if weighted[-1] < cfg.picard_tol:
            ratios = [b / a for a, b in pairwise(weighted) if a > 0]
            return w, max(ratios, default=0.0), tuple(weighted)
    raise NoConvergence(
        f"Picard increment {weighted[-1]:.3e} above tol after "
        f"{len(weighted)} iterations (rho={cfg.rho:g})")


def nonlinear_flux(w_field, hom_field, b_field, nonlin):
    """G = Ftilde(w + P'u0) b as a d-channel field."""
    s = w_field.values[..., 0] + hom_field.values[..., 0]
    return w_field.with_values(nonlin.tilde(s)[..., np.newaxis]
                               * b_field.values)


def picard_J(w, problem, nonlin, homogeneous=None):
    """One application of the Duhamel map J to w on the drift's mesh.

    The sources -div_v(Ftilde(w + P'u0) b) at the mesh times 0, ..., T - dt
    stream as half spectra into one `Propagator.duhamel` chain of P'; see
    there for the step and the local term.  `homogeneous` holds P'_t u0 on
    the mesh (`Propagator.evolve`), computed here when not given.
    """
    if w.mesh != problem.b.mesh:
        raise ValueError(f"w is on the time mesh {w.mesh}, not b's")
    prop = Propagator(problem.model, w.grid)
    if homogeneous is None:
        homogeneous = prop.evolve(problem.u0, w.times, adjoint=True)
    sources = (-div_first_block(nonlinear_flux(
        w.at_index(i), homogeneous[i], problem.b.at_index(i), nonlin))
        for i in range(w.n_t - 1))
    out = prop.duhamel(sources, w.dt, adjoint=True)
    return TimeField(t0=w.t0, t1=w.t1, fields=tuple(out))


def solve_fp(problem, nonlin, cfg=None):
    """Picard fixed point of J; returns u = w* + P'_t u0 with diagnostics."""
    cfg = cfg or SolverConfig()
    b = problem.b
    prop = Propagator(problem.model, b.grid)
    homogeneous = prop.evolve(problem.u0, b.times, adjoint=True)
    w, contraction, weighted = picard_fixed_point(
        lambda w: picard_J(w, problem, nonlin, homogeneous=homogeneous),
        zero_time_field(b), b.times, problem.beta + problem.epsilon, cfg)
    u = TimeField(t0=0.0, t1=problem.T, fields=tuple(
        wf + hf for wf, hf in zip(w.fields, homogeneous)))
    return FPSolution(u=u, rho=cfg.rho, contraction=contraction,
                      iterations=len(weighted), increments=weighted,
                      converged=True)


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

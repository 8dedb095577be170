"""Mild-solution solver for the nonlinear singular Fokker-Planck problem.

The density solves u_t = P'_t u0 - int_0^t P'_(t-s) div_v(u_s F(u_s) b_s) ds.
Writing u = w + P'u0, w is the fixed point of

    J(w)_t = - int_0^t P'_(t-s) [ div_v( Ftilde(w_s + P'_s u0) b_s ) ] ds,

found by Picard iteration in the exponentially weighted sup norm
sup_t e^(-rho t) ||w_t||_(beta+eps).  The time integral is product
integration, `Propagator.duhamel`, the one chain that the backward solver
shares: data are frozen (or linear) per mesh interval, the Fourier
multiplier of the singular semigroup factor is integrated exactly over
each interval, and the steps are chained through the exact semigroup
property so one sweep costs O(n_t) applications.  Inside a step the
shear exp(-tau B) is frozen at tau = 0 (`Propagator.convolve_local`), so
the transport, and with it the quadrature, is first order in dt for both
schemes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotADensity, RegularityError
from .fields import GridField, TimeField, zero_time_field
from .semigroup import Propagator
from .spectral import besov_norm, div_first_block

MASS_TOL = 1e-6
# rho ladder of the Picard driver: a contraction estimate above the
# threshold doubles rho, starting from RHO_BASE / T, at most RHO_RETRIES times
RHO_BASE = 16.0
RHO_RETRIES = 3
CONTRACTION_THRESHOLD = 0.9


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise coefficient F: R -> d x m matrices, with Ftilde(s) = s F(s).

    `func` maps an array of densities to an array of shape s.shape + (d, m).
    Both F and Ftilde must have bounded, Lipschitz derivatives; `validate`
    estimates those bounds on a 1-D lattice by finite differences.
    """

    name: str
    func: object
    d: int = 1
    m: int = 1

    def matrix(self, s):
        out = np.asarray(self.func(np.asarray(s, dtype=float)))
        if out.shape == np.shape(s):
            out = out[..., np.newaxis, np.newaxis]
        return out

    def tilde(self, s):
        s = np.asarray(s, dtype=float)
        return s[..., np.newaxis, np.newaxis] * self.matrix(s)

    def validate(self, s_min=-10.0, s_max=10.0, n=4001):
        """Finite-difference bounds for F' and Ftilde' on a sample lattice."""
        s = np.linspace(s_min, s_max, n)
        h = s[1] - s[0]
        report = {}
        for label, vals in (("F", self.matrix(s)), ("Ftilde", self.tilde(s))):
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
    return NonlinearitySpec(name="bounded-rational",
                            func=lambda s: 1.0 / (1.0 + s ** 2))


def constant_nonlinearity(c=1.0):
    return NonlinearitySpec(name=f"constant({c:g})",
                            func=lambda s: np.full_like(s, float(c)))


NONLINEARITIES = {
    "bounded-rational": bounded_rational_nonlinearity,
    "constant": constant_nonlinearity,
}


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
    b: TimeField          # drift, m channels, regularity -beta
    u0: GridField         # initial density, regularity beta + eps
    beta: float
    epsilon: float
    T: float
    strict: bool = True   # enforce the probability-density contract on u0

    def __post_init__(self):
        check_regularity(self.beta, self.epsilon)
        if self.T <= 0:
            raise ValueError("T must be positive")
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
        """Integrable singularity exponent beta + (eps + 1)/2 of the Duhamel kernel."""
        return self.beta + (self.epsilon + 1.0) / 2.0


@dataclass(frozen=True)
class SolverConfig:
    """Picard settings of the forward solver and the backward certificate."""

    rho: float = 0.0
    picard_tol: float = 1e-8
    max_iters: int = 40
    n_t: int = 128
    scheme: str = "constant"      # forward only: 'constant' or 'linear' data


@dataclass(frozen=True, eq=False)
class FPSolution:
    u: TimeField
    w: TimeField
    homogeneous: TimeField
    rho: float
    contraction: float
    iterations: int
    increments: tuple        # rho-weighted increment per iteration
    increment_histories: tuple  # per-iteration per-time Besov increment norms
    converged: bool

    def contraction_at(self, rho):
        """Measured contraction factor if the weight had been exp(-rho t)."""
        return _contraction([weighted_increment(h, rho, self.u.times)
                             for h in self.increment_histories])


def weighted_increment(history, rho, weight_times):
    """max_t e^(-rho s_t) h_t: a per-time increment history in the weighted
    sup norm, with s_t the weight time (t forward, T - t backward)."""
    return float(np.max(np.exp(-rho * weight_times) * np.asarray(history)))


def _contraction(weighted):
    """Largest ratio of successive weighted increments."""
    ratios = [b / a for a, b in zip(weighted, weighted[1:]) if a > 0]
    return max(ratios) if ratios else 0.0


def picard_fixed_point(sweep, w, weight_times, norm_index, cfg):
    """Iterate w <- sweep(w) to a fixed point in the weighted norm
    sup_t e^(-rho s_t) ||w_t||_(norm_index); solves the forward problem
    and certifies the backward march.

    The weight rho only changes the metric, not the iterates, so a failed
    contraction estimate retries with doubled rho, from RHO_BASE / T with T
    the largest weight time, on the stored increment history instead of
    re-solving.  Returns (w, rho, contraction,
    iterations, weighted increments, increment histories).
    """
    T = float(np.max(weight_times))
    histories = []
    rho, retries = cfg.rho, 0

    def ratio_at(r):
        prev, cur = (weighted_increment(h, r, weight_times)
                     for h in histories[-2:])
        return cur / prev if prev > 0 else 0.0

    for _ in range(cfg.max_iters):
        w_next = sweep(w)
        histories.append(tuple(besov_norm(a - b, norm_index)
                               for a, b in zip(w_next.fields, w.fields)))
        w = w_next
        if weighted_increment(histories[-1], rho, weight_times) \
                < cfg.picard_tol:
            break
        if len(histories) >= 3:
            while ratio_at(rho) > CONTRACTION_THRESHOLD \
                    and retries < RHO_RETRIES:
                rho = max(2.0 * rho, RHO_BASE / T)
                retries += 1
    else:
        raise NoConvergence(
            f"Picard increment "
            f"{weighted_increment(histories[-1], rho, weight_times):.3e} "
            f"above tol after {len(histories)} iterations (rho={rho:g})"
        )
    weighted = tuple(weighted_increment(h, rho, weight_times)
                     for h in histories)
    return w, rho, _contraction(weighted), len(histories), weighted, \
        tuple(histories)


def nonlinear_flux(w_field, hom_field, b_field, nonlin):
    """G = Ftilde(w + P'u0) b as a d-channel field (row-by-column product)."""
    s = w_field.values[..., 0] + hom_field.values[..., 0]
    ft = nonlin.tilde(s)                       # shape grid + (d, m)
    g = np.einsum("...dm,...m->...d", ft, b_field.values)
    return w_field.with_values(g)


def picard_J(w, problem, nonlin, cfg=None, prop=None, homogeneous=None):
    """One application of the Duhamel map J on the solver mesh.

    The sources -div_v(Ftilde(w + P'u0) b) go to one `Propagator.duhamel`
    chain of P'; see there for the step and the local term.
    """
    cfg = cfg or SolverConfig(n_t=w.n_t)
    prop = prop or Propagator(problem.model, w.grid)
    homogeneous = prop.evolve(problem.u0, w.times, adjoint=True) \
        if homogeneous is None else homogeneous.fields
    linear = cfg.scheme == "linear"
    sources = [div_first_block(nonlinear_flux(
        w.at_index(i), homogeneous[i], problem.b.at_index(i), nonlin)) * -1.0
        for i in range(w.n_t if linear else w.n_t - 1)]
    out = prop.duhamel(sources, w.dt, adjoint=True, linear=linear)
    return TimeField(t0=w.t0, t1=w.t1, fields=tuple(out))


def solve_fp(problem, nonlin, cfg=None):
    """Picard fixed point of J; returns u = w* + P'_t u0 with diagnostics."""
    cfg = cfg or SolverConfig()
    if (nonlin.d, nonlin.m) != (problem.model.d, problem.b.channels):
        raise RegularityError(
            f"nonlinearity is {nonlin.d} x {nonlin.m} but the model has "
            f"d={problem.model.d} and the drift {problem.b.channels} channels"
        )
    grid = problem.b.grid
    prop = Propagator(problem.model, grid)
    times = np.linspace(0.0, problem.T, cfg.n_t)
    homogeneous = TimeField(
        t0=0.0, t1=problem.T,
        fields=tuple(prop.evolve(problem.u0, times, adjoint=True)),
    )
    w, rho, contraction, iterations, weighted, histories = picard_fixed_point(
        lambda w: picard_J(w, problem, nonlin, cfg, prop=prop,
                           homogeneous=homogeneous),
        zero_time_field(grid, problem.T, cfg.n_t), times,
        problem.beta + problem.epsilon, cfg)
    u_fields = tuple(wf + hf for wf, hf in zip(w.fields, homogeneous.fields))
    u = TimeField(t0=0.0, t1=problem.T, fields=u_fields)
    return FPSolution(u=u, w=w, homogeneous=homogeneous, rho=rho,
                      contraction=contraction, iterations=iterations,
                      increments=weighted, increment_histories=histories,
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

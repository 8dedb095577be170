"""Backward Kolmogorov mild solver and the drift-taming coordinate change.

Solves  K u + <Bc, grad_v> u = lambda u + g,  u_T = ell  via the resolvent
form

    u_t = e^(-lambda (T-t)) P_(T-t) ell
          - int_t^T e^(-lambda (s-t)) P_(s-t) [ g_s - <Bc_s, grad_v> u_s ] ds.

On the solver mesh the time integral is the forward solver's
`Propagator.duhamel` chain, marched backward from T with P for P' and the
damping e^(-lambda dt) per step; its sources are the half spectra
fftn(g_i) - band_mask fftn(<Bc_i, grad_v> w_i), and the terminal term is
`Propagator.evolve` of ell.  The value at step i reads only the values
after it, so one backward march gives the discrete solution exactly; the
Picard iteration in the weighted norm sup_t e^(-rho (T-t))
||u_t||_(1+beta+eps) is kept as the certificate `picard_certificate`.  The
coordinate change phi_t(z) = z + u_t(z), built from the system with
g = -(Bc; 0), straightens the singular drift; its inverse psi is computed
by the contraction v -> v_tilde - u_1(t, v, x_tilde).
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GradientBoundViolated, LadderExhausted, NoConvergence
from .fields import (GridField, PeriodicInterpolator, TimeField,
                     zero_time_field)
from .fpsolver import SolverConfig, check_regularity, picard_fixed_point
from .semigroup import Propagator
from .spectral import band_mask, besov_norm, fftn, spectral_derivative


@dataclass(frozen=True, eq=False)
class BackwardProblem:
    """Terminal-value problem data on the time mesh of Bc, which g shares."""

    model: object
    Bc: TimeField            # singular drift, d channels
    g: TimeField             # source, k channels (None for zero)
    ell: GridField           # terminal datum, k channels (None for zero)
    lam: float
    beta: float
    epsilon: float

    def __post_init__(self):
        check_regularity(self.beta, self.epsilon)
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.Bc.channels != self.model.d:
            raise ValueError("Bc must have d channels")
        if self.g is None and self.ell is None:
            raise ValueError("at least one of g, ell must be given")
        if self.g is not None and self.g.mesh != self.Bc.mesh:
            raise ValueError(f"g is on the time mesh {self.g.mesh}, not Bc's")

    @property
    def T(self):
        return self.Bc.t1

    @property
    def channels(self):
        return (self.g if self.g is not None else self.ell).channels

    @property
    def norm_index(self):
        return 1.0 + self.beta + self.epsilon

    @classmethod
    def zvonkin(cls, model, Bc, lam, beta, epsilon):
        """System K u + <Bc, grad_v> u = lambda u - (Bc; 0), u_T = 0.

        Only the first d components are solved; the trailing N - d ones
        vanish identically and are kept analytic.
        """
        g = TimeField(t0=Bc.t0, t1=Bc.t1,
                      fields=tuple(f * (-1.0) for f in Bc.fields))
        return cls(model=model, Bc=Bc, g=g, ell=None, lam=lam, beta=beta,
                   epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """The marched solution; its two norms are computed on first read."""

    u: TimeField
    norm_index: float        # 1 + beta + eps

    @cached_property
    def sup_norm_index(self):
        """sup_t ||u_t|| at 1 + beta + eps."""
        return besov_norm(self.u, self.norm_index)

    @cached_property
    def grad_sup(self):
        """sup over t, z of |grad_v u| (spectral)."""
        return _sup_grad_v(self.u)


@dataclass(frozen=True)
class PicardCertificate:
    rho: float
    contraction: float
    iterations: int
    increments: tuple        # rho-weighted increment per iteration
    distance: float          # weighted distance of its limit to the march
    bound: float             # a-posteriori bound on that distance


def _transport_term(grid, Bc_field, w_field):
    """<Bc, grad_v> w per channel, band-limited, as a half spectrum."""
    out = sum(Bc_field.values[..., l:l + 1]
              * spectral_derivative(w_field, l).values
              for l in range(grid.blocks.d))
    spectrum = fftn(out)
    spectrum *= band_mask(grid)[..., np.newaxis]
    return spectrum


def _source(problem, i, w_i):
    """g_i - <Bc_i, grad_v> w_i: the half spectrum of the source of mesh
    step i."""
    transport = _transport_term(w_i.grid, problem.Bc.at_index(i), w_i)
    if problem.g is None:
        return -transport
    spectrum = fftn(problem.g.at_index(i).values)
    spectrum -= transport
    return spectrum


def _terminal_sweep(problem, prop):
    """e^(-lambda (T-t)) P_(T-t) ell on the mesh, each time one-shot."""
    Bc = problem.Bc
    if problem.ell is None:
        return zero_time_field(Bc, problem.channels).fields
    return prop.evolve(problem.ell, Bc.t1 - Bc.times, lam=problem.lam)


def _march(problem, prop, terminal, read):
    """u = terminal - the `Propagator.duhamel` chain of P damped by
    e^(-lambda dt) per step, run backward from T over the sources of steps
    n_t - 1, ..., 1; the source of step i is built from read(i, u), with u
    the values made so far."""
    Bc = problem.Bc
    u = []
    sources = (_source(problem, i, read(i, u))
               for i in range(Bc.n_t - 1, 0, -1))
    integrals = prop.duhamel(sources, Bc.dt, lam=problem.lam)
    for t, integral in zip(terminal[::-1], integrals):
        u.append(t - integral)
    return TimeField(t0=Bc.t0, t1=Bc.t1, fields=tuple(u[::-1]))


def backward_sweep(w, problem, prop, terminal):
    """One application of the resolvent fixed-point map to the mesh
    function w: every source is built from w."""
    if w.mesh != problem.Bc.mesh:
        raise ValueError(f"w is on the time mesh {w.mesh}, not Bc's")
    return _march(problem, prop, terminal, lambda i, u: w.at_index(i))


def solve_kolmogorov(problem):
    """The resolvent equation on the mesh of Bc in one backward march:
    step i reads only the values after it, so each source is built from
    the value made just before, and the one pass is the fixed point of
    `backward_sweep`."""
    prop = Propagator(problem.model, problem.Bc.grid)
    w = _march(problem, prop, _terminal_sweep(problem, prop),
               lambda i, u: u[-1])
    return BackwardSolution(u=w, norm_index=problem.norm_index)


def picard_certificate(problem, sol, cfg=None):
    """Iterate `backward_sweep` from zero with the Picard driver and check
    its limit against the march sol.u in the weighted norm
    sup_t e^(-rho (T-t)) ||.||_(1+beta+eps).  Raises NoConvergence if the
    iteration misses cfg.picard_tol within cfg.max_iters sweeps, or if the
    distance exceeds the a-posteriori bound c/(1-c) (last increment), c
    the measured contraction, plus a round-off floor 1e-12 (1 + sup_t
    ||u_t||)."""
    cfg = cfg or SolverConfig()
    prop = Propagator(problem.model, problem.Bc.grid)
    lags = problem.T - problem.Bc.times
    terminal = _terminal_sweep(problem, prop)
    w, c, weighted = picard_fixed_point(
        lambda w: backward_sweep(w, problem, prop, terminal),
        zero_time_field(problem.Bc, problem.channels),
        lags, problem.norm_index, cfg)
    distance = besov_norm((a - b for a, b in zip(w.fields, sol.u.fields)),
                          problem.norm_index, np.exp(-cfg.rho * lags))
    bound = c / (1.0 - c) * weighted[-1] \
        + 1e-12 * (1.0 + sol.sup_norm_index) if c < 1.0 else 0.0
    if c >= 1.0 or distance > bound:
        raise NoConvergence(f"Picard limit {distance:.3e} from the march "
                            f"> bound {bound:.3e} (contraction {c:.3g})")
    return PicardCertificate(cfg.rho, c, len(weighted), weighted, distance,
                             bound)


def _sup_grad_v(u):
    """sup over t, z of the Euclidean norm of the first-block Jacobian."""
    return max(float(np.sqrt(np.max(sum(
        np.sum(spectral_derivative(f, l).values ** 2, axis=-1)
        for l in range(u.grid.blocks.d))))) for f in u.fields)


@dataclass(frozen=True)
class LadderResult:
    lam: float
    achieved_norm: float
    grad_sup: float
    rungs: tuple             # (lambda, norm, grad_sup) per rung
    solution: BackwardSolution

    def csv_rows(self):
        yield "lambda,achieved_norm,grad_sup"
        for lam, norm, gs in self.rungs:
            yield f"{lam:.10g},{norm:.10g},{gs:.10g}"


def lambda_bar_search(problem, cfg=None, bound=0.5, lam_cap=2 ** 20,
                      require_gradient=False):
    """Smallest lambda on the doubling ladder with sup_t ||u_t|| <= bound.

    The norm is the solver norm at index 1 + beta + eps.  With
    require_gradient=True the measured sup |grad_v u| must also meet the
    bound (needed before inverting the coordinate change).  `cfg` is not
    read: the march takes no settings; the slot stays for its callers.
    """
    if problem.ell is not None:
        raise ValueError("the ladder applies to zero terminal data")
    rungs, lam = [], 1.0
    while lam <= lam_cap:
        sol = solve_kolmogorov(replace(problem, lam=lam))
        rungs.append((lam, sol.sup_norm_index, sol.grad_sup))
        if sol.sup_norm_index <= bound \
                and (not require_gradient or sol.grad_sup <= bound):
            return LadderResult(lam=lam, achieved_norm=sol.sup_norm_index,
                                grad_sup=sol.grad_sup, rungs=tuple(rungs),
                                solution=sol)
        lam *= 2.0
    raise LadderExhausted(f"norm bound {bound} not achieved by "
                          f"lambda={lam_cap}; the drift is likely mis-scaled")


# --- coordinate change ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZvonkinMaps:
    """phi_t(z) = z + u_t(z) with u the solution of the taming system.

    u carries the first d components; components d+1..N vanish identically,
    so the second block of phi is the identity in x.  grad_bound certifies
    sup |grad_v u| <= 1/2, which makes the inverse a 1/2-contraction.
    """

    u: TimeField
    grad_bound: float

    @property
    def d(self):
        return self.u.grid.blocks.d

    def displacement(self, t, z):
        """u_1(t, z) evaluated by periodic interpolation of `TimeField.sample`
        at t; z is (M, N)."""
        return PeriodicInterpolator(self.u.sample(t))(np.asarray(z, float))

    def phi(self, t, z):
        out = np.array(z, dtype=float)
        out[..., : self.d] += self.displacement(t, out)
        return out

    def psi(self, t, z_tilde, tol=1e-10, max_iter=200):
        """Inverse of phi_t: x = x_tilde, v the fixed point of
        v -> v_tilde - u_1(t, v, x_tilde).

        Returns (points, observed contraction factor).
        """
        z_tilde = np.atleast_2d(np.asarray(z_tilde, dtype=float))
        v = z_tilde[..., : self.d].copy()
        rest = z_tilde[..., self.d:]
        prev_step, observed = 0.0, 0.0
        for _ in range(max_iter):
            pts = np.concatenate([v, rest], axis=-1)
            v_new = z_tilde[..., : self.d] - self.displacement(t, pts)
            step = float(np.max(np.abs(v_new - v)))
            if prev_step > 0:
                observed = max(observed, step / prev_step)
            prev_step = step
            v = v_new
            if step < tol:
                return np.concatenate([v, rest], axis=-1), observed
        raise NoConvergence("inverse map iteration failed; the gradient "
                            "certificate must have been violated")


def zvonkin_phi(u, grad_bound=None):
    """Wrap the taming-system solution into evaluators, checking <= 1/2."""
    if grad_bound is None:
        grad_bound = _sup_grad_v(u)
    if grad_bound > 0.5:
        raise GradientBoundViolated(
            f"sup |grad_v u| = {grad_bound:.4f} exceeds 1/2")
    return ZvonkinMaps(u=u, grad_bound=grad_bound)

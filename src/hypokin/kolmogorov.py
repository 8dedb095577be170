"""Backward Kolmogorov mild solver and the drift-taming coordinate change.

Solves  K u + <Bc, grad_v> u = lambda u + g,  u_T = ell  via the resolvent
form

    u_t = e^(-lambda (T-t)) P_(T-t) ell
          - int_t^T e^(-lambda (s-t)) P_(s-t) [ g_s - <Bc_s, grad_v> u_s ] ds,

iterated to a fixed point in the backward weighted norm
sup_t e^(-rho (T-t)) ||u_t||_(1+beta+eps).  The time integral is the
forward solver's `Propagator.duhamel` chain, marched backward from T with
P for P' and the damping e^(-lambda dt) per step; the terminal term is
`Propagator.evolve` of ell.  The coordinate change
phi_t(z) = z + u_t(z), built from the system with g = -(Bc; 0), straightens
the singular drift; its inverse psi is computed by the contraction
v -> v_tilde - u_1(t, v, x_tilde).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import GradientBoundViolated, LadderExhausted, NoConvergence
from .fields import (GridField, PeriodicInterpolator, TimeField,
                     zero_time_field)
from .fpsolver import SolverConfig, check_regularity, picard_fixed_point
from .semigroup import Propagator
from .spectral import bandlimit, besov_norm, spectral_derivative


@dataclass(frozen=True, eq=False)
class BackwardProblem:
    """Terminal-value problem data; g and ell may be vector-valued."""

    model: object
    Bc: TimeField            # singular drift, d channels
    g: TimeField             # source, k channels (None for zero)
    ell: GridField           # terminal datum, k channels (None for zero)
    lam: float
    T: float
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

    @property
    def channels(self):
        if self.g is not None:
            return self.g.channels
        return self.ell.channels

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
        return cls(model=model, Bc=Bc, g=g, ell=None, lam=lam,
                   T=Bc.t1, beta=beta, epsilon=epsilon)


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    u: TimeField
    rho: float
    contraction: float
    iterations: int
    increments: tuple
    converged: bool
    sup_norm_index: float    # sup_t ||u_t|| at 1 + beta + eps
    grad_sup: float          # sup over t, z of |grad_v u| (spectral)


def _transport_term(grid, Bc_field, w_field):
    """<Bc, grad_v> w per channel, band-limited."""
    d = grid.blocks.d
    out = np.zeros(grid.shape + (w_field.channels,))
    for l in range(d):
        out += Bc_field.values[..., l:l + 1] \
            * spectral_derivative(w_field, l).values
    return bandlimit(w_field.with_values(out)).values


def _terminal_sweep(problem, prop, times):
    """e^(-lambda (T-t)) P_(T-t) ell on the mesh, each time one-shot."""
    grid = prop.grid
    if problem.ell is None:
        zero = GridField(grid, np.zeros(grid.shape + (problem.channels,)))
        return [zero] * len(times)
    return prop.evolve(problem.ell, times[-1] - times, lam=problem.lam)


def backward_sweep(w, problem, prop, terminal):
    """One application of the resolvent fixed-point map to the mesh function
    w: the sources g - <Bc, grad_v> w go backward from T through one
    `Propagator.duhamel` chain of P damped by e^(-lambda dt) per step."""
    grid = w.grid
    sources = []
    for i in range(w.n_t):
        vals = np.zeros(grid.shape + (problem.channels,))
        if problem.g is not None:
            vals = vals + problem.g.at_index(i).values
        vals = vals - _transport_term(grid, problem.Bc.at_index(i), w.at_index(i))
        sources.append(GridField(grid, vals))
    integrals = prop.duhamel(sources[::-1], w.dt, lam=problem.lam)
    out = [t - integral for t, integral in zip(terminal[::-1], integrals)]
    return TimeField(t0=w.t0, t1=w.t1, fields=tuple(out[::-1]))


def solve_kolmogorov(problem, cfg=None, w_init=None):
    """Fixed point of the backward resolvent map, with rho auto-retry."""
    cfg = cfg or SolverConfig()
    grid = problem.Bc.grid
    prop = Propagator(problem.model, grid)
    times = np.linspace(0.0, problem.T, cfg.n_t)

    if w_init is not None and w_init.n_t == cfg.n_t:
        w = w_init
    else:
        w = zero_time_field(grid, problem.T, cfg.n_t, problem.channels)

    terminal = _terminal_sweep(problem, prop, times)
    w, rho, contraction, iterations, weighted, _ = picard_fixed_point(
        lambda w: backward_sweep(w, problem, prop, terminal),
        w, times[-1] - times, problem.norm_index, cfg)
    sup_norm = max(besov_norm(f, problem.norm_index) for f in w.fields)
    return BackwardSolution(u=w, rho=rho, contraction=contraction,
                            iterations=iterations, increments=weighted,
                            converged=True, sup_norm_index=sup_norm,
                            grad_sup=_sup_grad_v(w))


def _sup_grad_v(u):
    """sup over t, z of the Euclidean norm of the first-block Jacobian."""
    grid = u.grid
    d = grid.blocks.d
    worst = 0.0
    for f in u.fields:
        sq = np.zeros(grid.shape)
        for l in range(d):
            sq += np.sum(spectral_derivative(f, l).values ** 2, axis=-1)
        worst = max(worst, float(np.sqrt(np.max(sq))))
    return worst


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
    bound (needed before inverting the coordinate change).
    """
    cfg = cfg or SolverConfig()
    if problem.ell is not None:
        raise ValueError("the ladder applies to zero terminal data")
    rungs = []
    lam = 1.0
    warm = None
    while lam <= lam_cap:
        sol = solve_kolmogorov(replace(problem, lam=lam), cfg, w_init=warm)
        warm = sol.u
        rungs.append((lam, sol.sup_norm_index, sol.grad_sup))
        ok = sol.sup_norm_index <= bound
        if require_gradient:
            ok = ok and sol.grad_sup <= bound
        if ok:
            return LadderResult(lam=lam, achieved_norm=sol.sup_norm_index,
                                grad_sup=sol.grad_sup, rungs=tuple(rungs),
                                solution=sol)
        lam *= 2.0
    raise LadderExhausted(
        f"norm bound {bound} not achieved by lambda={lam_cap}; "
        "the drift is likely mis-scaled"
    )


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

    @property
    def N(self):
        return self.u.grid.blocks.N

    def displacement(self, t, z):
        """u_1(t, z) evaluated by periodic interpolation; z is (M, N)."""
        field = self.u.at_index(self.u.index_of(t))
        return PeriodicInterpolator(field)(np.asarray(z, dtype=float))

    def phi(self, t, z):
        z = np.asarray(z, dtype=float)
        out = z.copy()
        out[..., : self.d] += self.displacement(t, z)
        return out

    def psi(self, t, z_tilde, tol=1e-10, max_iter=200):
        """Inverse of phi_t: x = x_tilde, v the fixed point of
        v -> v_tilde - u_1(t, v, x_tilde).

        Returns (points, observed contraction factor).
        """
        z_tilde = np.atleast_2d(np.asarray(z_tilde, dtype=float))
        v = z_tilde[..., : self.d].copy()
        rest = z_tilde[..., self.d:]
        prev_step = None
        observed = 0.0
        for _ in range(max_iter):
            pts = np.concatenate([v, rest], axis=-1)
            v_new = z_tilde[..., : self.d] - self.displacement(t, pts)
            step = float(np.max(np.abs(v_new - v)))
            if prev_step is not None and prev_step > 0:
                observed = max(observed, step / prev_step)
            prev_step = step
            v = v_new
            if step < tol:
                out = np.concatenate([v, rest], axis=-1)
                return out, observed
        raise NoConvergence(
            "inverse map iteration failed; the gradient certificate must "
            "have been violated"
        )


def zvonkin_phi(u, grad_bound=None):
    """Wrap the taming-system solution into evaluators, checking <= 1/2."""
    if grad_bound is None:
        grad_bound = _sup_grad_v(u)
    if grad_bound > 0.5:
        raise GradientBoundViolated(
            f"sup |grad_v u| = {grad_bound:.4f} exceeds 1/2"
        )
    return ZvonkinMaps(u=u, grad_bound=grad_bound)

"""Exact Gaussian semigroups of the hypoelliptic generator and its adjoint.

The fundamental solution is Gamma(t; y, z) = Gamma_t(z - exp(tB) y) with
Gamma_t a centred Gaussian of covariance C(t) = int_0^t exp(sB) A exp(sB)^T ds.
On the periodic grid both semigroups factor into an exact spectral
convolution (multiplier exp(-<C(t) xi, xi>/2)) and a composition with the
linear flow exp(+-tB), applied as an exact chain of single-axis spectral
shears when B is strictly triangular.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .anisotropy import matrix_exp, require_hypoelliptic
from .errors import NotHypoelliptic, TimeTooSmallWarning, UnsupportedFlow
from .fields import GridField
from .spectral import (gaussian_multiplier, half_spectrum, ifftn_real,
                       multiply, shell_values)

_TRIANG_ATOL = 1e-12
_LOC_QUAD_NODES = 32
_MULT_CACHE_CAP = 256


# --- covariance machinery -----------------------------------------------------

def covariance(model, t, reverse=False):
    """C(t) = int_0^t exp(sB) A exp(sB)^T ds, symmetric positive definite,
    by the augmented-exponential (Van Loan) construction.  With
    reverse=True the flow direction is flipped (B -> -B), which is the
    covariance seen in the frame that has not yet been transported:
    P'_t = shear(exp(-tB)) o multiplier(reversed C).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    B, A, N = model.B, model.A, model.N
    if reverse:
        B = -B
    aug = np.zeros((2 * N, 2 * N))
    aug[:N, :N] = -B
    aug[:N, N:] = A
    aug[N:, N:] = B.T
    E = scipy.linalg.expm(aug * t)
    C = E[N:, N:].T @ E[:N, N:]
    C = 0.5 * (C + C.T)
    if not np.all(np.isfinite(C)) or np.linalg.det(C) <= 0:
        raise NotHypoelliptic(
            f"covariance at t={t} is not finite positive definite")
    return C


def gamma_density(model, t, z):
    """Gaussian kernel Gamma_t(z); z may carry leading batch axes."""
    require_hypoelliptic(model)
    C = covariance(model, t)
    Cinv = np.linalg.inv(C)
    _, logdet = np.linalg.slogdet(C)
    z = np.asarray(z, dtype=float)
    quad = np.einsum("...a,ab,...b->...", z, Cinv, z)
    lognorm = -0.5 * (model.N * np.log(2.0 * np.pi) + logdet)
    return np.exp(lognorm - 0.5 * quad)


# --- exact shear warps ---------------------------------------------------------

def triangularity(B):
    """'lower', 'upper' or None according to the strict triangle of B."""
    scale = max(np.max(np.abs(B)), 1.0)
    if np.max(np.abs(np.triu(B))) <= _TRIANG_ATOL * scale:
        return "lower"
    if np.max(np.abs(np.tril(B))) <= _TRIANG_ATOL * scale:
        return "upper"
    return None


def _shear_factors(M, kind):
    """Factor a unit-triangular M into Gauss factors I + m_j e_j^T.

    Returns column factors in application order for f -> f(M z).
    """
    n = M.shape[0]
    cols = range(n) if kind == "lower" else range(n - 1, -1, -1)
    factors = []
    for j in cols:
        m = M[:, j].copy()
        m[j] = 0.0
        if np.max(np.abs(m)) > 0:
            factors.append((j, m))
    return factors


class _WarpPlan:
    """Exact composition f -> f(exp(tB) z) for strictly triangular B."""

    def __init__(self, model, grid):
        self.kind = triangularity(model.B)
        if self.kind is None:
            raise UnsupportedFlow(
                "exp(tB) is not unit-triangular; the exact spectral shear "
                "warp only supports strictly triangular drift matrices"
            )
        self.model = model
        self.grid = grid
        self._coords = grid.axes()
        self._freqs = [half_spectrum(xi) for xi in grid.freq_axes()]

    def apply(self, values, t):
        """values of f -> values of f(exp(tB) z) on the grid."""
        if t == 0.0:
            return values
        M = matrix_exp(self.model.B, t)
        out = values
        for j, m in _shear_factors(M, self.kind):
            for i in np.flatnonzero(np.abs(m) > 0):
                out = self._axis_shift(out, int(i), j, m[i] * self._coords[j])
        return out

    def _axis_shift(self, values, axis, by_axis, amount):
        """Translate along `axis` by amount[k] at index k of `by_axis`
        (exact, periodic).  The amount is constant along `axis`, so the
        phase lives on the half spectrum of `axis` times `by_axis`."""
        xi = self._freqs[axis]
        shape = [1] * values.ndim
        shape[axis] = len(xi)
        by_shape = [1] * values.ndim
        by_shape[by_axis] = len(amount)
        phase = np.exp(1j * xi.reshape(shape) * amount.reshape(by_shape))
        spec = scipy.fft.rfft(values, axis=axis, workers=1)
        return scipy.fft.irfft(spec * phase, n=values.shape[axis], axis=axis,
                               workers=1)


# --- propagator ----------------------------------------------------------------

class Propagator:
    """Semigroup actions P_t and P'_t of one model on one grid.

    Pure and reentrant: every application is multiplier * warp with cached
    lattice tables; fields are never mutated.
    """

    def __init__(self, model, grid):
        require_hypoelliptic(model)
        self.model = model
        self.grid = grid
        self.warp = _WarpPlan(model, grid)
        self.trB = float(np.trace(model.B))
        self._mult_cache = {}

    def multiplier(self, t, reverse=False):
        """exp(-<C(t) xi, xi>/2) on the frequency lattice.

        reverse=True uses the reversed-flow covariance, which is the
        multiplier P'_t applies before its shear.
        """
        key = (float(t).hex(), reverse)
        mult = self._mult_cache.get(key)
        if mult is None:
            mult = gaussian_multiplier(
                self.grid, covariance(self.model, t, reverse=reverse))
            self._trim_cache()
            self._mult_cache[key] = mult
        return mult

    def local_multiplier(self, dt, moment=0, reverse=False, lam=0.0):
        """int_0^dt e^(-lam tau) (tau/dt)^moment exp(-<C(tau) xi, xi>/2) d tau.

        Exact time integral of the convolution factor against constant or
        linear-in-time data; this is what integrates the singular kernel
        weight exactly in the mild-solution quadrature.  The weight
        e^(-lam tau) is the resolvent damping of the backward problem.
        """
        key = ("loc", float(dt).hex(), moment, reverse, float(lam).hex())
        mult = self._mult_cache.get(key)
        if mult is None:
            nodes, wts = np.polynomial.legendre.leggauss(_LOC_QUAD_NODES)
            taus = 0.5 * dt * (nodes + 1.0)
            mult = np.zeros(self.grid.shape)
            for tau, w in zip(taus, wts):
                term = gaussian_multiplier(
                    self.grid, covariance(self.model, tau, reverse=reverse))
                mult += w * np.exp(-lam * tau) * (tau / dt) ** moment * term
            mult *= 0.5 * dt
            self._trim_cache()
            self._mult_cache[key] = mult
        return mult

    def _trim_cache(self):
        while len(self._mult_cache) >= _MULT_CACHE_CAP:
            self._mult_cache.pop(next(iter(self._mult_cache)))

    def _check_resolved(self, t):
        h = self.grid.spacings[: self.model.d]
        if np.sqrt(t) < np.min(h):
            warnings.warn(
                f"kernel at t={t:g} is narrower than one cell",
                TimeTooSmallWarning,
                stacklevel=3,
            )

    def convolve(self, field_values, mult):
        return multiply(field_values, mult)

    def apply_Pprime(self, t, field):
        """P'_t f = [multiplier(reversed C(t)) f] o exp(-tB).

        Multiplier first, one exact shear last: on band-limited input the
        output samples are exactly those of the continuum P'_t f.
        """
        if t == 0.0:
            return field
        self._check_resolved(t)
        out = self.convolve(field.values, self.multiplier(t, reverse=True))
        out = self.warp.apply(out, -t)
        return field.with_values(np.exp(-t * self.trB) * out)

    def apply_P(self, t, field):
        """P_t f = [multiplier(C(t)) f] o exp(tB)."""
        if t == 0.0:
            return field
        self._check_resolved(t)
        out = self.convolve(field.values, self.multiplier(t))
        return field.with_values(self.warp.apply(out, t))

    def convolve_local(self, field, dt, moment=0, adjoint=True, lam=0.0):
        """Apply int_0^dt e^(-lam tau) (tau/dt)^moment S_tau dtau, with
        S = P' when `adjoint` and P otherwise, and the flow frozen at 0."""
        return field.with_values(
            self.convolve(field.values,
                          self.local_multiplier(dt, moment, adjoint, lam)))

    def evolve(self, datum, lags, adjoint=False, lam=0.0):
        """e^(-lam s) S_s datum at each lag s (the datum itself at s = 0),
        with S = P' when `adjoint` and P otherwise."""
        apply = self.apply_Pprime if adjoint else self.apply_P
        return [apply(s, datum) * np.exp(-lam * s) if lam and s
                else apply(s, datum) for s in lags]

    def duhamel(self, sources, dt, adjoint=False, lam=0.0, linear=False):
        """Yield I_0 = 0, then I_(k+1) = e^(-lam dt) S_dt I_k + local(q_k)
        for the sources q_k in marching order, S as in `evolve`: the chained
        Duhamel sum of both solvers, O(1) applications per step.  local is
        `convolve_local` of q_k, one step per source, or with `linear`, of
        data linear from q_k to q_(k+1), one step per pair of a list.
        Otherwise q_k is read only after I_k is yielded, so `sources` may
        be a generator that builds q_k from the caller's value at I_k."""
        step = self.apply_Pprime if adjoint else self.apply_P
        if linear:
            locals_ = (self.convolve_local(b, dt, 0, adjoint, lam)
                       + self.convolve_local(a - b, dt, 1, adjoint, lam)
                       for a, b in zip(sources, sources[1:]))
        else:
            locals_ = (self.convolve_local(q, dt, 0, adjoint, lam)
                       for q in sources)
        # explicit zeros (0.0 * q can hold -0.0, which changes output
        # bytes), one channel wide: they broadcast against any source
        integral = GridField(self.grid, np.zeros(self.grid.shape + (1,)))
        yield integral
        for local in locals_:
            integral = step(dt, integral)
            if lam:
                integral = integral * np.exp(-lam * dt)
            integral = integral + local
            del local  # not kept alive while the caller uses the yield
            yield integral


def _propagator_for(model, grid):
    key = ("propagator", model.blocks.dims, model.B.tobytes())
    prop = grid._cache.get(key)
    if prop is None:
        prop = Propagator(model, grid)
        grid._cache[key] = prop
    return prop


def apply_P(model, t, field):
    return _propagator_for(model, field.grid).apply_P(t, field)


def apply_Pprime(model, t, field):
    return _propagator_for(model, field.grid).apply_Pprime(t, field)


def kernel_field(model, grid, t):
    """Periodised Gamma_t centred at z = 0, as a unit-mass grid field.

    Built from the analytic Fourier transform, so there is no aliasing
    error even when the kernel is wide.
    """
    prop = _propagator_for(model, grid)
    mult = prop.multiplier(t)
    signs = np.ones(grid.shape)
    for axis, m in enumerate(grid.shape):
        k = np.rint(np.fft.fftfreq(m) * m).astype(int)  # signed integer freqs
        shape = [1] * grid.N
        shape[axis] = m
        signs = signs * np.where(k % 2 == 0, 1.0, -1.0).reshape(shape)
    spec = half_spectrum(mult * signs * grid.npoints / grid.box_volume)
    vals = ifftn_real(spec[..., np.newaxis])
    return GridField(grid, vals)


# --- empirical Schauder probe --------------------------------------------------

@dataclass(frozen=True)
class SchauderRow:
    operator: str
    gamma: float
    alpha: float
    t: float
    field_id: int
    ratio: float
    norm_in: float
    norm_out: float


@dataclass(frozen=True)
class SchauderReport:
    rows: tuple
    slopes: dict      # operator -> regression slope of log max-norm vs log t
    max_ratio: dict   # operator -> max over (t, f) of t^(alpha/2) ratio
    ratio_spread: dict  # operator -> max/min over t of the running max ratio

    def csv_rows(self):
        yield "operator,gamma,alpha,t,field_id,ratio,norm_in,norm_out"
        for r in self.rows:
            yield (f"{r.operator},{r.gamma:.6g},{r.alpha:.6g},{r.t:.10g},"
                   f"{r.field_id},{r.ratio:.10g},{r.norm_in:.10g},{r.norm_out:.10g}")


def schauder_probe(model, gamma, alpha, t_list, sample_fields):
    """Measure ||P'_t f||_(gamma+alpha) t^(alpha/2) / ||f||_gamma across t, f.

    Records one row per (operator, t, field) and the log-log slope of the
    max-over-samples output norm against t, which the smoothing estimate
    predicts to be -alpha/2 for genuinely rough inputs.
    """
    from .spectral import besov_norm

    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    grid = sample_fields[0].grid
    prop = _propagator_for(model, grid)
    rows = []
    slopes, max_ratio, spread = {}, {}, {}
    norms_in = [besov_norm(f, gamma) for f in sample_fields]
    for op_name, op in (("P", prop.apply_P), ("Pprime", prop.apply_Pprime)):
        max_out_per_t = []
        for t in t_list:
            best = 0.0
            for fid, (f, n_in) in enumerate(zip(sample_fields, norms_in)):
                n_out = besov_norm(op(t, f), gamma + alpha)
                ratio = n_out * t ** (alpha / 2.0) / n_in
                rows.append(SchauderRow(op_name, gamma, alpha, float(t), fid,
                                        ratio, n_in, n_out))
                best = max(best, n_out)
            max_out_per_t.append(best)
        logt = np.log(np.asarray(t_list, dtype=float))
        logn = np.log(np.asarray(max_out_per_t))
        slopes[op_name] = float(np.polyfit(logt, logn, 1)[0])
        ratios = [r.ratio for r in rows if r.operator == op_name]
        max_ratio[op_name] = float(np.max(ratios))
        running = [max(r.ratio for r in rows
                       if r.operator == op_name and r.t == float(t))
                   for t in t_list]
        spread[op_name] = float(np.max(running) / np.min(running))
    return SchauderReport(rows=tuple(rows), slopes=slopes,
                          max_ratio=max_ratio, ratio_spread=spread)


# --- kernel shell decay ---------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    rows: tuple          # (t, j, l1_norm)
    window: tuple        # (lo, hi) range of t 4^j used for the fit
    exponent: float      # fitted decay power p in (t 4^j)^-p

    def csv_rows(self):
        yield "t,j,l1_norm"
        for t, j, v in self.rows:
            yield f"{t:.10g},{j},{v:.10g}"


def shell_kernel_l1(model, grid, t):
    """||Delta_j Gamma_t||_L1 for every shell j, by grid quadrature."""
    mult = _propagator_for(model, grid).multiplier(t)
    spec = half_spectrum(mult * grid.npoints / grid.box_volume)
    return np.array([float(np.sum(np.abs(vals)) * grid.cell_volume)
                     for vals in shell_values(grid, spec[..., np.newaxis])])


def kernel_block_decay(model, grid, t_list, j_list, window=(4.0, 64.0)):
    """Fit the decay of ||Delta_j Gamma_t||_L1 against t 4^j.

    Only pairs with t 4^j inside `window` enter the fit; the claimed bound
    C (t 4^j)^-l holds for every l, so the measured exponent should
    dominate any requested l there.
    """
    rows = []
    xs, ys = [], []
    for t in t_list:
        norms = shell_kernel_l1(model, grid, t)
        for j in j_list:
            v = norms[j + 1]
            rows.append((float(t), int(j), v))
            scale = t * 4.0 ** j
            if window[0] <= scale <= window[1] and v > 0:
                xs.append(np.log(scale))
                ys.append(np.log(v))
    if len(xs) < 2:
        raise ValueError("no (t, j) pairs fall in the fit window")
    slope = float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])
    return DecayReport(rows=tuple(rows), window=tuple(window), exponent=-slope)

"""Exact Gaussian semigroups of the hypoelliptic generator and its adjoint.

The fundamental solution is Gamma(t; y, z) = Gamma_t(z - exp(tB) y) with
Gamma_t a centred Gaussian of covariance C(t) = int_0^t exp(sB) A exp(sB)^T ds.
On the periodic grid both semigroups factor into an exact spectral
convolution (multiplier exp(-<C(t) xi, xi>/2)) and a composition with the
linear flow exp(+-tB).  One application is one transform pair: the
forward transform, the multiplier, and an inverse transform that applies
the shear as phases between its axes (`spectral.ifftn_real`).  The shear
needs a strictly lower-triangular, hence nilpotent, B, and
`require_lower_triangular` rejects every other: exp(tB) is then unit
lower triangular, and its Jacobian is 1.  An upper-triangular B is
possible only for an elliptic model, the same model with its coordinates
reversed.

S_t is applied on two paths only: the one-shot `Propagator.evolve` (one
datum, any lags) and the mild march of both solvers, `Propagator.march`:
u_k = base_k - I_k, with base the free evolution of the datum and I the
chained Duhamel sum of sources built from the values already made.  Both
are lazy: `evolve` transforms the datum at once and makes each lag when
it is read, and `march` reads its base one item at a time and yields
u_0, u_1, ... as it makes them, so a caller holds only the slices it
keeps.
"""

import functools
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .anisotropy import matrix_exp, require_hypoelliptic
from .errors import NotHypoelliptic, TimeTooSmallWarning, UnsupportedFlow
from .fields import GridField
from .spectral import (apply_multiplier, besov_norm, fftn,
                       gaussian_multiplier, ifftn_real, multiply, shell_values)

_LOC_QUAD_NODES = 32
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


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


# --- exact shear warps ---------------------------------------------------------

def triangularity(B):
    """'lower', 'upper' or None according to the strict triangle of B:
    every entry outside it must be exactly zero."""
    if not np.triu(B).any():
        return "lower"
    if not np.tril(B).any():
        return "upper"
    return None


def require_lower_triangular(B):
    """Raise UnsupportedFlow unless B is strictly lower triangular, the one
    drift matrix whose flow the sheared inverse transform applies."""
    if triangularity(B) != "lower":
        raise UnsupportedFlow(
            "B must be strictly lower triangular: the exact spectral shear "
            "supports no other drift matrix, and an upper-triangular B is "
            "the same elliptic model with its coordinates reversed")


def _shear_factors(M):
    """Factor a unit lower-triangular M into Gauss factors I + m_j e_j^T,
    m_j the part of column j below the diagonal.

    Returns column factors in application order for f -> f(M z).
    """
    factors = []
    for j in range(M.shape[0]):
        m = M[:, j].copy()
        m[: j + 1] = 0.0
        if m.any():
            factors.append((j, m))
    return factors


def _outside_level():
    """The `warnings.warn` stacklevel, for a warning raised by the caller
    of this function, that names the first frame outside the package."""
    frame, level = sys._getframe(2), 2
    while frame is not None \
            and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


# --- propagator ----------------------------------------------------------------

class Propagator:
    """Semigroup actions P_t and P'_t of one model on one grid.

    A stateless view: every application is one forward transform, the
    memo multiplier and one sheared inverse transform (`ifftn_real`), and
    the multiplier tables live in the grid memo `AnisoGrid.table` under
    the model's key, so every propagator of the model on the grid shares
    them; fields are never mutated.
    """

    def __init__(self, model, grid):
        require_hypoelliptic(model)
        require_lower_triangular(model.B)
        self.model = model
        self.grid = grid
        self._key = (model.blocks.dims, model.B.tobytes())
        self._coords = grid.axes()
        self._freqs = grid.freq_axes()

    def multiplier(self, t, reverse=False):
        """exp(-<C(t) xi, xi>/2) on the half lattice.

        reverse=True uses the reversed-flow covariance, which is the
        multiplier P'_t applies before its shear.
        """
        return self.grid.table(
            self._key + (float(t).hex(), reverse),
            lambda: gaussian_multiplier(
                self.grid, covariance(self.model, t, reverse=reverse)))

    def local_multiplier(self, dt, moment=0, reverse=False, lam=0.0):
        """int_0^dt e^(-lam tau) (tau/dt)^moment exp(-<C(tau) xi, xi>/2) d tau.

        Exact time integral of the convolution factor against constant or
        linear-in-time data; this is what integrates the singular kernel
        weight exactly in the mild-solution quadrature.  The weight
        e^(-lam tau) is the resolvent damping of the backward problem.
        """
        def build():
            nodes, wts = np.polynomial.legendre.leggauss(_LOC_QUAD_NODES)
            taus = 0.5 * dt * (nodes + 1.0)
            mult = np.zeros(self.grid.spectrum_shape)
            for tau, w in zip(taus, wts):
                term = gaussian_multiplier(
                    self.grid, covariance(self.model, tau, reverse=reverse))
                mult += w * np.exp(-lam * tau) * (tau / dt) ** moment * term
            mult *= 0.5 * dt
            return mult

        return self.grid.table(self._key + ("loc", float(dt).hex(), moment,
                                            reverse, float(lam).hex()), build)

    def convolve(self, field_values, mult):
        """ifft(mult * fft(values)) of grid values, the flow frozen at 0."""
        return multiply(field_values, mult)

    def _shear(self, t):
        """The (axis, phase) pairs of `ifftn_real` that compose with
        exp(tB), f -> f(exp(tB) z): a driving axis j shifts each later
        axis i by m_i z_j, a phase exp(i xi_i m_i z_j) on the lattice of
        axis i.  The unpaired Nyquist index of axis i is its own mirror,
        so there the phase is its Hermitian part cos(xi_i m_i z_j)."""
        shear = []
        for j, m in _shear_factors(matrix_exp(self.model.B, t)):
            factors = []
            for i in np.flatnonzero(m):
                shape = [1] * (self.grid.N + 1)
                shape[i] = len(self._freqs[i])
                by_shape = [1] * (self.grid.N + 1)
                by_shape[j] = self.grid.shape[j]
                angle = self._freqs[i].reshape(shape) \
                    * (m[i] * self._coords[j]).reshape(by_shape)
                # cos + i sin: the bits of exp(i angle), in half the time
                phase = np.empty(angle.shape, dtype=complex)
                np.cos(angle, out=phase.real)
                np.sin(angle, out=phase.imag)
                np.moveaxis(phase.imag, i, 0)[self.grid.shape[i] // 2] = 0.0
                factors.append(phase)
            shear.append((j, functools.reduce(np.multiply, factors)))
        return shear

    def _factors(self, t, adjoint):
        """The multiplier and the shear of S_t, S = P' when `adjoint` and P
        otherwise; a kernel narrower than one cell warns at the first
        caller outside the package."""
        if np.sqrt(t) < np.min(self.grid.spacings[: self.model.d]):
            warnings.warn(f"kernel at t={t:g} is narrower than one cell",
                          TimeTooSmallWarning, stacklevel=_outside_level())
        return self.multiplier(t, reverse=adjoint), \
            self._shear(-t if adjoint else t)

    @staticmethod
    def _step(spectrum, mult, shear):
        """Grid values of S_t f from the half spectrum of f, which is used
        as work space: multiplier first, the shear inside the inverse."""
        spectrum *= mult[..., np.newaxis]
        return ifftn_real(spectrum, shear)

    def apply_Pprime(self, t, field):
        """P'_t f = [multiplier(reversed C(t)) f] o exp(-tB), the one lag
        t of `evolve`.

        Multiplier first, one exact shear last: on band-limited input the
        output samples are exactly those of the continuum P'_t f.  There is
        no Jacobian factor exp(-t tr B): it is 1 for a strictly triangular B.
        """
        return next(self.evolve(field, [t], adjoint=True))

    def apply_P(self, t, field):
        """P_t f = [multiplier(C(t)) f] o exp(tB), the one lag t of
        `evolve`."""
        return next(self.evolve(field, [t]))

    def convolve_local(self, spectrum, dt, moment=0, adjoint=True, lam=0.0):
        """Grid values of int_0^dt e^(-lam tau) (tau/dt)^moment S_tau dtau
        applied to the field of half spectrum `spectrum` (`fftn`), with
        S = P' when `adjoint` and P otherwise, and the flow frozen at 0."""
        mult = self.local_multiplier(dt, moment, adjoint, lam)
        return ifftn_real(spectrum * mult[..., np.newaxis])

    def evolve(self, datum, lags, adjoint=False, lam=0.0):
        """e^(-lam s) S_s datum at each lag s (the datum itself at s = 0),
        with S = P' when `adjoint` and P otherwise, as an iterator: one
        forward transform of the datum now, and one sheared inverse per
        nonzero lag when that lag is read."""
        spectrum = fftn(datum.values)
        return (self._lag(datum, spectrum, s, adjoint, lam) for s in lags)

    def _lag(self, datum, spectrum, s, adjoint, lam):
        """One item of `evolve`; `spectrum` is the datum's and is kept."""
        if s == 0.0:
            return datum
        values = self._step(spectrum.copy(), *self._factors(s, adjoint))
        if lam:
            values *= np.exp(-lam * s)
        return datum.with_values(values)

    def march(self, base, source_of, dt, adjoint=False, lam=0.0):
        """u_k = base_k - I_k in marching order: the mild solution of both
        solvers, yielded as u_0, u_1, ... are made.  I is the chained
        Duhamel sum I_0 = 0, I_1 = local(q_0), I_(k+1) = e^(-lam dt) S_dt
        I_k + local(q_k), S as in `evolve`, one transform pair per step;
        local is `convolve_local` of q_k, the data held constant over the
        step.  The source q_k = source_of(k, u_k) is a half spectrum
        (`fftn`), requested only after u_k, the slice just made, exists:
        the causal march reads that slice, and a sweep reads its own
        argument instead.  `base` is read one item at a time, item k
        just before u_k is made, and u_0 is base_0 itself.

        The multiplier and the shear phases of the step are built once per
        march, when its first item is read."""
        factors = self._factors(dt, adjoint)
        base = iter(base)
        u = next(base)
        yield u
        integral = None
        for k, item in enumerate(base, 1):
            local = self.convolve_local(source_of(k - 1, u), dt, 0, adjoint,
                                        lam)
            if integral is None:
                integral = local
            else:
                integral = self._step(fftn(integral), *factors)
                if lam:
                    integral *= np.exp(-lam * dt)
                integral += local
            u = item.with_values(item.values - integral)
            yield u


def kernel_field(model, grid, t):
    """Periodised Gamma_t centred at z = 0, as a unit-mass grid field: the
    analytic multiplier of Gamma_t applied to the unit point mass at the
    centre node, so there is no aliasing error even when the kernel is
    wide."""
    delta = np.zeros(grid.shape)
    delta[tuple(m // 2 for m in grid.shape)] = 1.0 / grid.cell_volume
    return apply_multiplier(GridField(grid, delta),
                            Propagator(model, grid).multiplier(t))


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
    predicts to be -alpha/2 for genuinely rough inputs.  Each field is
    evolved once per operator over all of t_list (`Propagator.evolve`).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    grid = sample_fields[0].grid
    prop = Propagator(model, grid)
    rows = []
    slopes, max_ratio, spread = {}, {}, {}
    norms_in = [besov_norm(f, gamma) for f in sample_fields]
    for op_name, adjoint in (("P", False), ("Pprime", True)):
        norms_out = [[besov_norm(g, gamma + alpha)
                      for g in prop.evolve(f, t_list, adjoint)]
                     for f in sample_fields]
        max_out, running = [], []  # per t: max output norm, max ratio
        for t, outs in zip(t_list, zip(*norms_out)):
            ratios = [n_out * t ** (alpha / 2.0) / n_in
                      for n_in, n_out in zip(norms_in, outs)]
            rows.extend(SchauderRow(op_name, gamma, alpha, float(t), fid, *r)
                        for fid, r in enumerate(zip(ratios, norms_in, outs)))
            max_out.append(max(outs))
            running.append(max(ratios))
        logt = np.log(np.asarray(t_list, dtype=float))
        slopes[op_name] = float(np.polyfit(logt, np.log(max_out), 1)[0])
        max_ratio[op_name] = float(np.max(running))
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
    mult = Propagator(model, grid).multiplier(t)
    spec = mult * grid.npoints / grid.box_volume
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

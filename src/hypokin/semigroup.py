"""Exact Gaussian semigroups of the hypoelliptic generator and its adjoint.

The fundamental solution is Gamma(t; y, z) = Gamma_t(z - exp(tB) y) with
Gamma_t a centred Gaussian of covariance C(t) = int_0^t exp(sB) A exp(sB)^T ds.
On the periodic grid both semigroups factor into an exact spectral
convolution (multiplier exp(-<C(t) xi, xi>/2)) and a composition with the
linear flow exp(+-tB).  One application is one transform pair: the
forward transform, the multiplier, and an inverse transform that applies
the shear as phases between its axes (`spectral.ifftn_real`).  The shear
needs a strictly lower-triangular, hence nilpotent, B, and `Propagator`
rejects every other: exp(tB) is then unit lower triangular, and its
Jacobian is 1.  An upper-triangular B is possible only for an elliptic
model, the same model with its coordinates reversed.
"""

import functools
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


def _shear_factors(M, kind):
    """Factor a unit lower-triangular M (`kind` 'lower') into Gauss
    factors I + m_j e_j^T, m_j the part of column j below the diagonal.

    Returns column factors in application order for f -> f(M z).
    """
    if kind != "lower":
        raise UnsupportedFlow("shear factors need a lower-triangular flow")
    factors = []
    for j in range(M.shape[0]):
        m = M[:, j].copy()
        m[: j + 1] = 0.0
        if m.any():
            factors.append((j, m))
    return factors


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
        kind = triangularity(model.B)
        if kind == "upper":
            raise UnsupportedFlow(
                "B must be strictly lower triangular: an upper-triangular B "
                "is the same elliptic model with its coordinates reversed")
        if kind is None:
            raise UnsupportedFlow(
                "exp(tB) is not unit-triangular; the exact spectral shear "
                "only supports strictly lower-triangular drift matrices"
            )
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
        for j, m in _shear_factors(matrix_exp(self.model.B, t), "lower"):
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

    def _factors(self, t, adjoint, stacklevel):
        """The multiplier and the shear of S_t, S = P' when `adjoint` and P
        otherwise; a kernel narrower than one cell warns at `stacklevel`
        (counted as by `warnings.warn` from here)."""
        if np.sqrt(t) < np.min(self.grid.spacings[: self.model.d]):
            warnings.warn(f"kernel at t={t:g} is narrower than one cell",
                          TimeTooSmallWarning, stacklevel=stacklevel)
        return self.multiplier(t, reverse=adjoint), \
            self._shear(-t if adjoint else t)

    @staticmethod
    def _step(spectrum, mult, shear):
        """Grid values of S_t f from the half spectrum of f, which is used
        as work space: multiplier first, the shear inside the inverse."""
        spectrum *= mult[..., np.newaxis]
        return ifftn_real(spectrum, shear)

    def _apply(self, t, field, adjoint):
        """The body of `apply_P` and, with `adjoint`, of `apply_Pprime`."""
        if t == 0.0:
            return field
        # stacklevel 5: the caller of the module's apply_P(prime), or of
        # the probe
        factors = self._factors(t, adjoint, stacklevel=5)
        return field.with_values(self._step(fftn(field.values), *factors))

    def apply_Pprime(self, t, field):
        """P'_t f = [multiplier(reversed C(t)) f] o exp(-tB).

        Multiplier first, one exact shear last: on band-limited input the
        output samples are exactly those of the continuum P'_t f.  There is
        no Jacobian factor exp(-t tr B): it is 1 for a strictly triangular B.
        """
        return self._apply(t, field, adjoint=True)

    def apply_P(self, t, field):
        """P_t f = [multiplier(C(t)) f] o exp(tB)."""
        return self._apply(t, field, adjoint=False)

    def convolve_local(self, spectrum, dt, moment=0, adjoint=True, lam=0.0):
        """Grid field of int_0^dt e^(-lam tau) (tau/dt)^moment S_tau dtau
        applied to the field of half spectrum `spectrum` (`fftn`), with
        S = P' when `adjoint` and P otherwise, and the flow frozen at 0."""
        mult = self.local_multiplier(dt, moment, adjoint, lam)
        return GridField(self.grid,
                         ifftn_real(spectrum * mult[..., np.newaxis]))

    def evolve(self, datum, lags, adjoint=False, lam=0.0):
        """e^(-lam s) S_s datum at each lag s (the datum itself at s = 0),
        with S = P' when `adjoint` and P otherwise: one forward transform
        of the datum and one sheared inverse per nonzero lag."""
        spectrum = fftn(datum.values)
        out = []
        for s in lags:
            if s == 0.0:
                out.append(datum)
                continue
            # stacklevel 3: the caller of evolve
            values = self._step(spectrum.copy(),
                                *self._factors(s, adjoint, stacklevel=3))
            if lam:
                values *= np.exp(-lam * s)
            out.append(datum.with_values(values))
        return out

    def duhamel(self, sources, dt, adjoint=False, lam=0.0):
        """Yield I_0 = 0, I_1 = local(q_0), then I_(k+1) = e^(-lam dt) S_dt
        I_k + local(q_k) for the sources q_k in marching order, S as in
        `evolve`: the chained Duhamel sum of both solvers, one transform
        pair per step.  local is `convolve_local` of q_k, the data held
        constant over the step.  `sources` is any iterable of half spectra
        (`fftn`), read lazily: q_k only after I_k is yielded, so it may be
        a generator that builds q_k from the caller's value at I_k.

        The multiplier and the shear phases of the step are built once,
        when the chain starts, and live as long as it."""
        # stacklevel 3: the frame that advances the chain
        factors = self._factors(dt, adjoint, stacklevel=3)
        # I_0: explicit zeros (0.0 * q can hold -0.0, which changes output
        # bytes), one channel wide: they broadcast against a value of any
        # width that the caller combines them with
        yield GridField(self.grid, np.zeros(self.grid.shape + (1,)))
        integral = None
        for q in sources:
            local = self.convolve_local(q, dt, 0, adjoint, lam)
            if integral is not None:
                values = self._step(fftn(integral.values), *factors)
                if lam:
                    values *= np.exp(-lam * dt)
                values += local.values
                local = local.with_values(values)
            integral = local
            yield integral


def apply_P(model, t, field):
    return Propagator(model, field.grid).apply_P(t, field)


def apply_Pprime(model, t, field):
    return Propagator(model, field.grid).apply_Pprime(t, field)


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
    predicts to be -alpha/2 for genuinely rough inputs.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    grid = sample_fields[0].grid
    prop = Propagator(model, grid)
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

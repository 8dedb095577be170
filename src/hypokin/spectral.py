"""Discrete anisotropic Littlewood-Paley analysis on the periodic grid.

Shell weights are radial in the anisotropic frequency norm: rho_{-1} is a
smooth bump equal to 1 on the ball of radius 1/2 and supported in radius
2/3, and rho_j(xi) = rho_{-1}(2^-(j+1).xi) - rho_{-1}(2^-j.xi).  Shells
-1..J_max sum to one exactly for |xi|_B <= 2^J_max, which is the band
radius used for spectral truncation.

Every field is real, so every transform is real-to-half-complex: `fftn`
keeps the frequencies 0..m/2 of the last grid axis and `ifftn_real`
inverts that half spectrum exactly (point counts are even), applying the
semigroup's shear on the way when given one.  Lattice
tables (partition, band mask, mollifier, Gaussian multipliers) live on
that half lattice (`AnisoGrid.freq_axes`) and are applied as they are.
`irfftn` reads them as Hermitian, t(-xi) = conj t(xi), which binds only
the planes 0 and m/2 of the last axis; a table is made or checked
Hermitian there once when built.  The unpaired Nyquist index is its own
mirror, so a factor odd in the Nyquist frequency (i xi in a derivative, a
cross term of a quadratic form) enters through its Hermitian part: zero
for a derivative.
"""

import numpy as np
import scipy.fft

from .anisotropy import aniso_norm
from .errors import RegularityError
from .fields import AnisoGrid, GridField, TimeField

# Relative tolerance of the Hermitian check on lattice tables.
HERMITIAN_RTOL = 1e-12


def fftn(values):
    """Half spectrum over the grid axes of a real (grid + channel) array:
    the last grid axis keeps its m/2 + 1 frequencies 0..m/2."""
    axes = tuple(range(values.ndim - 1))
    return scipy.fft.rfftn(values, axes=axes, workers=1)


def ifftn_real(spectrum, shear=()):
    """Real (grid + channel) array of a half spectrum: n stored frequencies
    on the last grid axis give 2 (n - 1) points, exact for even counts.

    `shear` holds (axis, phase) pairs, one per driving axis of a shear:
    the axes are then inverted one at a time in increasing order, and a
    driving axis's phase, a table that broadcasts against the spectrum,
    multiplies the partial inverse as soon as that axis is physical.  The
    axes it shifts come after it and are still spectral then, so the
    phase is diagonal there (Rogallo's shear-periodic transform).  A
    sheared inverse works in place: it overwrites `spectrum`.
    """
    axes = tuple(range(spectrum.ndim - 1))
    shape = list(spectrum.shape[:-1])
    shape[-1] = 2 * (shape[-1] - 1)
    if not shear:
        out = scipy.fft.irfftn(spectrum, s=shape, axes=axes, workers=1)
        return np.ascontiguousarray(out)
    phases, out = dict(shear), spectrum
    for axis in axes[:-1]:
        out = scipy.fft.ifft(out, axis=axis, overwrite_x=True, workers=1)
        if axis in phases:
            out *= phases[axis]
    out = scipy.fft.irfft(out, n=shape[-1], axis=axes[-1], overwrite_x=True,
                          workers=1)
    return np.ascontiguousarray(out)


def _reflect(table, axes):
    """t(-xi) on the lattice: index k -> -k mod m along each axis."""
    return np.roll(np.flip(table, axes), 1, axes)


def hermitian_part(table, axes):
    """(t(xi) + conj t(-xi)) / 2 over the given full-lattice axes: the part
    of a table that the real part of a complex inverse transform kept."""
    return 0.5 * (table + np.conj(_reflect(table, axes)))


def _unfold(table):
    """The full lattice of a half table even in xi, such as `freq_norm`:
    column m - k of the last axis is column k reflected over the others."""
    tail = _reflect(table[..., -2:0:-1], tuple(range(table.ndim - 1)))
    return np.concatenate([table, tail], axis=-1)


def require_hermitian(table, axes=None):
    """Check t(-xi) = conj t(xi) of a half table over its lattice `axes`
    (by default all of them) to HERMITIAN_RTOL; raise AssertionError if
    not.  `irfftn` reads it only in the planes 0 and m/2 of the last axis,
    each reflected over the other axes, so only those are checked.

    Hermitian tables are the ones under which a real field stays real, so
    the real inverse of their half spectrum is exact.
    """
    axes = tuple(range(table.ndim)) if axes is None else tuple(axes)
    t = np.asarray(table, dtype=np.result_type(table, float))
    scale = np.max(np.abs(t))
    planes = np.take(t, [0, -1], axis=axes[-1])
    defect = np.max(np.abs(planes - np.conj(_reflect(planes, axes[:-1]))))
    if defect > HERMITIAN_RTOL * scale:
        raise AssertionError(
            f"lattice table is not Hermitian: defect {defect:.3g} "
            f"against scale {scale:.3g}")


def _smooth_step(x):
    """h(x) = exp(-1/x) for x > 0, else 0."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def radial_bump(s):
    """chi(s): 1 for s <= 1/2, 0 for s >= 2/3, smooth ramp in between."""
    s = np.asarray(s, dtype=float)
    up = _smooth_step((2.0 / 3.0 - s) / (1.0 / 6.0))
    down = _smooth_step((s - 0.5) / (1.0 / 6.0))
    return up / (up + down + np.finfo(float).tiny * (up + down == 0))


def build_partition(grid):
    """Shell weights rho_j on the half lattice, j = -1 .. J_max.

    Returns an array of shape (J_max + 2,) + grid.spectrum_shape; row
    j + 1 holds rho_j.  Rows sum to chi(2^-(J_max+1) |xi|_B), i.e. to
    exactly 1 on the band |xi|_B <= 2^J_max.
    """
    def build():
        s = grid.freq_norm
        # chi(2^-(j+1) s) for j = -2 .. J_max; successive differences: rho_j
        steps = np.stack([radial_bump(s / 2.0 ** (j + 1))
                          for j in range(-1, grid.J_max + 1)])
        table = np.concatenate([steps[:1], np.diff(steps, axis=0)])
        require_hermitian(table, axes=range(1, table.ndim))
        return table
    return grid.table("partition", build)


def band_mask(grid):
    """Indicator of the exactly-covered band |xi|_B <= 2^J_max.

    The unpaired Nyquist row of each axis is excluded as well, so that
    band-limited fields stay real under non-integer spectral translations.
    """
    def build():
        mask = grid.freq_norm <= grid.band_radius + 1e-12
        for axis, m in enumerate(grid.shape):
            idx = [slice(None)] * grid.N
            idx[axis] = m // 2
            mask[tuple(idx)] = False
        require_hermitian(mask)
        return mask
    return grid.table("band_mask", build)


def bandlimit(field):
    """Zero all frequencies beyond the covered band (spectral truncation)."""
    return apply_multiplier(field, band_mask(field.grid))


def position_headroom_mask(grid):
    """Indicator of |xi_a| <= Nyquist_a / 2 on every position axis.

    On the velocity axes the band |xi|_B <= 2^J_max stops at half the
    Nyquist frequency, so the product of two fields limited there does
    not alias.  A position axis enters |xi|_B only through a root of
    order 2i+1 and the band never restricts it; this mask gives the
    position axes (blocks >= 1) the same factor-2 headroom.  Velocity
    frequencies are left open.
    """
    def build():
        mask = np.ones(grid.spectrum_shape, dtype=bool)
        xi = np.meshgrid(*grid.freq_axes(), indexing="ij", sparse=True)
        for axis in range(grid.blocks.d, grid.N):
            mask = mask & (np.abs(xi[axis]) <= np.max(np.abs(xi[axis])) / 2.0)
        require_hermitian(mask)
        return mask
    return grid.table("position_headroom", build)


def multiply(values, mult):
    """ifft(mult * fft(values)) over the grid axes of a (grid..., channels)
    array, for a multiplier on the half lattice (Hermitian in its planes
    0 and m/2), applied as it is."""
    return ifftn_real(fftn(values) * mult[..., np.newaxis])


def apply_multiplier(field, mult):
    return field.with_values(multiply(field.values, mult))


def gaussian_multiplier(grid, C):
    """exp(-<C xi, xi>/2) on the half lattice for a symmetric C.

    A cross term C_ab xi_a xi_b is odd in an unpaired Nyquist frequency,
    so the table is replaced by its Hermitian part (which changes only the
    Nyquist rows of coupled axes).  The table is even, so its mirror
    t(-xi) is the table with every Nyquist component of xi negated, and
    the Hermitian part is the mean of the two.
    """
    def table(axes):
        xi = np.meshgrid(*axes, indexing="ij")
        return np.exp(-0.5 * sum(C[a, b] * xi[a] * xi[b]
                                 for a, b in zip(*np.nonzero(C))))

    axes = grid.freq_axes()
    # the Nyquist frequency -m/2 is the least entry of each axis
    return 0.5 * (table(axes) + table([np.where(x == x.min(), -x, x)
                                       for x in axes]))


def shell_values(grid, spectrum):
    """Yield the samples of ifft(rho_j * spectrum) for j = -1..J_max, one
    shell at a time; `spectrum` is a half spectrum with a channel axis."""
    for row in build_partition(grid):
        yield ifftn_real(spectrum * row[..., np.newaxis])


def lp_decompose(field):
    """The Littlewood-Paley shells Delta_j f = ifft(rho_j * fft(f)) of a
    field, j = -1..J_max at index j + 1; on the band they sum to f."""
    return tuple(field.with_values(vals)
                 for vals in shell_values(field.grid, fftn(field.values)))


def shell_sup_norms(field):
    """Per-shell sup norms max_z |Delta_j f|, shape (J_max + 2, channels),
    without storing the shells."""
    axes = tuple(range(field.grid.N))
    return np.array([np.max(np.abs(vals), axis=axes)
                     for vals in shell_values(field.grid, fftn(field.values))])


# Relative slack of the shell bound B_j before a shell is skipped.  The
# computed sup of a shell and B_j read the same products f_hat rho_j of
# the one computed spectrum.  An inverse FFT of n points combines them
# through about log2(n) stages of unit-modulus twiddles, so each computed
# sample is within a few log2(n) unit roundoffs of B_j of its exact value
# (1e-14 at n = 2^24).  The sum that makes B_j, of nonnegative terms,
# errs by at most one unit roundoff per term, 1e-11 on a half spectrum of
# 10^5 entries, so the slack holds below about 10^7 entries.  The
# scaling by 2^(j gamma) adds a few roundoffs more.  On a single-mode
# shell the computed sup reaches 0.9999999999999998 of B_j: the bound is
# tight, so round-off alone can lift a sup above it.
SHELL_BOUND_SLACK = 1e-9


def _shell_bounds(grid, spectrum):
    """B_j = (1/n) sum over the full lattice of |f_hat| rho_j, one row per
    shell j = -1..J_max, maximised over the channels: a bound of
    ||Delta_j f||_inf.  On the half spectrum, the columns 1..m/2 - 1 of the
    last grid axis stand for themselves and their mirror, so they count
    twice; columns 0 and m/2 count once.  One elementwise pass, no FFT."""
    partition = build_partition(grid)
    mass = np.abs(spectrum)
    mass[..., 1:-1, :] *= 2.0
    # einsum, not `@`: a BLAS product allocates its own buffers
    bounds = np.einsum("jk,kc->jc", partition.reshape(len(partition), -1),
                       mass.reshape(-1, mass.shape[-1]))
    return np.max(bounds, axis=1) / grid.npoints


def besov_norm(fields, gamma):
    """sup_j 2^(j gamma) ||Delta_j f||_inf over the lattice shells.

    `fields` is a GridField, a TimeField or an iterable of GridFields, and
    the norm is the maximum over all of them.  An iterable is read once,
    one field at a time.

    Only the shells that can hold the maximum are inverted.  Since
    |Delta_j f(z)| <= B_j = (1/n) sum_xi |f_hat(xi)| rho_j(xi) (rho_j >= 0),
    the forward spectrum of a field bounds every shell at once.  Shells are
    inverted in decreasing order of 2^(j gamma) B_j (1 + slack), and the
    rest of a field is skipped once that bound is at or below the running
    maximum.  A skipped shell cannot exceed that maximum, and
    fl(2^(j gamma) sup) is monotone in sup, so the result equals the
    maximum over every (field, shell, channel) bit for bit: the same as
    inverting every shell (`shell_sup_norms`).  A shell whose bound is not
    finite is always inverted, and a NaN makes the norm NaN.  A field whose
    values are all zero is skipped before its transform: every shell of it
    is 0, which cannot raise the maximum.
    """
    if isinstance(fields, GridField):
        fields = (fields,)
    elif isinstance(fields, TimeField):
        fields = fields.fields
    norm = 0.0
    for field in fields:
        if not field.values.any():
            continue
        grid = field.grid
        partition = build_partition(grid)
        scale = 2.0 ** (np.arange(-1, len(partition) - 1) * gamma)
        spectrum = fftn(field.values)
        del field
        keys = scale * _shell_bounds(grid, spectrum) \
            * (1.0 + SHELL_BOUND_SLACK)
        finite = np.isfinite(keys)
        for j in np.argsort(-np.where(finite, keys, np.inf), kind="stable"):
            if finite[j] and keys[j] <= norm:
                break
            vals = ifftn_real(spectrum * partition[j][..., np.newaxis])
            value = scale[j] * np.max(np.abs(vals))
            if np.isnan(value):
                return float(value)
            norm = max(norm, float(value))
    return norm


def _derivative_factor(grid, axis):
    """i xi_axis, shaped to broadcast over the lattice, zero at the unpaired
    Nyquist index, where the Hermitian part of an odd factor vanishes."""
    xi = np.meshgrid(*grid.freq_axes(), indexing="ij", sparse=True)[axis]
    return 1j * np.where(xi == xi.min(), 0.0, xi)   # Nyquist: -m/2, least


def derivative_values(grid, spectrum, axis):
    """Grid values of d/dz_axis of the field of half spectrum `spectrum`
    (`fftn`), via the i*xi multiplier; the spectrum is not changed, so
    one forward transform serves every axis."""
    mult = _derivative_factor(grid, axis)
    return ifftn_real(spectrum * mult[..., np.newaxis])


def spectral_derivative(field, axis):
    """d/dz_axis via the i*xi multiplier."""
    return field.with_values(
        derivative_values(field.grid, fftn(field.values), axis))


def div_first_block(field):
    """div_v over the first d coordinates of a d-channel field, truncated to
    the band, as a one-channel half spectrum: one forward transform for
    all d components (`ifftn_real` gives its values)."""
    grid = field.grid
    d = grid.blocks.d
    if field.channels != d:
        raise ValueError(f"divergence needs {d} channels, got {field.channels}")
    spec = fftn(field.values)
    out = np.zeros(spec.shape[:-1] + (1,), dtype=complex)
    for l in range(d):
        out[..., 0] += _derivative_factor(grid, l) * spec[..., l]
    out[..., 0] *= band_mask(grid)
    return out


def upsample(field, factor=2):
    """Trigonometric upsampling by zero padding the spectrum.

    A coarse Nyquist index has no sign: half of its content goes to -m/2
    and half to +m/2 on the fine lattice (on every Nyquist axis of a mode
    at once), which is the Hermitian part of placing it at -m/2 alone.
    """
    grid = field.grid
    fine = AnisoGrid(blocks=grid.blocks, half_extents=grid.half_extents,
                     points_per_dim=grid.points_per_dim * int(factor))
    spec = 0.5 * factor ** grid.N * fftn(field.values)
    M = fine.shape[-1]
    out = np.zeros(fine.spectrum_shape + (field.channels,), dtype=complex)
    for sign in (1, -1):          # Nyquist at -m/2, then at +m/2
        idx = [np.rint(xi * L / np.pi).astype(int)    # k of xi = pi k / L
               for xi, L in zip(grid.freq_axes(), grid.half_extents)]
        for k, m in zip(idx, grid.shape):
            k[m // 2] *= sign
        keep = idx[-1] % M <= M // 2
        idx[-1] = idx[-1][keep]
        out[np.ix_(*idx)] += spec[..., keep, :]
    return GridField(fine, ifftn_real(out))


def bony_product(f, g, alpha, gamma):
    """Band-limited pointwise product, defined when alpha + gamma > 0.

    Returns (product field, ratio) with ratio the empirical constant of the
    paper's product estimate ||fg||_(alpha ^ gamma) <~ ||f||_alpha
    ||g||_gamma for alpha + gamma > 0, which gives F(u) b its meaning.
    """
    if alpha + gamma <= 0:
        raise RegularityError(
            f"product needs alpha + gamma > 0, got {alpha} + {gamma}"
        )
    if 1 not in (f.channels, g.channels) and f.channels != g.channels:
        raise ValueError("channel counts must match or broadcast from 1")
    prod = bandlimit(f.with_values(f.values * g.values))
    na, ng = besov_norm(f, alpha), besov_norm(g, gamma)
    np_ = besov_norm(prod, min(alpha, gamma))
    denom = na * ng
    ratio = np_ / denom if denom > 0 else float("inf") if np_ > 0 else 0.0
    return prod, ratio


# --- mollification -----------------------------------------------------------

_BUMP_NODES, _BUMP_WEIGHTS = np.polynomial.legendre.leggauss(96)


def _bump_transform(omega):
    """Fourier transform of the unit-mass standard bump on [-1, 1].

    phi(x) = c exp(-1/(1-x^2)); phi_hat(0) = 1 and |phi_hat| <= 1.  Summed
    row by row, not by BLAS, so a value does not depend on its vector.
    """
    x = _BUMP_NODES
    w = _BUMP_WEIGHTS
    base = np.exp(-1.0 / (1.0 - x ** 2))
    mass = np.sum(w * base)
    # cos expansion: even kernel
    vals = np.sum(np.cos(np.outer(omega, x)) * (w * base), axis=1) / mass
    return vals.reshape(np.shape(omega))


def mollifier_multiplier(grid, n):
    """Tensor-product multiplier Phi_hat(xi / n) on the half lattice."""
    def build():
        mult = np.ones(grid.spectrum_shape)
        for axis, xi in enumerate(grid.freq_axes()):
            shape = [1] * grid.N
            shape[axis] = len(xi)
            mult = mult * _bump_transform(xi / n).reshape(shape)
        require_hermitian(mult)
        return mult
    return grid.table(("mollifier", n), build)


def mollify(field, n):
    """Convolution with Phi_n(z) = n^N Phi(n z), spectrally."""
    if n < 1:
        raise ValueError("mollification level must be >= 1")
    return apply_multiplier(field, mollifier_multiplier(field.grid, n))


def mollify_time_field(tfield, n):
    return TimeField(
        t0=tfield.t0, t1=tfield.t1,
        fields=tuple(mollify(f, n) for f in tfield.fields),
    )


# --- synthesis of rough fields ----------------------------------------------

def _annulus_points(grid, j):
    """Full-lattice indices with |xi|_B in [3/4, 5/4] * 2^j, in the band."""
    s = grid.freq_norm
    sel = (s >= 0.75 * 2.0 ** j) & (s <= 1.25 * 2.0 ** j) & band_mask(grid)
    return np.argwhere(_unfold(sel))


def velocity_window(grid, inner=0.7, outer=0.95):
    """Smooth cutoff in the first-block coordinates: 1 inside, 0 at the seam.

    Drifts multiplied by this vanish where the velocity representative
    wraps, which keeps the flow-shear seam of the periodic box inert.
    """
    b = (2.0 / 3.0 - 0.5) / (outer - inner)
    a = 0.5 - inner * b
    win = np.ones(grid.shape)
    mesh = grid.meshgrid()
    for k in range(grid.blocks.d):
        rel = np.abs(mesh[k]) / grid.half_extents[k]
        win = win * radial_bump(a + b * rel)
    return win


def synthesize_besov_field(beta, seed, grid, channels=1, time_mesh=None,
                           modes_per_shell=1, amplitude=1.0, window=False):
    """Synthesize b of prescribed negative regularity -beta.

    b = sum_j 2^(j beta) sum_modes cos(<xi_j, z> + theta_j) with xi_j drawn
    uniformly on the discrete annulus |xi|_B ~ 2^j.  Deterministic in seed.
    With a time_mesh (array of times), returns a TimeField with
    b_t = b * (1 + sin(2 pi t / T) / 2); otherwise a GridField.  With
    window=True the field is tapered to zero at the velocity seam.
    """
    if not 0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    rng = np.random.default_rng(np.random.PCG64(seed))
    mesh = grid.meshgrid()
    values = np.zeros(grid.shape + (channels,))
    freq_axes = grid.freq_axes(half=())
    for j in range(0, grid.J_max + 1):
        pts = _annulus_points(grid, j)
        if len(pts) == 0:
            continue
        for c in range(channels):
            picks = pts[rng.integers(0, len(pts), size=modes_per_shell)]
            for idx in picks:
                xi = np.array([freq_axes[a][idx[a]] for a in range(grid.N)])
                theta = rng.uniform(0.0, 2.0 * np.pi)
                phase = sum(xi[a] * mesh[a] for a in range(grid.N)) + theta
                values[..., c] += (amplitude / len(picks)) \
                    * 2.0 ** (j * beta) * np.cos(phase)
    if window:
        values = values * velocity_window(grid)[..., np.newaxis]
    base = GridField(grid, values)
    if time_mesh is None:
        return base
    times = np.asarray(time_mesh, dtype=float)
    T = times[-1] if times[-1] > 0 else 1.0
    fields = tuple(
        base.with_values(base.values * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / T)))
        for t in times
    )
    return TimeField(t0=float(times[0]), t1=float(times[-1]), fields=fields)


def random_localized_field(grid, seed, channels=1, decay=2.5, width=0.25):
    """Band-limited random smooth field decaying towards the box boundary.

    Fields like this stay clear of the periodic seam, so they behave as
    compactly supported test functions for the semigroup operators.
    """
    base = random_smooth_field(grid, seed, channels=channels, decay=decay)
    mesh = grid.meshgrid()
    env = np.ones(grid.shape)
    for a in range(grid.N):
        env = env * np.exp(-0.5 * (mesh[a] / (width * grid.half_extents[a])) ** 2)
    return bandlimit(base.with_values(base.values * env[..., np.newaxis]))


def random_smooth_field(grid, seed, channels=1, decay=2.5):
    """Band-limited random field with smoothly decaying spectrum (test helper)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    spec = rng.standard_normal(grid.shape + (channels,)) \
        + 1j * rng.standard_normal(grid.shape + (channels,))
    s = _unfold(grid.freq_norm)[..., np.newaxis]
    spec *= np.exp(-decay * s) * _unfold(band_mask(grid))[..., np.newaxis]
    # a real field keeps the Hermitian part of the draw
    spec = hermitian_part(spec, range(grid.N))
    vals = ifftn_real(spec[..., : grid.shape[-1] // 2 + 1, :])
    vals = vals / max(np.max(np.abs(vals)), 1e-300)
    return GridField(grid, vals)


# --- anisotropic Hoelder norm -------------------------------------------------

def holder_norm_aniso(field, gamma, seed=0, n_offsets=64):
    """||f||_inf + sampled sup of |f(z+h) - f(z)| / |h|_B^gamma, |h|_B <= 1:
    the anisotropic Hoelder norm that the paper's Besov-Hoelder equivalence
    compares with the Besov norm of index gamma in (0, 1).

    Offsets are lattice vectors: all axis-aligned nearest neighbours plus
    n_offsets random draws from the unit anisotropic ball; for each offset
    the difference quotient is maximised over every grid point at once.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    grid = field.grid
    h = grid.spacings
    offsets = [np.eye(grid.N, dtype=int)[a] for a in range(grid.N)]
    rng = np.random.default_rng(np.random.PCG64(seed))
    # max lattice steps per axis to stay within |h|_B <= 1
    max_steps = np.minimum(
        np.floor(1.0 / h).astype(int), np.asarray(grid.shape) // 2 - 1
    )
    max_steps = np.maximum(max_steps, 1)
    tries = 0
    while len(offsets) < grid.N + n_offsets and tries < 50 * n_offsets:
        tries += 1
        step = rng.integers(-max_steps, max_steps + 1)
        if np.all(step == 0):
            continue
        if aniso_norm(step * h, grid.blocks) <= 1.0:
            offsets.append(step)
    sup = field.sup_norm()
    semi = 0.0
    for step in offsets:
        norm_h = aniso_norm(step * h, grid.blocks)
        if norm_h == 0 or norm_h > 1.0:
            continue
        shifted = np.roll(field.values, shift=tuple(-step), axis=tuple(range(grid.N)))
        diff = np.max(np.abs(shifted - field.values))
        semi = max(semi, diff / norm_h ** gamma)
    return sup + semi

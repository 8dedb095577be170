import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypokin.anisotropy import aniso_norm
from hypokin.errors import RegularityError
from hypokin.fields import AnisoGrid, GridField, TimeField, constant_field
from hypokin import semigroup as sg
from hypokin import spectral as sp


def single_mode(grid, idx, amplitude=1.0, phase=0.0):
    """cos(<xi, z> + phase) for a lattice frequency given by its index."""
    mesh = grid.meshgrid()
    axes = grid.freq_axes()
    xi = [axes[a][idx[a]] for a in range(grid.N)]
    arg = sum(x * m for x, m in zip(xi, mesh)) + phase
    return GridField(grid, amplitude * np.cos(arg)), np.array(xi)


def mode_index_near(grid, target_norm, seed=0):
    """A lattice index whose |xi|_B is close to target_norm."""
    s = grid.freq_norm
    sel = np.argwhere((np.abs(s - target_norm) < 0.05 * target_norm)
                      & sp.band_mask(grid))
    if len(sel) == 0:
        sel = np.argwhere((np.abs(s - target_norm) < 0.2 * target_norm)
                          & sp.band_mask(grid))
    rng = np.random.default_rng(seed)
    return tuple(sel[rng.integers(0, len(sel))])


def _full_axes(grid):
    """2 pi fftfreq on every axis: the full lattice, in fft ordering."""
    return [2.0 * np.pi * np.fft.fftfreq(m, d=h)
            for m, h in zip(grid.shape, grid.spacings)]


def _full_mesh(grid):
    return np.meshgrid(*_full_axes(grid), indexing="ij")


def _full_tables(grid, n=4):
    """freq_norm, partition, band mask, position headroom mask and the
    level-n mollifier on the full lattice, as their formulas read."""
    s = aniso_norm(np.stack(_full_mesh(grid), axis=-1), grid.blocks)
    steps = np.stack([sp.radial_bump(s / 2.0 ** (j + 1))
                      for j in range(-1, grid.J_max + 1)])
    band = s <= grid.band_radius + 1e-12
    headroom = np.ones(grid.shape, dtype=bool)
    mollifier = np.ones(grid.shape)
    for axis, (m, xi) in enumerate(zip(grid.shape, _full_axes(grid))):
        nyquist = [slice(None)] * grid.N
        nyquist[axis] = m // 2
        band[tuple(nyquist)] = False
        shape = [1] * grid.N
        shape[axis] = m
        if axis >= grid.blocks.d:
            k = np.rint(np.fft.fftfreq(m) * m)
            headroom = headroom & (np.abs(k) <= m / 4.0).reshape(shape)
        mollifier = mollifier * sp._bump_transform(xi / n).reshape(shape)
    return {"freq_norm": s,
            "partition": np.concatenate([steps[:1], np.diff(steps, axis=0)]),
            "band": band, "headroom": headroom, "mollifier": mollifier}


# --- partition ---------------------------------------------------------------

def test_partition_center(grid256):
    table = sp.build_partition(grid256)
    zero = (0,) * grid256.N
    assert table[0][zero] == pytest.approx(1.0)      # rho_{-1}(0) = 1
    assert np.all(np.abs(table[1:, zero[0], zero[1]]) < 1e-15)


def test_partition_rows_sum_on_band(grid256):
    table = sp.build_partition(grid256)
    mask = sp.band_mask(grid256)
    dev = np.abs(table.sum(axis=0) - 1.0)[mask]
    assert np.max(dev) < 1e-14


def test_partition_partial_sums(grid256):
    # sum_{j=-1}^n rho_j(xi) = rho_{-1}(2^{-(n+1)} . xi) at random points
    table = sp.build_partition(grid256)
    s = grid256.freq_norm
    rng = np.random.default_rng(5)
    flat = rng.integers(0, s.size, size=100)
    idx = np.unravel_index(flat, s.shape)
    for n in (0, 2, 4):
        lhs = table[: n + 2].sum(axis=0)[idx]
        rhs = sp.radial_bump(s[idx] / 2.0 ** (n + 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_partition_neighbours_only(grid256):
    # at |xi|_B = 2^j only shells j-1, j, j+1 carry mass
    table = sp.build_partition(grid256)
    for j in (2, 4):
        idx = mode_index_near(grid256, 2.0 ** j, seed=j)
        active = np.flatnonzero(table[(slice(None),) + idx] > 1e-14) - 1
        assert set(active) <= {j - 1, j, j + 1}
        assert table[(slice(None),) + idx].sum() == pytest.approx(1.0)


# --- decomposition and Besov norms --------------------------------------------

def test_constant_field_decomposition(grid256):
    shells = sp.lp_decompose(constant_field(grid256, 3.0))
    assert np.allclose(shells[0].values, 3.0)
    for j in range(0, grid256.J_max + 1):
        assert shells[j + 1].sup_norm() < 1e-12


def test_single_frequency_blocks(grid256):
    j0 = 3
    idx = mode_index_near(grid256, 2.0 ** j0, seed=1)
    f, _ = single_mode(grid256, idx)
    sups = sp.shell_sup_norms(f)[:, 0]
    active = set(np.flatnonzero(sups > 1e-10 * sups.max()) - 1)
    assert active <= {j0 - 1, j0, j0 + 1}


def test_reconstruction(grid256):
    for seed in range(3):
        f = sp.random_smooth_field(grid256, seed)
        rec = sum(s.values for s in sp.lp_decompose(f))
        rel = np.max(np.abs(rec - f.values)) / f.sup_norm()
        assert rel < 1e-10


def test_besov_constant(grid256):
    for gamma in (-0.5, 0.0, 0.7):
        norm = sp.besov_norm(constant_field(grid256, 1.0), gamma)
        assert norm == pytest.approx(2.0 ** (-gamma))


def test_besov_linf_bound(grid256):
    # ||f||_0 <= sup_j ||rho_j_check||_L1 * ||f||_inf (Young)
    table = sp.build_partition(grid256)
    l1 = []
    for row in range(table.shape[0]):
        k = sp.ifftn_real((table[row] * grid256.npoints / grid256.box_volume
                           )[..., np.newaxis])
        l1.append(np.sum(np.abs(k)) * grid256.cell_volume)
    bound = max(l1)
    rng = np.random.default_rng(8)
    f = sp.bandlimit(GridField(grid256, rng.uniform(-1, 1, grid256.shape)))
    assert sp.besov_norm(f, 0.0) <= bound * f.sup_norm() * (1 + 1e-12)


def test_besov_single_frequency_scaling(grid256):
    for j0 in (2, 4):
        idx = mode_index_near(grid256, 2.0 ** j0, seed=j0)
        f, _ = single_mode(grid256, idx)
        gamma = 0.8
        norm = sp.besov_norm(f, gamma)
        assert norm / 2.0 ** (j0 * gamma) < 3.0
        assert norm / 2.0 ** (j0 * gamma) > 1.0 / 3.0


def test_besov_embedding_monotone(grid256):
    # alpha < gamma: ||f||_alpha <= ||f||_gamma * 2^|alpha-gamma| is loose
    # for band-limited fields; check it over the corpus
    fields = [sp.random_smooth_field(grid256, s) for s in range(3)]
    fields.append(sp.synthesize_besov_field(0.3, 5, grid256))
    for f in fields:
        for alpha, gamma in ((-0.5, 0.2), (0.0, 1.0), (0.3, 0.4)):
            na, ng = sp.besov_norm(f, alpha), sp.besov_norm(f, gamma)
            assert na <= ng * 2.0 ** abs(alpha - gamma) * (1 + 1e-12)


# --- the shell bound of besov_norm ----------------------------------------------

@pytest.fixture(scope="module")
def norm_grids(kinetic, chain3, grid256):
    return {"kinetic 48^2": AnisoGrid.build(kinetic.blocks, [48, 48]),
            "kinetic 256^2": grid256,
            "chain 32^3": AnisoGrid.build(chain3.blocks, [32, 32, 32])}


SCALAR_KINDS = ("rough", "smooth", "localized", "zero", "mode")


def norm_field(grid, kind, seed):
    """A field of one of the kinds the norm must get right: white noise,
    smooth, localized, zero, a single lattice mode, or a rough synthesized
    two-channel drift."""
    if kind == "rough":
        rng = np.random.default_rng(seed)
        return GridField(grid, rng.standard_normal(grid.shape))
    if kind == "smooth":
        return sp.random_smooth_field(grid, seed)
    if kind == "localized":
        return sp.random_localized_field(grid, seed)
    if kind == "zero":
        return GridField(grid, np.zeros(grid.shape))
    if kind == "mode":
        j = seed % (grid.J_max + 1)
        return single_mode(grid, mode_index_near(grid, 2.0 ** j, seed),
                           phase=seed % 7)[0]
    return sp.synthesize_besov_field(0.3, seed, grid, channels=2)


def exhaustive_norm(fields, gamma, weights):
    """Every shell of every field inverted: max_t w_t max_j 2^(j gamma)
    ||Delta_j f_t||_inf, the weights applied last."""
    norms = []
    for f in fields:
        sups = sp.shell_sup_norms(f)
        j = np.arange(-1, len(sups) - 1)
        norms.append(float(np.max(2.0 ** (j * gamma)[:, None] * sups)))
    return float(np.max(np.asarray(weights) * np.asarray(norms)))


_GRIDS = st.sampled_from(("kinetic 48^2", "kinetic 256^2", "chain 32^3"))
_GAMMAS = st.sampled_from((-0.4, 0.0, 1.5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=_GRIDS, kind=st.sampled_from(SCALAR_KINDS + ("two-channel",)),
       seed=st.integers(0, 2 ** 16), gamma=_GAMMAS)
def test_besov_norm_equals_every_shell_inverted(norm_grids, name, kind, seed,
                                                gamma):
    f = norm_field(norm_grids[name], kind, seed)
    assert sp.besov_norm(f, gamma) == exhaustive_norm([f], gamma, [1.0])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(name=_GRIDS, kinds=st.lists(st.sampled_from(SCALAR_KINDS), min_size=2,
                                   max_size=4),
       seed=st.integers(0, 2 ** 16), gamma=_GAMMAS,
       rho=st.sampled_from((0.0, 3.0, 32.0)))
def test_besov_norm_of_many_fields_equals_every_shell_inverted(
        norm_grids, name, kinds, seed, gamma, rho):
    # the running maximum carries across the fields of a TimeField and of
    # a weighted stream, as the Picard stop rule reads them; an all-zero
    # field, skipped untransformed, still takes its weight
    fields = [norm_field(norm_grids[name], kind, seed + k)
              for k, kind in enumerate(kinds)]
    fields.insert(seed % (len(fields) + 1),
                  norm_field(norm_grids[name], "zero", seed))
    tf = TimeField(t0=0.0, t1=1.0, fields=fields)
    assert sp.besov_norm(tf, gamma) == exhaustive_norm(fields, gamma,
                                                       [1.0] * len(fields))
    weights = np.exp(-rho * tf.times)
    assert sp.besov_norm((f for f in fields), gamma, weights) \
        == exhaustive_norm(fields, gamma, weights)
    with pytest.raises(ValueError):
        sp.besov_norm(iter(fields), gamma, weights[1:])
    # a NaN field (forced in: a GridField is finite) is not taken for a
    # zero one, nor is a zero field under an infinite weight (0 inf is NaN)
    nan = norm_field(norm_grids[name], "zero", seed)
    object.__setattr__(nan, "values", np.full(nan.values.shape, np.nan))
    assert np.isnan(sp.besov_norm(fields + [nan], gamma))
    assert np.isnan(sp.besov_norm(iter(fields + [nan]), gamma,
                                  np.append(weights, 1.0)))
    with np.errstate(invalid="ignore"):
        assert np.isnan(sp.besov_norm(fields, gamma,
                                      np.where(weights > 0, np.inf, 0.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=_GRIDS, kind=st.sampled_from(SCALAR_KINDS + ("two-channel",)),
       seed=st.integers(0, 2 ** 16))
def test_shell_bounds_dominate_the_shell_sups(norm_grids, name, kind, seed):
    f = norm_field(norm_grids[name], kind, seed)
    bounds = sp._shell_bounds(f.grid, sp.fftn(f.values))
    sups = np.max(sp.shell_sup_norms(f), axis=1)
    assert np.all(bounds >= sups / (1.0 + sp.SHELL_BOUND_SLACK))


def test_shell_bound_is_tight_on_a_single_mode(norm_grids):
    # a lattice mode cos(<xi, z>) has one shell content rho_j(xi) on every
    # shell, met at a grid point: the bound equals the sup up to round-off,
    # on interior columns of the last axis (counted twice) and on edge ones
    for grid in norm_grids.values():
        m = grid.shape[-1]
        for j in range(grid.J_max + 1):
            idx = mode_index_near(grid, 2.0 ** j, seed=j)
            for col in {idx[-1], 0, m // 2}:
                f, _ = single_mode(grid, idx[:-1] + (col,))
                bounds = sp._shell_bounds(grid, sp.fftn(f.values))
                sups = np.max(sp.shell_sup_norms(f), axis=1)
                assert np.all(bounds >= sups / (1.0 + sp.SHELL_BOUND_SLACK))
                assert np.allclose(sups, bounds, rtol=1e-12, atol=1e-12)


# --- Bernstein ----------------------------------------------------------------

def extremal_mode_index(grid, j, axis):
    """Pure-direction lattice mode at the canonical shell frequency.

    For an axis in block i the shell-j frequency along that axis is
    2^(j (2i+1)); this is where the derivative-gain bound saturates.
    """
    weight = grid.blocks.coordinate_weights()[axis]
    target = 2.0 ** (j * weight)
    freqs = grid.freq_axes()[axis]
    idx = [0] * grid.N
    idx[axis] = int(np.argmin(np.abs(freqs - target)))
    return tuple(idx)


def fitted_gain_exponents(grid, j_lo=1):
    """Per-block slope of log2 ||Delta_j d_l f|| / ||Delta_j f|| vs j.

    The shell content is a single mode extremal in the probed direction;
    the derivative bound is an upper envelope, so the fit must probe the
    direction it controls.
    """
    js = list(range(j_lo, grid.J_max))
    slopes = {}
    for blk, axis in ((0, 0), (1, grid.blocks.d)):
        ratios = []
        for j in js:
            f, _ = single_mode(grid, extremal_mode_index(grid, j, axis))
            sups = sp.shell_sup_norms(f)[:, 0]
            dsups = sp.shell_sup_norms(sp.spectral_derivative(f, axis))[:, 0]
            ratios.append(dsups[j + 1] / sups[j + 1])
        slopes[blk] = float(np.polyfit(js, np.log2(ratios), 1)[0])
    return slopes


def test_bernstein_exponents(grid_xfine):
    slopes = fitted_gain_exponents(grid_xfine)
    assert abs(slopes[0] - 1.0) <= 0.1 * 1.0
    assert abs(slopes[1] - 3.0) <= 0.1 * 3.0


def test_bernstein_constant_stable(kinetic):
    # first-block constant C in ||Delta_j d_v f|| <= C 2^j ||Delta_j f||,
    # fitted across shells, stays within +-25% over three grid sizes
    from hypokin.fields import AnisoGrid
    cs = []
    for n in ((32, 2048), (32, 4096), (32, 8192)):
        grid = AnisoGrid.build(kinetic.blocks, n, half_extents=[np.pi, np.pi])
        c = 0.0
        for j in range(1, grid.J_max):
            f, _ = single_mode(grid, extremal_mode_index(grid, j, 0))
            sups = sp.shell_sup_norms(f)[:, 0]
            dsups = sp.shell_sup_norms(sp.spectral_derivative(f, 0))[:, 0]
            c = max(c, dsups[j + 1] / (2.0 ** j * sups[j + 1]))
        cs.append(c)
    assert max(cs) / min(cs) < 1.25 / 0.75


# --- products ------------------------------------------------------------------

def test_bony_identity_and_zero(grid256):
    f = sp.random_localized_field(grid256, 2)
    one = constant_field(grid256, 1.0)
    prod, ratio = sp.bony_product(f, one, 0.5, 0.9)
    assert np.max(np.abs(prod.values - f.values)) < 1e-10 * f.sup_norm()
    assert np.isfinite(ratio)
    zero = constant_field(grid256, 0.0)
    prod0, _ = sp.bony_product(zero, f, 0.5, 0.9)
    assert prod0.sup_norm() == 0.0


def test_bony_regularity_error(grid256):
    f = constant_field(grid256, 1.0)
    with pytest.raises(RegularityError):
        sp.bony_product(f, f, -0.3, 0.3)


def synth_positive_regularity(grid, gamma, seed, modes_per_shell=4):
    """sum_j 2^{-j gamma} cos modes on the shells: a C^gamma-type field."""
    rng = np.random.default_rng(seed)
    mesh = grid.meshgrid()
    axes = _full_axes(grid)
    vals = np.zeros(grid.shape)
    for j in range(0, grid.J_max + 1):
        pts = sp._annulus_points(grid, j)
        if len(pts) == 0:
            continue
        picks = pts[rng.integers(0, len(pts), size=modes_per_shell)]
        for idx in picks:
            xi = [axes[a][idx[a]] for a in range(grid.N)]
            theta = rng.uniform(0, 2 * np.pi)
            arg = sum(x * m for x, m in zip(xi, mesh)) + theta
            vals += 2.0 ** (-j * gamma) * np.cos(arg) / modes_per_shell
    return GridField(grid, vals)


def test_bony_constant_stable_across_resolutions(kinetic):
    from hypokin.fields import AnisoGrid
    ratios = []
    for n in (64, 128, 256):
        grid = AnisoGrid.build(kinetic.blocks, [n, n])
        f = synth_positive_regularity(grid, 0.8, seed=3)
        g = sp.synthesize_besov_field(0.3, 4, grid)
        prod, ratio = sp.bony_product(f, g, 0.8, -0.3)
        assert np.isfinite(sp.besov_norm(prod, -0.3))
        ratios.append(ratio)
    assert max(ratios) / min(ratios) < 1.5 / 0.5


# --- mollification --------------------------------------------------------------

def test_bump_transform_is_per_element(kinetic):
    # a frequency's value does not depend on the vector that holds it, so
    # the mollifier built on the half lattice is the cut full-lattice one
    for points in (48, 64, 256):
        grid = AnisoGrid.build(kinetic.blocks, [points, points])
        for xi in grid.freq_axes(half=()):
            for n in (1, 4, 16):
                assert np.array_equal(sp._bump_transform(xi / n),
                                      [sp._bump_transform(v) for v in xi / n])


def test_mollify_approximate_identity(grid256):
    f = sp.random_localized_field(grid256, 6, decay=3.0)
    errs = [np.max(np.abs(sp.mollify(f, n).values - f.values))
            for n in (4, 16, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3 * f.sup_norm()


def test_mollify_preserves_constants(grid256):
    c = constant_field(grid256, 2.0)
    assert np.max(np.abs(sp.mollify(c, 3).values - 2.0)) < 1e-12


def test_mollify_norm_non_increasing(grid256):
    for seed, gamma in ((0, 0.5), (1, -0.3)):
        f = sp.synthesize_besov_field(0.3, seed, grid256)
        for n in (2, 8):
            assert sp.besov_norm(sp.mollify(f, n), gamma) \
                <= sp.besov_norm(f, gamma) + 1e-9


def test_mollification_rate(grid_xfine):
    # || f - f^(n) || at index -beta-eta decays like n^{-eta/(2r+1)};
    # the worst block is the position one, weight 3
    beta, eta = 0.3, 0.3
    f = sp.synthesize_besov_field(beta, 12, grid_xfine, modes_per_shell=8)
    ns = np.array([2, 4, 8, 16])
    errs = [sp.besov_norm(f - sp.mollify(f, n), -beta - eta) for n in ns]
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    expected = eta / 3.0
    assert abs(slope - expected) <= 0.3 * expected


# --- synthesis -------------------------------------------------------------------

def test_synthesized_norm_bracket(grid256):
    beta = 0.3
    for seed in range(5):
        b = sp.synthesize_besov_field(beta, seed, grid256)
        norm = sp.besov_norm(b, -beta)
        assert 1.0 / 3.0 <= norm <= 3.0


def test_synthesized_norm_diverges_above_index(grid256):
    beta = 0.3
    b = sp.synthesize_besov_field(beta, 3, grid256)
    norm = sp.besov_norm(b, -beta + 0.1)
    assert norm >= 2.0 ** (0.1 * grid256.J_max) / 3.0


def test_synthesis_deterministic(grid256):
    a = sp.synthesize_besov_field(0.3, 11, grid256)
    b = sp.synthesize_besov_field(0.3, 11, grid256)
    assert np.array_equal(a.values, b.values)
    tm = np.linspace(0, 1, 4)
    ta = sp.synthesize_besov_field(0.3, 11, grid256, time_mesh=tm)
    tb = sp.synthesize_besov_field(0.3, 11, grid256, time_mesh=tm)
    for fa, fb in zip(ta.fields, tb.fields):
        assert np.array_equal(fa.values, fb.values)


def test_synthesis_time_modulation(grid256):
    tm = np.linspace(0, 1, 5)
    b = sp.synthesize_besov_field(0.3, 2, grid256, time_mesh=tm)
    base = sp.synthesize_besov_field(0.3, 2, grid256)
    for t, f in zip(tm, b.fields):
        scale = 1.0 + 0.5 * np.sin(2 * np.pi * t / 1.0)
        assert np.allclose(f.values, base.values * scale, atol=1e-12)


# --- anisotropic Hoelder norm ------------------------------------------------------

def test_holder_constant(grid256):
    assert sp.holder_norm_aniso(constant_field(grid256, 2.5), 0.7) \
        == pytest.approx(2.5)


def test_holder_sine(grid256):
    V, _ = grid256.meshgrid()
    f = GridField(grid256, np.sin(V))
    val = sp.holder_norm_aniso(f, 1.0, seed=0)
    # sup = 1, Lipschitz constant in |.|_B equals 1 (attained along v)
    assert 1.9 <= val <= 2.05


def test_holder_besov_comparable(grid256):
    gamma = 0.7
    ratios = []
    for seed in range(20):
        f = sp.random_smooth_field(grid256, 100 + seed, decay=1.5)
        h = sp.holder_norm_aniso(f, gamma, seed=seed)
        b = sp.besov_norm(f, gamma)
        ratios.append(h / b)
    assert all(0.1 <= r <= 10.0 for r in ratios)


# --- misc ------------------------------------------------------------------------

def test_upsample_exact_on_nodes(grid128):
    f = sp.random_smooth_field(grid128, 4)
    fine = sp.upsample(f, 2)
    assert np.allclose(fine.values[::2, ::2], f.values, atol=1e-12)
    assert float(fine.integral()[0]) == pytest.approx(float(f.integral()[0]))


def test_bandlimit_idempotent(grid256):
    rng = np.random.default_rng(9)
    f = GridField(grid256, rng.standard_normal(grid256.shape))
    bl = sp.bandlimit(f)
    bl2 = sp.bandlimit(bl)
    assert np.max(np.abs(bl2.values - bl.values)) < 1e-12 * bl.sup_norm()


# --- real-to-half-complex transforms against the complex formulas ----------------

def _complex_apply(values, mult):
    """The complex formula: Re ifftn(mult * fftn(values)) over the grid
    axes; `mult` broadcasts against (grid + channel)."""
    axes = tuple(range(values.ndim - 1))
    return np.fft.ifftn(np.fft.fftn(values, axes=axes) * mult, axes=axes).real


def _raw_gaussian(grid, C):
    """exp(-<C xi, xi>/2) on the full lattice, without a Hermitian part."""
    xi = _full_mesh(grid)
    quad = sum(C[a, b] * xi[a] * xi[b]
               for a in range(grid.N) for b in range(grid.N))
    return np.exp(-0.5 * quad)


def _complex_warp(model, grid, values, t):
    """f -> f(exp(tB) z) by full-lattice complex shears."""
    from hypokin.anisotropy import matrix_exp

    coords, freqs = grid.meshgrid(), _full_axes(grid)
    out = values
    for j, m in sg._shear_factors(matrix_exp(model.B, t)):
        for i in np.flatnonzero(np.abs(m) > 0):
            shape = [1] * values.ndim
            shape[i] = grid.shape[i]
            phase = np.exp(1j * freqs[i].reshape(shape)
                           * (m[i] * coords[j])[..., np.newaxis])
            out = np.fft.ifft(np.fft.fft(out, axis=i) * phase, axis=i).real
    return out


def _equivalence_cases():
    from hypokin.anisotropy import chain_model, kinetic_model

    for model, points in ((kinetic_model(), [64, 64]),
                          (chain_model((1, 1, 1)), [16, 16, 16])):
        grid = AnisoGrid.build(model.blocks, points)
        rng = np.random.default_rng(len(points))
        noise = rng.standard_normal(grid.shape + (2,))
        # plus a field (-1)^k_v h(rest) that lives on the velocity Nyquist row
        sign = (-1.0) ** np.arange(grid.shape[0])
        nyq = sign.reshape((-1,) + (1,) * grid.N) \
            * rng.standard_normal((1,) + grid.shape[1:] + (2,))
        yield model, grid, [noise, noise + nyq]


def _rel(new, ref):
    return np.max(np.abs(new - ref)) / max(np.max(np.abs(ref)),
                                           np.finfo(float).tiny)


@pytest.mark.filterwarnings("ignore::hypokin.errors.TimeTooSmallWarning")
@pytest.mark.parametrize("case", range(2))
def test_half_spectrum_matches_complex_formulas(case):
    """Every half-spectrum operator against Re ifftn of its complex formula
    on the kinetic 64^2 grid and the chain-3 16^3 grid (shears along a
    non-last axis), for fields with and without a strong Nyquist row."""
    from hypokin import kolmogorov

    model, grid, samples = list(_equivalence_cases())[case]
    axes = tuple(range(grid.N))
    xi = _full_mesh(grid)
    full = _full_tables(grid)
    band = full["band"][..., np.newaxis]
    prop = sg.Propagator(model, grid)
    tol = 1e-12
    for sample in samples:
        f = GridField(grid, sample[..., :1])
        v = f.values
        shells = [_complex_apply(v, row[..., np.newaxis])
                  for row in full["partition"]]
        for new, ref in zip(sp.lp_decompose(f), shells):
            assert _rel(new.values, ref) <= tol
        sups = np.array([np.max(np.abs(s)) for s in shells])
        j = np.arange(-1, len(shells) - 1)
        assert sp.besov_norm(f, 0.3) == pytest.approx(
            np.max(2.0 ** (0.3 * j) * sups), rel=tol)
        assert _rel(sp.bandlimit(f).values, _complex_apply(v, band)) <= tol
        for axis in range(grid.N):
            assert _rel(sp.spectral_derivative(f, axis).values,
                        _complex_apply(v, 1j * xi[axis][..., None])) <= tol
        div = GridField(grid, sample[..., : grid.blocks.d])
        spec = np.fft.fftn(div.values, axes=axes)
        ref = sum(1j * xi[l] * spec[..., l] for l in range(grid.blocks.d))
        assert _rel(sp.ifftn_real(sp.div_first_block(div))[..., 0],
                    np.fft.ifftn(ref * band[..., 0]).real) <= tol
        fine = np.zeros(tuple(2 * m for m in grid.shape) + (1,), complex)
        idx = np.meshgrid(*[np.fft.fftfreq(m, 1.0 / m).astype(int)
                            for m in grid.shape], indexing="ij")
        fine[tuple(idx)] = np.fft.fftn(v, axes=axes) * 2 ** grid.N
        assert _rel(sp.upsample(f).values,
                    np.fft.ifftn(fine, axes=axes).real) <= tol
        for t in (0.05, 0.5):
            mult = _raw_gaussian(grid, sg.covariance(model, t))
            ref = _complex_warp(model, grid,
                                _complex_apply(v, mult[..., None]), t)
            assert _rel(prop.apply_P(t, f).values, ref) <= tol
            mult = _raw_gaussian(grid, sg.covariance(model, t, reverse=True))
            ref = np.exp(-t * np.trace(model.B)) * _complex_warp(
                model, grid, _complex_apply(v, mult[..., None]), -t)
            assert _rel(prop.apply_Pprime(t, f).values, ref) <= tol
        dt = 0.05
        nodes, wts = np.polynomial.legendre.leggauss(32)
        local = 0.5 * dt * sum(
            w * _raw_gaussian(grid, sg.covariance(
                model, 0.5 * dt * (x + 1.0), reverse=True))
            for x, w in zip(nodes, wts))
        assert _rel(prop.convolve_local(sp.fftn(v), dt),
                    _complex_apply(v, local[..., None])) <= tol
        Bc = GridField(grid, sample[..., :1] ** 2)
        out = sum(Bc.values[..., l:l + 1]
                  * _complex_apply(v, 1j * xi[l][..., None])
                  for l in range(grid.blocks.d))
        assert _rel(sp.ifftn_real(kolmogorov._transport_term(grid, Bc, f)),
                    _complex_apply(out, band)) <= tol


def test_kde_density_matches_complex_formula(monkeypatch, kinetic):
    from hypokin import mckean

    def complex_multiplier(field, mult):
        return field.with_values(
            _complex_apply(field.values, mult[..., np.newaxis]))

    grid = AnisoGrid.build(kinetic.blocks, [64, 64])
    rng = np.random.default_rng(5)
    states = rng.uniform(-0.5, 0.5, (4000, 2)) * grid.half_extents
    ens = mckean.ParticleEnsemble(states=states, t=0.0, dt=1e-3, seed=0,
                                  box=grid)
    new = mckean.kde_density(ens, grid).values
    monkeypatch.setattr(mckean, "gaussian_multiplier", _raw_gaussian)
    monkeypatch.setattr(mckean, "apply_multiplier", complex_multiplier)
    assert _rel(new, mckean.kde_density(ens, grid).values) <= 1e-12


def _full_local(model, grid, dt, moment, reverse, lam):
    """Propagator.local_multiplier on the full lattice, as its formula
    reads: 32 Gauss-Legendre nodes of Hermitian full-lattice Gaussians."""
    nodes, wts = np.polynomial.legendre.leggauss(32)
    mult = np.zeros(grid.shape)
    for tau, w in zip(0.5 * dt * (nodes + 1.0), wts):
        term = sp.hermitian_part(_raw_gaussian(
            grid, sg.covariance(model, tau, reverse=reverse)), range(grid.N))
        mult += w * np.exp(-lam * tau) * (tau / dt) ** moment * term
    mult *= 0.5 * dt
    return mult


@pytest.mark.parametrize("points", [[64, 64], [256, 256], [16, 16, 16]])
def test_half_tables_equal_the_cut_full_lattice_tables(points):
    """Every lattice table is, bit for bit, the first m/2 + 1 columns of
    the last axis of its full-lattice formula."""
    from hypokin.anisotropy import chain_model, kinetic_model

    model = kinetic_model() if len(points) == 2 else chain_model((1, 1, 1))
    grid = AnisoGrid.build(model.blocks, points)
    full = _full_tables(grid)

    def same(half, table):
        assert half.shape[-grid.N:] == grid.spectrum_shape
        assert np.array_equal(half, table[..., : grid.shape[-1] // 2 + 1])

    same(grid.freq_norm, full["freq_norm"])
    same(sp.build_partition(grid), full["partition"])
    same(sp.band_mask(grid), full["band"])
    same(sp.position_headroom_mask(grid), full["headroom"])
    same(sp.mollifier_multiplier(grid, 4), full["mollifier"])
    prop = sg.Propagator(model, grid)
    for t in (1.0 / 127.0, 0.5, 1.0):
        for reverse in (False, True):
            C = sg.covariance(model, t, reverse=reverse)
            ref = sp.hermitian_part(_raw_gaussian(grid, C), range(grid.N))
            same(sp.gaussian_multiplier(grid, C), ref)
            same(prop.multiplier(t, reverse), ref)
    for moment, reverse, lam in ((0, True, 0.0), (1, False, 2.0)):
        same(prop.local_multiplier(0.05, moment, reverse, lam),
             _full_local(model, grid, 0.05, moment, reverse, lam))


def test_grid_memo_holds_half_tables(kinetic):
    # after a forward solve, a backward solve and a KDE on one grid, every
    # array in its memo lives on the half lattice
    from hypokin import fpsolver as fp
    from hypokin import mckean
    from hypokin.fields import gaussian_field
    from hypokin.kolmogorov import BackwardProblem, solve_kolmogorov

    grid = AnisoGrid.build(kinetic.blocks, [32, 32])
    b = sp.mollify_time_field(sp.synthesize_besov_field(
        0.3, 1, grid, time_mesh=np.linspace(0.0, 0.5, 5), amplitude=0.2,
        window=True), 4)
    u0 = sp.bandlimit(gaussian_field(grid, [0.6, 6.0]))
    u0 = u0 * (1.0 / float(u0.integral()[0]))
    fp.solve_fp(fp.FPProblem(model=kinetic, b=b, u0=u0, beta=0.3,
                             epsilon=0.2, T=0.5),
                fp.bounded_rational_nonlinearity())
    solve_kolmogorov(BackwardProblem.zvonkin(kinetic, b, lam=1.0, beta=0.3,
                                             epsilon=0.2))
    mckean.kde_density(mckean.sample_initial(u0, 4000, seed=3), grid)
    tables = [v for v in grid._cache.values() if isinstance(v, np.ndarray)]
    assert len(tables) > 5
    assert all(v.shape[-1] == grid.shape[-1] // 2 + 1 for v in tables)


def test_lattice_tables_are_checked_hermitian(grid256):
    # the cached tables pass the check they were built with
    sp.require_hermitian(sp.build_partition(grid256), axes=(1, 2))
    sp.require_hermitian(sp.mollifier_multiplier(grid256, 4))
    # only the planes 0 and m/2 of the last axis are read as Hermitian:
    # any values in the columns between them pass
    rng = np.random.default_rng(3)
    free = sp.band_mask(grid256).astype(complex)
    inner = free[:, 1:-1].shape
    free[:, 1:-1] = rng.standard_normal(inner) + 1j * rng.standard_normal(inner)
    sp.require_hermitian(free)
    # a rolled mask, a factor odd in the leading frequency and an imaginary
    # Nyquist entry in plane 0 or plane m/2 are not
    xi = np.meshgrid(*grid256.freq_axes(), indexing="ij")
    bad = [np.roll(sp.band_mask(grid256), 1, axis=0), xi[0]]
    for plane in (0, -1):
        table = np.ones(grid256.spectrum_shape, dtype=complex)
        table[grid256.shape[0] // 2, plane] = 1j
        bad.append(table)
    for table in bad:
        with pytest.raises(AssertionError):
            sp.require_hermitian(table)

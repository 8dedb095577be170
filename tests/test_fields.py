import os

import numpy as np
import pytest

from hypokin.errors import GridTooCoarse, HypokinError, NotFinite
from hypokin.fields import (AnisoGrid, GridField, PeriodicInterpolator,
                            TimeField, constant_field, gaussian_field,
                            read_gfd, write_gfd, write_time_field)


def test_grid_geometry(grid256):
    assert grid256.N == 2
    assert grid256.shape == (256, 256)
    assert grid256.J_max == 6
    assert grid256.band_radius == 64.0
    # default half extents follow the dilation weights: L, L^3
    assert grid256.half_extents[1] == pytest.approx(np.pi ** 3)


def test_grid_too_coarse(kinetic):
    with pytest.raises(GridTooCoarse):
        AnisoGrid.build(kinetic.blocks, [8, 8])


def test_grid_validation(kinetic):
    with pytest.raises(ValueError):
        AnisoGrid.build(kinetic.blocks, [255, 256])  # odd
    with pytest.raises(ValueError):
        AnisoGrid.build(kinetic.blocks, [256, 256], half_extents=[0.0, 1.0])


def test_field_shape_checks(grid128):
    with pytest.raises(ValueError):
        GridField(grid128, np.zeros((10, 10)))
    with pytest.raises(ValueError):
        GridField(grid128, np.full(grid128.shape, np.nan))
    f = constant_field(grid128, 2.5)
    assert f.channels == 1
    assert f.sup_norm() == 2.5
    assert f.integral()[0] == pytest.approx(2.5 * grid128.box_volume)


def test_non_finite_field_is_a_package_error(grid128):
    # the CLI maps every HypokinError to an exit code; ValueError callers
    # keep catching it too
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NotFinite) as err:
            GridField(grid128, np.full(grid128.shape, bad))
        assert isinstance(err.value, HypokinError)
        assert isinstance(err.value, ValueError)


def test_with_values_takes_fresh_arrays(grid128):
    f = constant_field(grid128, 1.0)
    fresh = np.full(grid128.shape + (1,), 2.0)
    g = f.with_values(fresh)
    assert g.values is fresh and not fresh.flags.writeable
    with pytest.raises(ValueError):
        fresh[0, 0, 0] = 3.0
    # a view, a grid-shaped array and another dtype are copied
    base = np.full(grid128.shape + (2,), 2.0)
    for values in (base[..., :1], base[..., 0],
                   base[..., 1:].astype(np.float32)):
        h = f.with_values(values)
        assert not np.shares_memory(h.values, values)
        assert not h.values.flags.writeable and h.values.shape[-1] == 1
    assert base.flags.writeable
    # a field built directly copies even a fresh array
    assert not np.shares_memory(GridField(grid128, fresh).values, fresh)
    for bad in (np.nan, np.inf):
        values = np.full(grid128.shape + (1,), bad)
        with pytest.raises(NotFinite):
            f.with_values(values)
        assert values.flags.writeable


def test_gaussian_field_moments(grid128):
    u = gaussian_field(grid128, [0.5, 1.5])
    assert float(u.integral()[0]) == pytest.approx(1.0, abs=1e-12)
    V, X = grid128.meshgrid()
    w = u.values[..., 0] * grid128.cell_volume
    assert np.sum(w * V * V) == pytest.approx(0.25, rel=1e-3)
    assert np.sum(w * X * X) == pytest.approx(2.25, rel=1e-3)
    with pytest.raises(ValueError):
        gaussian_field(grid128, [0.5, 0.01])  # under-resolved in x


def test_time_field_mesh(grid128):
    f = constant_field(grid128, 1.0)
    tf = TimeField(t0=0.0, t1=1.0, fields=(f,) * 5)
    assert tf.n_t == 5
    assert tf.dt == pytest.approx(0.25)
    mid = tf.sample(0.1)
    assert np.allclose(mid.values, 1.0)
    # neighbours that are one object: the slice itself, no blend
    assert mid is f

    rng = np.random.default_rng(11)
    fields = tuple(GridField(grid128, rng.standard_normal(grid128.shape + (2,)))
                   for _ in range(5))
    tf = TimeField(t0=0.5, t1=1.5, fields=fields)
    # within 1e-9 steps of a mesh time (t1 included): that slice itself
    for i, t in enumerate(tf.times):
        for off in (0.0, 2e-10 * tf.dt, -2e-10 * tf.dt):
            assert tf.sample(t + off) is fields[i]
    # between mesh times: the linear formula
    t = 0.5 + 1.3 * tf.dt
    w = (t - 0.5) / tf.dt - 1
    blend = (1.0 - w) * fields[1].values + w * fields[2].values
    assert np.max(np.abs(tf.sample(t).values - blend)) <= 1e-15


def test_time_field_sample_refuses_outside_mesh(grid128):
    # k = 0..10 on [0, 1]: a blend read past either end would extrapolate
    # (to 20 at t = 2 and -5 at t = -0.5); within 1e-9 steps it is the end
    tf = TimeField(t0=0.0, t1=1.0, fields=tuple(
        constant_field(grid128, float(k)) for k in range(11)))
    for t in (2.0, -0.5, 1.0 + 1e-8 * tf.dt, -1e-8 * tf.dt):
        with pytest.raises(ValueError):
            tf.sample(t)
    assert tf.sample(1.0 + 1e-10 * tf.dt) is tf.fields[-1]
    assert tf.sample(-1e-10 * tf.dt) is tf.fields[0]


def test_gfd_roundtrip(tmp_path, grid128):
    rng = np.random.default_rng(3)
    f = GridField(grid128, rng.standard_normal(grid128.shape + (2,)))
    p = os.path.join(tmp_path, "field.gfd")
    write_gfd(p, f)
    g = read_gfd(p)
    assert g.channels == 2
    assert np.array_equal(g.values, f.values)
    assert g.grid.is_compatible(grid128)
    # header is one JSON line
    with open(p, "rb") as fh:
        header = fh.readline()
    assert header.startswith(b"{")


def test_time_field_sequence(tmp_path, grid128):
    f = constant_field(grid128, 1.0)
    tf = TimeField(t0=0.0, t1=0.5, fields=(f, f * 2.0, f * 3.0))
    paths = write_time_field(str(tmp_path), "u", tf)
    assert len(paths) == 3
    back = read_gfd(paths[1], grid=grid128)
    assert np.allclose(back.values, 2.0)


def _corner_loop(grid, values, points):
    """Reference multilinear interpolation: the 2^N-corner sum."""
    s = (points + grid.half_extents) / grid.spacings
    i0 = np.floor(s).astype(np.int64)
    frac = s - i0
    out = np.zeros((points.shape[0], values.shape[-1]))
    for corner in range(2 ** grid.N):
        idx = []
        wgt = np.ones(points.shape[0])
        for k in range(grid.N):
            bit = (corner >> k) & 1
            idx.append((i0[:, k] + bit) % grid.shape[k])
            wgt = wgt * (frac[:, k] if bit else 1.0 - frac[:, k])
        out += wgt[:, np.newaxis] * values[tuple(idx)]
    return out


def test_periodic_interpolator(grid128, chain3):
    V, X = grid128.meshgrid()
    f = GridField(grid128, np.sin(V) + np.cos(X * 2 * np.pi / (2 * np.pi ** 3)))
    interp = PeriodicInterpolator(f)
    pts = grid128.points()[::97]
    vals = interp(pts)
    assert np.allclose(vals[:, 0], f.values[..., 0].ravel()[::97], atol=1e-12)
    # periodic wrap: shifting by one full period changes nothing
    shifted = pts + 2.0 * grid128.half_extents
    assert np.allclose(interp(shifted), vals, atol=1e-10)

    # the gather against the corner-loop formula, 2 channels
    rng = np.random.default_rng(5)
    for grid in (grid128, AnisoGrid.build(chain3.blocks, [16, 16, 16])):
        L, h = grid.half_extents, grid.spacings
        f = GridField(grid, rng.standard_normal(grid.shape + (2,)))
        pts = np.concatenate([
            rng.uniform(-L, L, size=(500, grid.N)),
            grid.points()[::31],                      # grid nodes
            [-L, L - 1e-15, np.nextafter(L, 0.0)],    # box edges
            L - rng.uniform(0.0, h, size=(50, grid.N)),   # last cell: seam
        ])
        pts = np.concatenate([pts + 2.0 * k * L for k in (0, 1, -1, 2, -2)])
        got = PeriodicInterpolator(f)(pts)
        assert got.shape == (pts.shape[0], 2)
        assert np.max(np.abs(got - _corner_loop(grid, f.values, pts))) <= 1e-13
        # the (M, N) view of coordinate rows reads the same bits as a
        # C-contiguous copy of its points
        Z = np.ascontiguousarray(pts.T)
        view = PeriodicInterpolator(f)(Z.T)
        assert view.shape == (pts.shape[0], 2)
        assert np.array_equal(view, got)
        assert np.array_equal(view, PeriodicInterpolator(f)(Z.T.copy()))


def test_immutability(grid128):
    f = constant_field(grid128, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 7.0
    with pytest.raises(ValueError):
        grid128.half_extents[0] = 1.0

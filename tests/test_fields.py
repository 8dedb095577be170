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
    assert tf.index_of(0.5) == 2
    with pytest.raises(ValueError):
        tf.index_of(0.3)
    mid = tf.sample(0.1)
    assert np.allclose(mid.values, 1.0)


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


def test_periodic_interpolator(grid128):
    V, X = grid128.meshgrid()
    f = GridField(grid128, np.sin(V) + np.cos(X * 2 * np.pi / (2 * np.pi ** 3)))
    interp = PeriodicInterpolator(f)
    pts = grid128.points()[::97]
    vals = interp(pts)
    assert np.allclose(vals[:, 0], f.values[..., 0].ravel()[::97], atol=1e-12)
    # periodic wrap: shifting by one full period changes nothing
    shifted = pts + 2.0 * grid128.half_extents
    assert np.allclose(interp(shifted), vals, atol=1e-10)


def test_immutability(grid128):
    f = constant_field(grid128, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 7.0
    with pytest.raises(ValueError):
        grid128.half_extents[0] = 1.0

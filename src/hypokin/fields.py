"""Periodic grids and sampled fields.

The continuum R^N is replaced by the torus prod [-L_k, L_k) sampled on an
even lattice.  Frequencies live on the dual lattice xi_k in (pi/L_k) * Z,
and the number of usable dyadic shells J_max is read off the largest
anisotropic frequency the lattice represents.  Every field is real, so
`AnisoGrid.freq_axes` defines the lattice as the half that a real
transform returns: the last axis keeps its frequencies 0..m/2.
"""

import json
from dataclasses import InitVar, dataclass

import numpy as np

from .anisotropy import BlockStructure, aniso_norm
from .errors import GridTooCoarse, NotFinite

MIN_SHELLS = 2


@dataclass(frozen=True, eq=False)
class AnisoGrid:
    """Even periodic lattice on prod [-L_k, L_k) with anisotropic bookkeeping."""

    blocks: BlockStructure
    half_extents: np.ndarray
    points_per_dim: np.ndarray

    def __post_init__(self):
        L = np.broadcast_to(np.asarray(self.half_extents, dtype=float),
                            (self.blocks.N,)).copy()
        n = np.broadcast_to(np.asarray(self.points_per_dim, dtype=int),
                            (self.blocks.N,)).copy()
        if np.any(L <= 0):
            raise ValueError("half extents must be positive")
        if np.any(n < 2) or np.any(n % 2 != 0):
            raise ValueError("points_per_dim must be even integers >= 2")
        L.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "half_extents", L)
        object.__setattr__(self, "points_per_dim", n)
        object.__setattr__(self, "_cache", {})
        if self.J_max < MIN_SHELLS:
            raise GridTooCoarse(
                f"lattice supports J_max={self.J_max} < {MIN_SHELLS} dyadic shells"
            )

    @classmethod
    def build(cls, blocks, points_per_dim, half_extents=None):
        if half_extents is None:
            # L_k = pi^(2i+1) in block i, so dilations act naturally
            half_extents = np.pi ** blocks.coordinate_weights().astype(float)
        return cls(blocks=blocks, half_extents=np.asarray(half_extents, float),
                   points_per_dim=np.asarray(points_per_dim))

    @property
    def N(self):
        return self.blocks.N

    @property
    def shape(self):
        return tuple(int(m) for m in self.points_per_dim)

    @property
    def npoints(self):
        return int(np.prod(self.points_per_dim))

    @property
    def spacings(self):
        return 2.0 * self.half_extents / self.points_per_dim

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def box_volume(self):
        return float(np.prod(2.0 * self.half_extents))

    def axes(self):
        """Physical coordinates along each axis."""
        return [
            -L + h * np.arange(m)
            for L, h, m in zip(self.half_extents, self.spacings, self.shape)
        ]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def points(self):
        """All grid points as an (npoints, N) array."""
        return np.stack([g.ravel() for g in self.meshgrid()], axis=-1)

    def freq_axes(self, half=None):
        """Dual-lattice frequencies per axis, in fft ordering, on the half
        lattice of `fftn`: the last axis (or each axis in `half`) keeps its
        m/2 + 1 indices 0..m/2, the ones a real transform along it returns.
        Index k keeps its frequency, so the Nyquist index m/2 is -m/2."""
        half = (self.N - 1,) if half is None else tuple(half)
        axes = [2.0 * np.pi * np.fft.fftfreq(m, d=h)
                for m, h in zip(self.shape, self.spacings)]
        return [xi[: len(xi) // 2 + 1] if a in half else xi
                for a, xi in enumerate(axes)]

    @property
    def spectrum_shape(self):
        """Shape of the half lattice, which every lattice table has."""
        return tuple(len(xi) for xi in self.freq_axes())

    def table(self, key, build):
        """The memo of everything built once per grid: build() on the first
        call with `key`, the same object after; an array is stored
        read-only."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return value

    @property
    def freq_norm(self):
        """|xi|_B on the half lattice."""
        return self.table("freq_norm", lambda: aniso_norm(np.stack(
            np.meshgrid(*self.freq_axes(), indexing="ij"), axis=-1),
            self.blocks))

    @property
    def max_freq_norm(self):
        """Largest representable |xi|_B (attained at the Nyquist corner)."""
        corner = np.array([np.max(np.abs(ax)) for ax in self.freq_axes()])
        return float(aniso_norm(corner, self.blocks))

    @property
    def J_max(self):
        """Largest j with 2^(j+1) <= max representable |xi|_B."""
        return int(np.floor(np.log2(self.max_freq_norm))) - 1

    @property
    def band_radius(self):
        """Shells -1..J_max sum to one exactly on |xi|_B <= 2^J_max."""
        return 2.0 ** self.J_max

    def header(self):
        return {
            "dims": list(self.blocks.dims),
            "half_extents": self.half_extents.tolist(),
            "points_per_dim": self.points_per_dim.tolist(),
        }

    def is_compatible(self, other):
        return (
            self.blocks.dims == other.blocks.dims
            and np.array_equal(self.points_per_dim, other.points_per_dim)
            and np.allclose(self.half_extents, other.half_extents)
        )


@dataclass(frozen=True, eq=False)
class GridField:
    """Real m-channel samples on an AnisoGrid; values shape = grid.shape + (m,).

    The values are read-only and finite (else NotFinite).  They are a copy
    of the array given, unless `own` is set and that array (as float) owns
    its memory and has the full shape: then the field takes it as it is
    and makes it read-only.  `with_values` sets `own`, for the fresh
    arrays the package makes; a view, such as an array read from a file
    or one without the channel axis, is still copied.
    """

    grid: AnisoGrid
    values: np.ndarray
    own: InitVar[bool] = False

    def __post_init__(self, own):
        v = np.asarray(self.values, dtype=float)
        if v.shape == self.grid.shape:
            v = v[..., np.newaxis]
        if v.shape != self.grid.shape + (v.shape[-1],):
            raise ValueError(
                f"values shape {v.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NotFinite("field values must be finite")
        if not (own and v.base is None):
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def channels(self):
        return self.values.shape[-1]

    def with_values(self, values):
        """A field on this grid that takes ownership of `values` (see the
        class): the caller hands over a fresh array and keeps no use of
        it, for it becomes read-only."""
        return GridField(self.grid, values, own=True)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def integral(self):
        """Per-channel box quadrature."""
        axes = tuple(range(self.grid.N))
        return np.sum(self.values, axis=axes) * self.grid.cell_volume

    def __add__(self, other):
        return self.with_values(self.values + _values_of(other))

    def __sub__(self, other):
        return self.with_values(self.values - _values_of(other))

    def __mul__(self, scalar):
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__


def _values_of(other):
    return other.values if isinstance(other, GridField) else other


def constant_field(grid, value, channels=1):
    return GridField(grid, np.full(grid.shape + (channels,), float(value)))


class PeriodicInterpolator:
    """Multilinear interpolation of a GridField with periodic wrap.

    Callable on an (M, N) array of physical points; returns (M, channels),
    a transposed view of one (channels, M) array.  Each channel is one
    `scipy.ndimage.map_coordinates` gather (order 1, mode "grid-wrap") on
    the cell coordinates of the points, written into its row of that array.
    """

    def __init__(self, field):
        self.grid = field.grid
        self.values = field.values

    def __call__(self, points):
        # imported here: a top-level import slows every CLI start-up
        from scipy.ndimage import map_coordinates

        g = self.grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = pts.T + g.half_extents[:, np.newaxis]
        cells /= g.spacings[:, np.newaxis]
        out = np.empty((self.values.shape[-1], pts.shape[0]))
        for c in range(out.shape[0]):
            map_coordinates(self.values[..., c], cells, output=out[c],
                            order=1, mode="grid-wrap")
        return out.T


def gaussian_field(grid, sigmas, center=None):
    """Axis-aligned Gaussian samples, scaled to unit box mass.

    Widths below ~2 grid cells are not representable without ringing, so
    they are rejected.
    """
    sig = np.broadcast_to(np.asarray(sigmas, dtype=float), (grid.N,))
    if np.any(sig < 2.0 * grid.spacings):
        raise ValueError(
            f"sigmas {sig} under-resolved for spacings {grid.spacings}"
        )
    c = np.zeros(grid.N) if center is None else np.asarray(center, float)
    quad = np.zeros(grid.shape)
    for a, ax in enumerate(grid.meshgrid()):
        quad += ((ax - c[a]) / sig[a]) ** 2
    vals = np.exp(-0.5 * quad)
    vals /= (2.0 * np.pi) ** (grid.N / 2.0) * np.prod(sig)
    f = GridField(grid, vals[..., np.newaxis])
    return f * (1.0 / float(f.integral()[0]))


@dataclass(frozen=True, eq=False)
class TimeField:
    """GridFields on a uniform time mesh over [t0, t1]."""

    t0: float
    t1: float
    fields: tuple

    def __post_init__(self):
        fields = tuple(self.fields)
        if len(fields) < 2:
            raise ValueError("a time mesh needs at least two points")
        g0, c0 = fields[0].grid, fields[0].channels
        for f in fields[1:]:
            if f.grid is not g0 and not g0.is_compatible(f.grid):
                raise ValueError("all fields must share one grid")
            if f.channels != c0:
                raise ValueError("all fields must share the channel count")
        object.__setattr__(self, "fields", fields)

    @property
    def n_t(self):
        return len(self.fields)

    @property
    def times(self):
        return np.linspace(self.t0, self.t1, self.n_t)

    @property
    def dt(self):
        return (self.t1 - self.t0) / (self.n_t - 1)

    @property
    def mesh(self):
        """(t0, t1, n_t): equal for two fields on one time mesh."""
        return self.t0, self.t1, self.n_t

    @property
    def grid(self):
        return self.fields[0].grid

    @property
    def channels(self):
        return self.fields[0].channels

    def at_index(self, i):
        return self.fields[i]

    def sample(self, t):
        """The field at time t, blended linearly between the two mesh slices
        around it.  Within 1e-9 steps of a mesh time, or between two slices
        that are one object, it returns the slice itself.  A t more than
        1e-9 steps outside [t0, t1] is a ValueError: there is no slice."""
        s = (t - self.t0) / self.dt
        if not -1e-9 <= s <= self.n_t - 1 + 1e-9:
            raise ValueError(f"t = {t:g} outside [{self.t0:g}, {self.t1:g}]")
        i = int(np.clip(np.floor(s + 1e-9), 0, self.n_t - 2))
        w = s - i
        a, b = self.fields[i], self.fields[i + 1]
        if abs(w) < 1e-9 or a is b:
            return a
        if abs(w - 1.0) < 1e-9:
            return b
        return a.with_values((1.0 - w) * a.values + w * b.values)

    def sup_norm(self):
        return max(f.sup_norm() for f in self.fields)


def snap_to_mesh(times, t):
    """The mesh time nearest to t, the earlier one on a tie."""
    return float(times[np.argmin(np.abs(times - t))])


def zero_time_field(like, channels=1):
    """The zero field with `channels` channels on the grid and the time
    mesh of the TimeField `like`."""
    zero = GridField(like.grid, np.zeros(like.grid.shape + (channels,)),
                     own=True)
    return TimeField(t0=like.t0, t1=like.t1, fields=(zero,) * like.n_t)


# --- .gfd binary dump: one-line JSON header, then little-endian float64 ---

def write_gfd(path, field):
    header = dict(field.grid.header(), channels=field.channels)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_gfd(path, grid=None):
    """A malformed header or a grid other than `grid` is a ValueError."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    try:
        file_grid = AnisoGrid(
            blocks=BlockStructure(tuple(header["dims"])),
            half_extents=np.asarray(header["half_extents"], float),
            points_per_dim=np.asarray(header["points_per_dim"], int),
        )
        m = int(header["channels"])
    except (TypeError, KeyError, GridTooCoarse) as exc:
        raise ValueError(f"{path}: malformed header: {exc!r}") from exc
    if grid is not None:
        if not grid.is_compatible(file_grid):
            raise ValueError(f"{path}: grid in file does not match the scenario grid")
        file_grid = grid
    values = np.frombuffer(raw, dtype="<f8").reshape(file_grid.shape + (m,))
    return GridField(grid=file_grid, values=values)


def write_time_field(directory, stem, tfield):
    """Dump a TimeField as a numbered .gfd sequence plus a times index."""
    import os

    paths = []
    for i, f in enumerate(tfield.fields):
        p = os.path.join(directory, f"{stem}_{i:04d}.gfd")
        write_gfd(p, f)
        paths.append(p)
    index = {
        "t0": tfield.t0,
        "t1": tfield.t1,
        "n_t": tfield.n_t,
        "files": [os.path.basename(p) for p in paths],
    }
    with open(os.path.join(directory, f"{stem}_index.json"), "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
    return paths

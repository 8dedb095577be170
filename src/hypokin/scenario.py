"""Scenario configuration: parsing, validation, and object construction.

Configs are INI files with one flat section per module.  Every default is
resolved at parse time and recorded, so a run is fully described by the
resolved mapping written into its manifest.
"""

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .anisotropy import KolmogorovModel
from .errors import ConfigError, HypokinError, UnsupportedFlow
from .fields import (AnisoGrid, gaussian_field, read_gfd, snap_to_mesh,
                     TimeField)
from .fpsolver import MASS_TOL, SolverConfig, bounded_rational_nonlinearity
from .mckean import KDE_MIN_PARTICLES
from .semigroup import require_lower_triangular
from .spectral import (apply_multiplier, bandlimit, position_headroom_mask,
                       synthesize_besov_field)

_REQUIRED_SECTIONS = ("model", "grid", "drift", "fp", "run")


def _reader(cfg):
    """A getter over cfg and the set of (section, key) pairs it was asked
    for; whatever the config holds outside that set is unknown."""
    seen = set()

    def get(section, key, conv, default=None, required=False):
        seen.add((section, cfg.optionxform(key)))
        try:
            raw = cfg.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                raise ConfigError(f"missing key [{section}] {key}")
            return default
        return _convert(section, key, conv, raw)

    return get, seen


def _reject_unknown(cfg, seen):
    sections = {section for section, _ in seen}
    for section in cfg.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg.options(section):
            if (section, key) not in seen:
                raise ConfigError(f"unknown key [{section}] {key}")


def _convert(section, key, conv, raw):
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"invalid value for [{section}] {key}: {raw!r} ({exc})") from exc


def _float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _floats(raw):
    return [_float(x) for x in raw.replace(",", " ").split()]


def _ints(raw):
    return [int(x) for x in raw.replace(",", " ").split()]


def _at_least(lo, number=int):
    def conv(raw):
        value = number(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value
    return conv


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated scenario parameters; each `build_*` call builds its
    object afresh from them."""

    resolved: dict
    base_dir: str = "."

    # -- validated accessors -----------------------------------------------

    def __getitem__(self, key):
        return self.resolved[key]

    # -- construction --------------------------------------------------------

    def build_model(self):
        d = self["model.d"]
        B = np.asarray(self["model.B"], dtype=float)
        N = int(round(np.sqrt(B.size)))
        if N * N != B.size:
            raise ConfigError("[model] B must be a flat row-major square matrix")
        try:
            model = KolmogorovModel.from_drift(B.reshape(N, N), d)
        except (ValueError, HypokinError) as exc:
            raise ConfigError(f"[model] B, d: {exc}") from exc
        try:
            require_lower_triangular(model.B)
        except UnsupportedFlow as exc:
            raise ConfigError(f"[model] {exc}") from exc
        return model

    def build_grid(self, model):
        half = self["grid.half_extents"]
        try:
            return AnisoGrid.build(
                model.blocks,
                points_per_dim=np.asarray(self["grid.points_per_dim"], int),
                half_extents=None if half is None else np.asarray(half, float),
            )
        except (ArithmeticError, ValueError, HypokinError) as exc:
            raise ConfigError(
                f"[grid] points_per_dim, half_extents: {exc}") from exc

    def time_mesh(self):
        return np.linspace(0.0, self["run.T"], self["fp.n_t"])

    def build_drift(self, grid):
        """The drift as a TimeField on the solver mesh, with one channel per
        noisy coordinate (model.d): the paper's rough drift itself, not a
        mollification of it.

        Every drift, synthesized or read from file, loses its Fourier modes
        above half the Nyquist frequency on the position axes: the solver
        multiplies it pointwise with a function of the density, and without
        that headroom the product aliases (the velocity axes have it from
        the band already).  Nothing else is done to it: a synthesized drift
        lives in the band, and a drift read from file is used as read.  The
        particle layer sees the same drift.
        """
        mult = position_headroom_mask(grid)
        times = self.time_mesh()
        if self["drift.kind"] == "file":
            try:
                base = read_gfd(os.path.join(self.base_dir,
                                             self["drift.path"]), grid=grid)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"[drift] path: {exc}") from exc
            if base.channels != grid.blocks.d:
                raise ConfigError(f"[drift] path: the drift has {base.channels}"
                                  f" channels, the model d = {grid.blocks.d}")
            fields = (apply_multiplier(base, mult),) * len(times)
        else:
            raw = synthesize_besov_field(
                beta=self["drift.beta"],
                seed=self["drift.seed"],
                grid=grid,
                channels=grid.blocks.d,
                time_mesh=times,
                amplitude=self["drift.amplitude"],
                window=True,
                modes_per_shell=self["drift.modes_per_shell"],
            )
            fields = tuple(apply_multiplier(f, mult) for f in raw.fields)
        return TimeField(t0=0.0, t1=self["run.T"], fields=fields)

    def build_u0(self, grid):
        """The band-limited Gaussian of unit mass; a band too coarse for it
        rings below -MASS_TOL, the bound of a density in `FPProblem`."""
        try:
            u0 = bandlimit(gaussian_field(grid, self["fp.u0_sigmas"]))
            u0 = u0 * (1.0 / float(u0.integral()[0]))
            if float(np.min(u0.values)) < -MASS_TOL:
                raise ValueError("the band-limited density is negative; "
                                 "widen it or refine [grid] points_per_dim")
            return u0
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"[fp] u0_sigmas: {exc}") from exc

    def nonlinearity(self):
        """F(s) = 1 / (1 + s^2), the one nonlinearity of every scenario."""
        return bounded_rational_nonlinearity()

    def fp_config(self):
        """The solver defaults: no scenario sets a Picard setting.  Only
        `perfbench/worker.py` still asks for them."""
        return SolverConfig()

    def backward_config(self):
        """The solver defaults, as `fp_config`."""
        return SolverConfig()


def load_scenario(path, seed_override=None):
    """Parse and validate a scenario config.  A section or key that no
    pipeline reads is a ConfigError, so a misspelt key cannot run silently
    with its default."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: a value holding % reaches its key's converter
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                    interpolation=None)
    try:
        cfg.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    for section in _REQUIRED_SECTIONS:
        if not cfg.has_section(section):
            raise ConfigError(f"missing section [{section}]")
    get, seen = _reader(cfg)

    r = {}
    r["model.d"] = get("model", "d", _at_least(1), required=True)
    r["model.B"] = get("model", "B", _floats, required=True)

    r["grid.points_per_dim"] = get("grid", "points_per_dim", _ints,
                                   required=True)
    r["grid.half_extents"] = get("grid", "half_extents", _floats, None)

    r["drift.kind"] = get("drift", "kind", str, "synthesize")
    if r["drift.kind"] not in ("synthesize", "file"):
        raise ConfigError("[drift] kind must be 'synthesize' or 'file'")
    r["drift.beta"] = get("drift", "beta", _float, required=True)
    if not 0.0 < r["drift.beta"] < 0.5:
        raise ConfigError("[drift] beta must lie in (0, 1/2)")
    r["drift.seed"] = get("drift", "seed", _at_least(0), 42)
    r["drift.amplitude"] = get("drift", "amplitude", _float, 0.3)
    r["drift.modes_per_shell"] = get("drift", "modes_per_shell",
                                     _at_least(1), 16)
    r["drift.path"] = get("drift", "path", str, "")
    if r["drift.kind"] == "file" and not r["drift.path"]:
        raise ConfigError("[drift] path is required when kind = file")

    r["fp.epsilon"] = get("fp", "epsilon", _float, required=True)
    if not 0.0 < r["fp.epsilon"] < 1.0 - 2.0 * r["drift.beta"]:
        raise ConfigError("[fp] epsilon must lie in (0, 1 - 2 beta)")
    r["fp.n_t"] = get("fp", "n_t", _at_least(2), 128)
    r["fp.u0_sigmas"] = get("fp", "u0_sigmas", _floats, required=True)

    r["run.T"] = get("run", "T", _float, required=True)
    if r["run.T"] <= 0:
        raise ConfigError("[run] T must be positive")
    r["run.seed"] = get("run", "seed", _at_least(0), 0)
    if seed_override is not None:
        r["run.seed"] = _convert("run", "seed", _at_least(0),
                                 seed_override)

    r["kolmogorov.lambda"] = get("kolmogorov", "lambda", _at_least(0, _float),
                                 1.0)

    T = r["run.T"]
    r["simulation.particles"] = get("simulation", "particles",
                                    _at_least(KDE_MIN_PARTICLES), 100000)
    r["simulation.dt"] = get("simulation", "dt", _float, 1e-3)
    if r["simulation.dt"] <= 0:
        raise ConfigError("[simulation] dt must be positive")
    r["simulation.checkpoints"] = get("simulation", "checkpoints", _floats,
                                      [T / 4, T / 2, T])
    r["simulation.seed"] = get("simulation", "seed", _at_least(0), 7)

    r["martingale.particles"] = get("martingale", "particles",
                                    _at_least(2), 20000)
    r["martingale.windows"] = get("martingale", "windows", _floats,
                                  [T / 4, T / 2, T])
    r["martingale.n_sources"] = get("martingale", "n_sources",
                                    _at_least(1), 3)

    _reject_unknown(cfg, seen)
    validate_cross_keys(r)
    scn = Scenario(resolved=r, base_dir=os.path.dirname(os.path.abspath(path)))
    validate_time_step(scn)
    return scn


def validate_cross_keys(r):
    cps = r["simulation.checkpoints"]
    if not cps or any(c <= 0 or c > r["run.T"] + 1e-12 for c in cps):
        raise ConfigError(
            "[simulation] checkpoints must be one or more times in (0, T]")
    ws = r["martingale.windows"]
    if len(ws) < 2 or any(w <= 0 or w > r["run.T"] for w in ws):
        raise ConfigError("[martingale] windows must lie in (0, T]")
    mesh = np.linspace(0.0, r["run.T"], r["fp.n_t"])
    snapped = [snap_to_mesh(mesh, w) for w in ws]
    if any(a >= b for a, b in zip(snapped, snapped[1:])):
        raise ConfigError(
            f"[martingale] windows must strictly increase on the PDE time "
            f"mesh of [fp] n_t points; they snap to {snapped}")
    first = min(cps + [t for t in snapped if t > 0])
    if r["simulation.dt"] > first:
        raise ConfigError(
            f"[simulation] dt must not exceed the first checkpoint or "
            f"snapped window end, {first:g}")


def validate_time_step(scn):
    """The mesh step T / (n_t - 1) must be at least h_v^2, h_v the smallest
    velocity spacing: below that the kernel of one step is narrower than
    one cell, the test that `Propagator._factors` makes on every march
    step and evolution lag."""
    model = scn.build_model()
    h_v = float(np.min(scn.build_grid(model).spacings[: model.d]))
    dt = scn["run.T"] / (scn["fp.n_t"] - 1)
    if np.sqrt(dt) < h_v:
        raise ConfigError(
            f"[fp] n_t: the time step {dt:.3g} is below h_v^2 = "
            f"{h_v ** 2:.3g}, h_v the smallest velocity spacing of [grid] "
            f"points_per_dim; lower [fp] n_t or refine the velocity axes")


def preset_path(name):
    here = os.path.dirname(os.path.abspath(__file__))
    p = os.path.join(here, "presets", f"{name}.cfg")
    if not os.path.exists(p):
        raise ConfigError(f"unknown preset {name!r}")
    return p

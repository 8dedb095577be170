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
from .errors import ConfigError, HypokinError
from .fields import AnisoGrid, gaussian_field, read_gfd, TimeField
from .fpsolver import NONLINEARITIES, SolverConfig
from .mckean import KDE_MIN_PARTICLES
from .semigroup import triangularity
from .spectral import (apply_multiplier, bandlimit, mollifier_multiplier,
                       position_headroom_mask, synthesize_besov_field)

_REQUIRED_SECTIONS = ("model", "grid", "drift", "fp", "run")


def _get(cfg, section, key, conv, default=None, required=False):
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError(f"missing key [{section}] {key}")
        return default
    return _convert(section, key, conv, raw)


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


def _int_at_least(lo):
    def conv(raw):
        value = int(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value
    return conv


def _bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated scenario parameters plus lazily built heavy objects."""

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
        if triangularity(model.B) is None:
            raise ConfigError(
                "[model] B must be strictly triangular: the exact shear "
                "warp of the semigroup supports no other drift matrix")
        return model

    def build_grid(self, model):
        half = self["grid.half_extents"]
        try:
            return AnisoGrid.build(
                model.blocks,
                points_per_dim=np.asarray(self["grid.points_per_dim"], int),
                half_extents=None if half is None else np.asarray(half, float),
                L0=self["grid.L0"],
            )
        except (ArithmeticError, ValueError, HypokinError) as exc:
            raise ConfigError(
                f"[grid] points_per_dim, half_extents, L0: {exc}") from exc

    def time_mesh(self):
        return np.linspace(0.0, self["run.T"], self["fp.n_t"])

    def build_drift(self, grid, mollify_level=None):
        """The (possibly mollified) drift as a TimeField on the solver mesh.

        Every drift, synthesized or read from file, loses its Fourier modes
        above half the Nyquist frequency on the position axes: the solver
        multiplies it pointwise with a function of the density, and without
        that headroom the product aliases (the velocity axes have it from
        the band already).  The particle layer sees the same drift.  The
        filter and the mollifier share one transform pair per field.
        """
        mult = position_headroom_mask(grid)
        n = self["drift.mollify"] if mollify_level is None else mollify_level
        if n and n > 0:
            mult = mult * mollifier_multiplier(grid, n)
        times = self.time_mesh()
        if self["drift.kind"] == "file":
            try:
                base = read_gfd(os.path.join(self.base_dir,
                                             self["drift.path"]), grid=grid)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"[drift] path: {exc}") from exc
            fields = (apply_multiplier(base, mult),) * len(times)
        else:
            raw = synthesize_besov_field(
                beta=self["drift.beta"],
                seed=self["drift.seed"],
                grid=grid,
                channels=self["drift.channels"],
                time_mesh=times,
                amplitude=self["drift.amplitude"],
                window=self["drift.window"],
                modes_per_shell=self["drift.modes_per_shell"],
                x_fraction=self["drift.x_fraction"],
            )
            fields = tuple(apply_multiplier(f, mult) for f in raw.fields)
        return TimeField(t0=0.0, t1=self["run.T"], fields=fields)

    def build_u0(self, grid):
        try:
            u0 = bandlimit(gaussian_field(grid, self["fp.u0_sigmas"]))
            return u0 * (1.0 / float(u0.integral()[0]))
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"[fp] u0_sigmas: {exc}") from exc

    def nonlinearity(self):
        name = self["fp.nonlinearity"]
        if name == "constant":
            return NONLINEARITIES[name](self["fp.nonlinearity_value"])
        return NONLINEARITIES[name]()

    def fp_config(self):
        return SolverConfig(
            rho=self["fp.rho"],
            picard_tol=self["fp.picard_tol"],
            max_iters=self["fp.max_iters"],
            n_t=self["fp.n_t"],
            scheme=self["fp.scheme"],
        )

    def backward_config(self):
        return SolverConfig(
            rho=self["kolmogorov.rho"],
            picard_tol=self["kolmogorov.picard_tol"],
            max_iters=self["kolmogorov.max_iters"],
            n_t=self["fp.n_t"],
        )


def load_scenario(path, seed_override=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read(path)
    for section in _REQUIRED_SECTIONS:
        if not cfg.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    r = {}
    r["model.d"] = _get(cfg, "model", "d", _int_at_least(1), required=True)
    r["model.B"] = _get(cfg, "model", "B", _floats, required=True)

    r["grid.points_per_dim"] = _get(cfg, "grid", "points_per_dim", _ints,
                                    required=True)
    r["grid.half_extents"] = _get(cfg, "grid", "half_extents", _floats, None)
    r["grid.L0"] = _get(cfg, "grid", "L0", _float, float(np.pi))

    r["drift.kind"] = _get(cfg, "drift", "kind", str, "synthesize")
    if r["drift.kind"] not in ("synthesize", "file"):
        raise ConfigError("[drift] kind must be 'synthesize' or 'file'")
    r["drift.beta"] = _get(cfg, "drift", "beta", _float, required=True)
    if not 0.0 < r["drift.beta"] < 0.5:
        raise ConfigError("[drift] beta must lie in (0, 1/2)")
    r["drift.seed"] = _get(cfg, "drift", "seed", _int_at_least(0), 42)
    r["drift.channels"] = _get(cfg, "drift", "channels", _int_at_least(1), 1)
    r["drift.amplitude"] = _get(cfg, "drift", "amplitude", _float, 0.3)
    r["drift.modes_per_shell"] = _get(cfg, "drift", "modes_per_shell",
                                      _int_at_least(1), 16)
    r["drift.x_fraction"] = _get(cfg, "drift", "x_fraction", _float, None)
    r["drift.window"] = _get(cfg, "drift", "window", _bool, True)
    r["drift.mollify"] = _get(cfg, "drift", "mollify", _int_at_least(0), 8)
    r["drift.path"] = _get(cfg, "drift", "path", str, "")
    if r["drift.kind"] == "file" and not r["drift.path"]:
        raise ConfigError("[drift] path is required when kind = file")

    r["fp.epsilon"] = _get(cfg, "fp", "epsilon", _float, required=True)
    if not 0.0 < r["fp.epsilon"] < 1.0 - 2.0 * r["drift.beta"]:
        raise ConfigError("[fp] epsilon must lie in (0, 1 - 2 beta)")
    r["fp.enabled"] = _get(cfg, "fp", "enabled", _bool, True)
    r["fp.n_t"] = _get(cfg, "fp", "n_t", _int_at_least(2), 128)
    r["fp.picard_tol"] = _get(cfg, "fp", "picard_tol", _float, 1e-8)
    r["fp.max_iters"] = _get(cfg, "fp", "max_iters", _int_at_least(1), 30)
    r["fp.rho"] = _get(cfg, "fp", "rho", _float, 0.0)
    r["fp.scheme"] = _get(cfg, "fp", "scheme", str, "constant")
    if r["fp.scheme"] not in ("constant", "linear"):
        raise ConfigError("[fp] scheme must be 'constant' or 'linear'")
    r["fp.u0_sigmas"] = _get(cfg, "fp", "u0_sigmas", _floats, required=True)
    r["fp.nonlinearity"] = _get(cfg, "fp", "nonlinearity", str,
                                "bounded-rational")
    if r["fp.nonlinearity"] not in NONLINEARITIES:
        raise ConfigError(
            f"[fp] nonlinearity must be one of {sorted(NONLINEARITIES)}"
        )
    r["fp.nonlinearity_value"] = _get(cfg, "fp", "nonlinearity_value", _float, 1.0)

    r["run.T"] = _get(cfg, "run", "T", _float, required=True)
    if r["run.T"] <= 0:
        raise ConfigError("[run] T must be positive")
    r["run.seed"] = _get(cfg, "run", "seed", _int_at_least(0), 0)
    if seed_override is not None:
        r["run.seed"] = _convert("run", "seed", _int_at_least(0),
                                 seed_override)

    r["kolmogorov.enabled"] = _get(cfg, "kolmogorov", "enabled", _bool, False)
    r["kolmogorov.lambda"] = _get(cfg, "kolmogorov", "lambda", _float, 1.0)
    r["kolmogorov.rho"] = _get(cfg, "kolmogorov", "rho", _float, 0.0)
    r["kolmogorov.picard_tol"] = _get(cfg, "kolmogorov", "picard_tol",
                                      _float, 1e-8)
    r["kolmogorov.max_iters"] = _get(cfg, "kolmogorov", "max_iters",
                                     _int_at_least(1), 40)

    T = r["run.T"]
    r["simulation.enabled"] = _get(cfg, "simulation", "enabled", _bool, False)
    r["simulation.particles"] = _get(cfg, "simulation", "particles",
                                     _int_at_least(KDE_MIN_PARTICLES), 100000)
    r["simulation.dt"] = _get(cfg, "simulation", "dt", _float, 1e-3)
    if r["simulation.dt"] <= 0:
        raise ConfigError("[simulation] dt must be positive")
    r["simulation.checkpoints"] = _get(cfg, "simulation", "checkpoints",
                                       _floats, [T / 4, T / 2, T])
    r["simulation.seed"] = _get(cfg, "simulation", "seed", _int_at_least(0), 7)

    r["martingale.enabled"] = _get(cfg, "martingale", "enabled", _bool, False)
    r["martingale.particles"] = _get(cfg, "martingale", "particles", int,
                                     20000)
    r["martingale.windows"] = _get(cfg, "martingale", "windows", _floats,
                                   [T / 4, T / 2, T])
    r["martingale.n_sources"] = _get(cfg, "martingale", "n_sources",
                                     _int_at_least(1), 3)

    r["schauder.gamma"] = _get(cfg, "schauder", "gamma", _float, -0.4)
    r["schauder.alpha"] = _get(cfg, "schauder", "alpha", _float, 1.2)
    r["schauder.n_fields"] = _get(cfg, "schauder", "n_fields", int, 6)
    r["schauder.t_min"] = _get(cfg, "schauder", "t_min", _float, 1e-3)
    r["schauder.t_max"] = _get(cfg, "schauder", "t_max", _float, 1e-1)
    r["schauder.n_times"] = _get(cfg, "schauder", "n_times", int, 9)

    validate_cross_keys(r)
    return Scenario(resolved=r, base_dir=os.path.dirname(os.path.abspath(path)))


def validate_cross_keys(r):
    cps = r["simulation.checkpoints"]
    if any(c <= 0 or c > r["run.T"] + 1e-12 for c in cps):
        raise ConfigError("[simulation] checkpoints must lie in (0, T]")
    ws = r["martingale.windows"]
    if len(ws) < 2 or any(w <= 0 or w > r["run.T"] for w in ws):
        raise ConfigError("[martingale] windows must lie in (0, T]")


def preset_path(name):
    here = os.path.dirname(os.path.abspath(__file__))
    p = os.path.join(here, "presets", f"{name}.cfg")
    if not os.path.exists(p):
        raise ConfigError(f"unknown preset {name!r}")
    return p

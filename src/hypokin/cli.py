"""Scenario runner: parse config, execute pipeline stages, emit artifacts.

Every run writes the files it produced plus a manifest.json listing them
with sha256 checksums and the fully resolved configuration, so identical
configs reproduce identical bytes.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, HypokinError, NotADensity
from .fields import (TimeField, snap_to_mesh, write_time_field,
                     zero_time_field)
from .fpsolver import (FPProblem, conservation_report, fp_certificate,
                       solve_fp)
from .kolmogorov import BackwardProblem, lambda_bar_search, \
    picard_certificate, solve_kolmogorov, zvonkin_phi
from .mckean import frozen_drift, martingale_test, validate_marginals
from .scenario import load_scenario, preset_path
from .semigroup import kernel_block_decay, schauder_probe
from .spectral import random_localized_field, synthesize_besov_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# --- emission helpers ----------------------------------------------------------

class Emitter:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.files = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.files.append(p)
        return p

    def csv(self, name, rows):
        with open(self.path(name), "w") as fh:
            for row in rows:
                fh.write(row + "\n")

    def json(self, name, obj):
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def time_field(self, stem, tfield):
        paths = write_time_field(self.out_dir, stem, tfield)
        self.files.extend(paths)
        self.files.append(os.path.join(self.out_dir, f"{stem}_index.json"))

    def trajectories(self, name, records, N):
        """Checkpoint snapshots: one-line JSON header, then float64 blocks."""
        times = [float(t) for t, _ in records]
        M = records[0][1].shape[0] if records else 0
        with open(self.path(name), "wb") as fh:
            header = {"M": M, "N": N, "checkpoint_times": times}
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            for _, snap in records:
                fh.write(np.ascontiguousarray(snap, dtype="<f8").tobytes())

    def manifest(self, resolved, extra=None):
        entries = {}
        for p in sorted(set(self.files)):
            with open(p, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries[os.path.relpath(p, self.out_dir)] = digest
        obj = {
            "version": __version__,
            "config": {k: _jsonable(v) for k, v in sorted(resolved.items())},
            "files": entries,
        }
        if extra:
            obj["summary"] = extra
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# --- stages ----------------------------------------------------------------------

def stage_fp(scn, em, b_zero=False):
    model = scn.build_model()
    grid = scn.build_grid(model)
    u0 = scn.build_u0(grid)
    b = scn.build_drift(grid)
    if b_zero:
        b = zero_time_field(b, b.channels)
    problem = FPProblem(model=model, b=b, u0=u0, beta=scn["drift.beta"],
                        epsilon=scn["fp.epsilon"], T=scn["run.T"])
    nonlin = scn.nonlinearity()
    sol = solve_fp(problem, nonlin)
    cert = fp_certificate(problem, nonlin, sol)
    em.time_field("fp_u", sol.u)
    rep = conservation_report(sol.u)
    em.csv("conservation.csv", rep.csv_rows())
    em.json("picard.json", {
        "iterations": cert.iterations,
        "contraction": cert.contraction,
        "increments": list(cert.increments),
        "converged": True,
        "distance": cert.distance,
        "bound": cert.bound,
    })
    if not rep.passes():
        raise NotADensity(
            f"solved field is not a density: minimum {min(rep.min_value):.3e},"
            f" mass in [{min(rep.mass):.12g}, {max(rep.mass):.12g}]")
    return model, grid, b, sol, cert


def stage_kolmogorov(scn, em):
    model = scn.build_model()
    grid = scn.build_grid(model)
    b = scn.build_drift(grid)
    problem = BackwardProblem.zvonkin(model, b, lam=scn["kolmogorov.lambda"],
                                      beta=scn["drift.beta"],
                                      epsilon=scn["fp.epsilon"])
    sol = solve_kolmogorov(problem)
    cert = picard_certificate(problem, sol)
    em.time_field("kolmogorov_u", sol.u)
    em.json("kolmogorov.json", {
        "iterations": cert.iterations,
        "contraction": cert.contraction,
        "sup_norm": sol.sup_norm_index,
        "grad_sup": sol.grad_sup,
    })
    return sol


def stage_zvonkin(scn, em):
    model = scn.build_model()
    grid = scn.build_grid(model)
    b = scn.build_drift(grid)
    problem = BackwardProblem.zvonkin(model, b, lam=1.0,
                                      beta=scn["drift.beta"],
                                      epsilon=scn["fp.epsilon"])
    ladder = lambda_bar_search(problem, require_gradient=True)
    em.csv("lambda_ladder.csv", ladder.csv_rows())
    maps = zvonkin_phi(ladder.solution.u, grad_bound=ladder.grad_sup)
    rng = np.random.default_rng(np.random.PCG64(scn["run.seed"] + 1))
    pts = rng.uniform(-0.9, 0.9, size=(1000, model.N)) * grid.half_extents
    rows = ["t,max_roundtrip_error,observed_contraction"]
    for t in (0.0, 0.5 * scn["run.T"], scn["run.T"]):
        t_mesh = snap_to_mesh(ladder.solution.u.times, t)
        inv, contr = maps.psi(t_mesh, pts)
        err = float(np.max(np.abs(maps.phi(t_mesh, inv) - pts)))
        rows.append(f"{t_mesh:.10g},{err:.6e},{contr:.4f}")
    em.csv("zvonkin_roundtrip.csv", rows)
    em.json("zvonkin.json", {
        "lambda": ladder.lam,
        "achieved_norm": ladder.achieved_norm,
        "grad_sup": ladder.grad_sup,
    })
    return ladder


def stage_simulate(scn, em, model, drift, fp_sol):
    report = validate_marginals(
        model, fp_sol.u, drift,
        M=scn["simulation.particles"], seed=scn["simulation.seed"],
        checkpoints=tuple(scn["simulation.checkpoints"]),
        dt=scn["simulation.dt"],
    )
    em.csv("marginals.csv", report.csv_rows())
    em.trajectories("trajectories.bin", list(report.records), model.N)
    return report


def stage_martingale(scn, em, model, grid, drift, fp_sol):
    """The martingale panel and its negative control, from one simulation.

    The backward solutions are solved on demand, one alive at a time."""
    ends = [snap_to_mesh(fp_sol.u.times, t) for t in scn["martingale.windows"]]
    windows = list(zip(ends, ends[1:]))
    g_list = []
    for k in range(scn["martingale.n_sources"]):
        base = random_localized_field(grid, seed=scn["run.seed"] + 100 + k,
                                      decay=2.0, width=0.2)
        g_list.append(TimeField(t0=drift.t0, t1=drift.t1,
                                fields=(base,) * drift.n_t))
    u_list = (solve_kolmogorov(BackwardProblem(
        model=model, Bc=drift, g=g, ell=None, lam=0.0,
        beta=scn["drift.beta"], epsilon=scn["fp.epsilon"])).u
        for g in g_list)
    report, control = martingale_test(
        model, drift, u_list, g_list, fp_sol.u.at_index(0),
        M=scn["martingale.particles"], seed=scn["run.seed"] + 500,
        windows=windows, dt=scn["simulation.dt"],
    )
    em.csv("martingale.csv", report.csv_rows())
    em.csv("martingale_control.csv", control.csv_rows())
    return report, control


def stage_schauder(scn, em):
    """Criterion 5's probe: gamma = -0.4, alpha = 1.2, six fields, nine
    times from max(1e-3, h_v^2) to 0.1; below h_v^2, h_v the smallest
    velocity spacing, the kernel is narrower than one cell."""
    model = scn.build_model()
    grid = scn.build_grid(model)
    h_v = float(np.min(grid.spacings[: model.d]))
    t_min = max(1e-3, h_v ** 2)
    if t_min >= 1e-1:
        raise ConfigError(
            f"[grid] points_per_dim: a velocity cell of {h_v:.3g} resolves "
            f"no probe time below 0.1; refine the velocity axes")
    gamma, alpha = -0.4, 1.2
    fields = [
        synthesize_besov_field(-gamma, seed=scn["run.seed"] + 10 + k,
                               grid=grid, modes_per_shell=8, window=True)
        for k in range(6)
    ]
    t_list = np.geomspace(t_min, 1e-1, 9)
    report = schauder_probe(model, gamma, alpha, t_list, fields)
    em.csv("schauder.csv", report.csv_rows())
    em.json("schauder.json", {
        "slopes": report.slopes,
        "max_ratio": report.max_ratio,
        "ratio_spread": report.ratio_spread,
    })
    decay = kernel_block_decay(model, grid, t_list=[0.0625, 0.25],
                               j_list=list(range(0, grid.J_max + 1)))
    em.csv("kernel_decay.csv", decay.csv_rows())
    return report, decay


# --- entry point ---------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", required=True,
                        help="scenario config path or preset name")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [run] seed")


def _load(args):
    path = args.config
    if not os.path.exists(path) and not path.endswith(".cfg"):
        path = preset_path(path)
    return load_scenario(path, seed_override=args.seed)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hypokin",
        description="singular kinetic Fokker-Planck scenarios: solvers, "
                    "probes and particle validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("probe-schauder", "solve-fp", "solve-kolmogorov", "zvonkin",
                 "simulate", "martingale-test", "full-validate"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "solve-fp":
            p.add_argument("--b-zero", action="store_true",
                           help="force zero drift (homogeneous evolution)")
    args = parser.parse_args(argv)

    try:
        scn = _load(args)
        em = Emitter(args.out)
        _dispatch(args, scn, em)
        em.manifest(scn.resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypokinError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _dispatch(args, scn, em):
    cmd = args.command
    if cmd == "probe-schauder":
        stage_schauder(scn, em)
    elif cmd == "solve-fp":
        stage_fp(scn, em, b_zero=args.b_zero)
    elif cmd == "solve-kolmogorov":
        stage_kolmogorov(scn, em)
    elif cmd == "zvonkin":
        stage_zvonkin(scn, em)
    else:
        model, grid, b, fp_sol, cert = stage_fp(scn, em)
        drift = frozen_drift(fp_sol.u, b, scn.nonlinearity())
        del b  # only the frozen drift is read from here on
        summary = {
            "fp_iterations": cert.iterations,
            "fp_contraction": cert.contraction,
        }
        if cmd in ("simulate", "full-validate"):
            summary["marginal_distances"] = list(
                stage_simulate(scn, em, model, drift, fp_sol).distances)
        if cmd in ("martingale-test", "full-validate"):
            mrep, ctrl = stage_martingale(scn, em, model, grid, drift, fp_sol)
            summary["martingale_max_abs_z"] = mrep.max_abs_z()
            summary["martingale_above_3"] = mrep.count_above(3.0)
            summary["control_max_abs_z"] = ctrl.max_abs_z()
        if cmd == "full-validate":
            em.json("summary.json", summary)


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of hypokin's public functions, installed from outside the package.

`Tracer.install` replaces each target in `TARGETS` with a wrapper that
records a span: name, start, end, parent span and op id.  A module-level
function is replaced in every hypokin module that holds it by name (so
`from .spectral import fftn` is covered); a method is replaced on its
class.  Private helpers are not wrapped, so their time shows up as the
self time of the public caller.  Spans stay in memory until `write_spans`.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("anisotropy", "fields", "spectral", "semigroup", "fpsolver",
           "kolmogorov", "mckean", "scenario", "cli")


def _interp_points(tracer, args, kwargs, result):
    tracer.count("fields.interp.points", np.atleast_2d(args[1]).shape[0])


def _transform_bytes(tracer, args, kwargs, result):
    spectrum = args[0] if args else kwargs["spectrum"]
    tracer.count("spectral.transform_mb", (spectrum.nbytes + result.nbytes) / 1e6)


def _iterations(tracer, args, kwargs, result):
    tracer.count("fpsolver.iterations", result.iterations)


def _rungs(tracer, args, kwargs, result):
    tracer.count("kolmogorov.ladder_rungs", len(result.rungs))


def _particle_steps(tracer, args, kwargs, result):
    ensemble = args[0]
    T = args[3] if len(args) > 3 else kwargs["T"]
    dt = kwargs.get("dt") or ensemble.dt
    final = result[0] if isinstance(result, tuple) else result
    tracer.count("mckean.particle_steps",
                 ensemble.M * int(round((T - ensemble.t) / dt)))
    tracer.count("mckean.escapes", final.escape_count - ensemble.escape_count)


# Hook value for a target whose calls are counted without a span: GridField
# is built tens of thousands of times per op.
COUNT_ONLY = "count-only"

# (module, attribute, span or counter name, hook run on the result)
TARGETS = (
    ("anisotropy", "matrix_exp", "anisotropy.matrix_exp", None),
    ("fields", "PeriodicInterpolator.__call__", "fields.interp", _interp_points),
    ("fields", "GridField.__init__", "fields.gridfield.inits", COUNT_ONLY),
    ("spectral", "besov_norm", "spectral.besov_norm", None),
    ("spectral", "fftn", "spectral.fftn", _transform_bytes),
    ("spectral", "ifftn_real", "spectral.ifftn_real", _transform_bytes),
    ("spectral", "upsample", "spectral.upsample", None),
    ("semigroup", "covariance", "semigroup.covariance", None),
    ("semigroup", "Propagator.multiplier", "semigroup.multiplier", None),
    ("semigroup", "Propagator.local_multiplier", "semigroup.local_multiplier",
     None),
    ("semigroup", "Propagator.convolve", "semigroup.convolve", None),
    ("semigroup", "Propagator.apply_P", "semigroup.apply_P", None),
    ("semigroup", "Propagator.apply_Pprime", "semigroup.apply_Pprime", None),
    ("semigroup", "Propagator.convolve_local", "semigroup.convolve_local", None),
    ("fpsolver", "solve_fp", "fpsolver.solve_fp", _iterations),
    ("fpsolver", "picard_J", "fpsolver.picard_J", None),
    ("fpsolver", "nonlinear_flux", "fpsolver.nonlinear_flux", None),
    ("fpsolver", "conservation_report", "fpsolver.conservation_report", None),
    ("kolmogorov", "lambda_bar_search", "kolmogorov.lambda_bar_search", _rungs),
    ("kolmogorov", "solve_kolmogorov", "kolmogorov.solve_kolmogorov", None),
    ("kolmogorov", "backward_sweep", "kolmogorov.backward_sweep", None),
    ("kolmogorov", "ZvonkinMaps.psi", "kolmogorov.psi", None),
    ("mckean", "simulate", "mckean.simulate", _particle_steps),
    ("mckean", "kde_density", "mckean.kde_density", None),
    ("mckean", "validate_marginals", "mckean.validate_marginals", None),
    ("mckean", "martingale_test", "mckean.martingale_test", None),
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("cli", "stage_fp", "cli.stage_fp", None),
    ("cli", "stage_simulate", "cli.stage_simulate", None),
    ("cli", "stage_martingale", "cli.stage_martingale", None),
    ("cli", "Emitter.manifest", "cli.manifest", None),
)


class Tracer:
    """In-memory spans and counters for the ops of one run."""

    def __init__(self):
        self.spans = []              # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)   # (op id, name) -> value
        self.op = None
        self._stack = []
        self._patches = []           # (owner, attribute, original)

    def count(self, name, amount=1):
        self.counters[(self.op, name)] += amount

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target; `uninstall` restores the originals."""
        mods = {m: sys.modules[f"hypokin.{m}"] for m in MODULES}
        for mod_name, attr, span, hook in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(mods[mod_name], cls_name)]
                original = owners[0].__dict__[meth]
            else:
                meth = attr
                original = getattr(mods[mod_name], attr)
                owners = [m for m in mods.values()
                          if m.__dict__.get(attr) is original]
            if hook == COUNT_ONLY:
                wrapper = self._count_wrapper(span, original)
            else:
                wrapper = self._span_wrapper(span, original, hook)
            for owner in owners:
                self._patches.append((owner, meth, original))
                setattr(owner, meth, wrapper)

    def uninstall(self):
        for owner, meth, original in reversed(self._patches):
            setattr(owner, meth, original)
        self._patches.clear()

    def op_totals(self, op):
        """Per-name call count, inclusive and self seconds for one op.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        child_time = defaultdict(float)
        has_covariance_child = set()
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            child_time[parent] += end - start
            if name == "semigroup.covariance":
                has_covariance_child.add(parent)
        cache_hits = 0
        for i, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                incl[name] += end - start
            if name in ("semigroup.multiplier", "semigroup.local_multiplier") \
                    and i not in has_covariance_child:
                cache_hits += 1
        counters = {k: v for (o, k), v in self.counters.items() if o == op}
        return calls, incl, self_s, cache_hits, counters

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_metrics(tracer, op):
    """The per-layer metrics of one traced op, named as in BENCHMARK.json."""
    calls, incl, self_s, cache_hits, counters = tracer.op_totals(op)
    mult_calls = calls["semigroup.multiplier"] + calls["semigroup.local_multiplier"]
    steps = counters.get("mckean.particle_steps", 0.0)
    sim_s = incl["mckean.simulate"]
    m = {
        "anisotropy.matrix_exp.calls": calls["anisotropy.matrix_exp"],
        "fields.interp.calls": calls["fields.interp"],
        "fields.interp.points": counters.get("fields.interp.points", 0.0),
        "fields.interp.s": incl["fields.interp"],
        "fields.gridfield.inits": counters.get("fields.gridfield.inits", 0.0),
        "spectral.besov_norm.calls": calls["spectral.besov_norm"],
        "spectral.besov_norm.s": incl["spectral.besov_norm"],
        "spectral.transforms": calls["spectral.fftn"] + calls["spectral.ifftn_real"],
        "spectral.transform_mb": counters.get("spectral.transform_mb", 0.0),
        "spectral.transforms.s": incl["spectral.fftn"] + incl["spectral.ifftn_real"],
        "spectral.upsample.calls": calls["spectral.upsample"],
        "spectral.upsample.s": incl["spectral.upsample"],
        "semigroup.apply_Pprime.calls": calls["semigroup.apply_Pprime"],
        "semigroup.apply_Pprime.s": incl["semigroup.apply_Pprime"],
        "semigroup.apply_P.calls": calls["semigroup.apply_P"],
        "semigroup.apply_P.s": incl["semigroup.apply_P"],
        "semigroup.warp.self_s": self_s["semigroup.apply_P"]
        + self_s["semigroup.apply_Pprime"],
        "semigroup.convolve_local.calls": calls["semigroup.convolve_local"],
        "semigroup.convolve_local.s": incl["semigroup.convolve_local"],
        "semigroup.multiplier.calls": mult_calls,
        "semigroup.multiplier.hit_ratio": cache_hits / mult_calls if mult_calls else 0.0,
        "semigroup.covariance.calls": calls["semigroup.covariance"],
        "semigroup.covariance.s": incl["semigroup.covariance"],
        "fpsolver.picard_J.calls": calls["fpsolver.picard_J"],
        "fpsolver.picard_J.s": incl["fpsolver.picard_J"],
        "fpsolver.nonlinear_flux.s": incl["fpsolver.nonlinear_flux"],
        "fpsolver.iterations": counters.get("fpsolver.iterations", 0.0),
        "kolmogorov.solve_kolmogorov.calls": calls["kolmogorov.solve_kolmogorov"],
        "kolmogorov.solve_kolmogorov.s": incl["kolmogorov.solve_kolmogorov"],
        "kolmogorov.backward_sweep.calls": calls["kolmogorov.backward_sweep"],
        "kolmogorov.backward_sweep.s": incl["kolmogorov.backward_sweep"],
        "kolmogorov.ladder_rungs": counters.get("kolmogorov.ladder_rungs", 0.0),
        "kolmogorov.psi.s": incl["kolmogorov.psi"],
        "mckean.simulate.calls": calls["mckean.simulate"],
        "mckean.simulate.s": sim_s,
        "mckean.particle_steps": steps,
        "mckean.particle_steps_per_s": steps / sim_s if sim_s > 0 else 0.0,
        "mckean.escapes": counters.get("mckean.escapes", 0.0),
        "mckean.kde_density.s": incl["mckean.kde_density"],
        "mckean.martingale_test.s": incl["mckean.martingale_test"],
        "mckean.validate_marginals.s": incl["mckean.validate_marginals"],
        "scenario.load_scenario.s": incl["scenario.load_scenario"],
        "cli.stage_fp.s": incl["cli.stage_fp"],
        "cli.stage_simulate.s": incl["cli.stage_simulate"],
        "cli.stage_martingale.calls": calls["cli.stage_martingale"],
        "cli.stage_martingale.s": incl["cli.stage_martingale"],
        "cli.manifest.s": incl["cli.manifest"],
    }
    return {k: float(v) for k, v in m.items()}

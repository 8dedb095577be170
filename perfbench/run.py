"""hypokin benchmark: time the pipeline's workloads from outside the package.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in its own process (worker.py) with OMP, OpenBLAS and
MKL pinned to one thread, against the `src/` of this checkout.  Ops run
back to back for --seconds, and at least two; every op's output is checked
and compared with the first op's.  With --trace 0 the last stdout line holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  The lines
before it record the run: seed, inputs, machine and versions.

set-up time: the worker is started SETUP_PROBES more times, each stopping
after set-up, half of them before the timed worker and half after it, so
that they sample the same stretch of time as the ops.  `setup_s` is the
median of those and the timed worker's own set-up, each measured from
process spawn to the first op.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fp-kinetic", "zvonkin-ladder", "cli-validate")
SETUP_PROBES = 4
# A run must end within 180 s; its workers are stopped well before that.
RUN_TIMEOUT_S = 170


def _env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def _worker(args, deadline, extra=()):
    """Run worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.time()), *extra]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=deadline - time.monotonic(), text=True)
    if proc.returncode != 0:
        sys.exit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine_record():
    commit = None
    # Only the checkout's own .git: a git repository around it is not ours.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg()[0],
            "threads_env": {k: "1" for k in ("OMP_NUM_THREADS",
                                             "OPENBLAS_NUM_THREADS",
                                             "MKL_NUM_THREADS")}}


def run_workload(args, units):
    """One workload: set-up probes, then the timed worker.  Returns the
    result line as printed last, and prints the run record before it."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **_machine_record()}
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [_worker(args, deadline, ["--setup-only"])["setup_s"]
              for _ in range(probes)]
    res = _worker(args, deadline)
    setups.append(res["setup_s"])
    setups += [_worker(args, deadline, ["--setup-only"])["setup_s"]
               for _ in range(probes)]
    record.update(inputs=res["inputs"], ops=res["ops"], failed=res["failed"],
                  op_times_s=res["op_times_s"], setup_samples_s=setups,
                  versions=res["versions"], quality=res["quality"])
    if args.trace:
        record["traced_op_times_s"] = res["traced_op_times_s"]
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(res["op_times_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:36s} {m['value']:.6g} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["ops"],
            "failed": res["failed"], "metrics": metrics}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypokin", "__init__.py")):
        sys.exit(f"no hypokin sources under {ROOT}/src")

    bench = _benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload != "all":
        print(json.dumps(run_workload(args, units)))
        return
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(
            argparse.Namespace(**{**vars(args), "workload": name}), units)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()

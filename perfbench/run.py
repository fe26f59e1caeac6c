"""Benchmark of the eaqecc engine: three workloads, four end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload isd --seed 1 --seconds 35 --trace 0

Each workload is one single-threaded process that runs its operations
one after another (a closed loop with one client).  A round is the
workload's fixed list of operations on fresh eaqecc objects; the run
repeats whole rounds for about --seconds and checks every answer.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of trace.py with --trace 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# fresh processes that repeat the set-up; setup_s is the median over
# these and the run's own set-up
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60


def _load_nothing(ex):
    return {}


def _load_paper_code(ex):
    M, _ = ex.MatrixFq.from_text(ex.tables.load_data_text("g29_14_9.txt"))
    return {"g29": M.array}


def _load_tables(ex):
    return {which: list(ex.tables.load_bundled(which)) for which in ("qubit", "qutrit")}


# name -> (module, class, field orders built in set-up, bundled-data loader)
WORKLOADS = {
    "construct-propagate": ("wl_construct", "ConstructPropagate", (2, 3, 4, 9), _load_nothing),
    "isd": ("wl_isd", "ISD", (2, 9), _load_paper_code),
    "table-closure": ("wl_tables", "TableClosure", (), _load_tables),
}


def setup(name):
    """Import eaqecc, build the workload's fields, load its bundled data.

    Returns (set-up seconds, field-build seconds, eaqecc, data).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import eaqecc
    import eaqecc.cli  # noqa: F401  (verify-paper runs through it)

    _, _, fields, loader = WORKLOADS[name]
    t = time.perf_counter()
    for q in fields:
        eaqecc.GF(q)
    build = time.perf_counter() - t
    data = loader(eaqecc)
    return time.perf_counter() - start, build, eaqecc, data


def probe_setup(name) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_rounds(ops, seconds, tracer, trace):
    """Whole rounds until the time is up; with trace, odd rounds are traced."""
    deadline = time.perf_counter() + seconds
    res = {"untraced": [], "traced": [], "op_s": {}, "layers": [], "spans": [],
           "attempted": 0, "failed": 0, "failed_ops": Counter(), "problems": []}
    while True:
        traced = trace and len(res["untraced"]) > len(res["traced"])
        if traced:
            tracer.install()
        outcomes = []
        started = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                result, exc = op.run(), None
            except Exception as e:  # judged below: a known fault or a wrong answer
                result, exc = None, e
            outcomes.append((op, result, exc, time.perf_counter() - t))
        wall = time.perf_counter() - started
        if traced:
            tracer.uninstall()
            res["layers"].append(tracer.layer_values())
            res["spans"] = tracer.spans
            res["traced"].append(wall)
        else:
            if not res["untraced"]:
                # before any check runs: the brute-force oracles are not the program's memory
                res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            res["untraced"].append(wall)
            for op, _, _, dt in outcomes:
                res["op_s"].setdefault(op.label, []).append(dt)
        for op, result, exc, _ in outcomes:
            failed, problems = op.judge(result, exc)
            res["attempted"] += 1
            if failed:
                res["failed"] += 1
                res["failed_ops"][op.label] += 1
            res["problems"] += problems
        if trace and not res["traced"]:
            continue
        if deadline - time.perf_counter() < wall / 2:
            return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "eaqecc" / "__init__.py").is_file():
        print(f"error: no eaqecc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    setup_s, build_s, ex, data = setup(args.workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    from layers import LAYER_METRICS, Tracer, combine_rounds, write_spans

    setups = [setup_s] + ([] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)])
    module, cls, _, _ = WORKLOADS[args.workload]
    tracer = Tracer(ex)
    workload = getattr(importlib.import_module(module), cls)(ex, data, args.seed, tracer)
    res = run_rounds(workload.ops, args.seconds, tracer, bool(args.trace))

    if args.trace:
        values, unsteady = combine_rounds(res["layers"], build_s, res["traced"], res["untraced"])
        for name in unsteady:
            print(f"note: count {name} differs between traced rounds", file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{args.workload}.csv", res["spans"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["untraced"]), "unit": "s"},
            # each operation's time is its median over the run's rounds
            "op_p50_s": {"value": statistics.median(statistics.median(t) for t in res["op_s"].values()),
                         "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"rounds untraced={len(res['untraced'])} traced={len(res['traced'])} "
          f"ops_per_round={len(workload.ops)} op_p50_s_samples={len(res['op_s'])} "
          f"setup_samples={len(setups)}")
    print("round_walls_s " + " ".join(f"{w:.3f}" for w in res["untraced"]))
    print("op_median_s " + " ".join(f"{label}={statistics.median(t):.4f}" for label, t in res["op_s"].items()))
    for label, count in sorted(res["failed_ops"].items()):
        print(f"failed {label} x{count}")
    for problem in res["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

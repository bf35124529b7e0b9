"""trapcool benchmark: one workload per call, every metric printed with its unit.

    python3 bench/run.py --workload stationary --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Each call runs its workload in fresh worker processes (bench/worker.py)
with the BLAS thread count pinned, checks the outputs against independent
routes, and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
from a traced repetition. attempted counts the gates (output checks) and
the operations checked one by one (conditioned trajectories); failed counts
those that failed. correct is false when any gate failed.

--smoke runs every workload at tiny sizes, traced and untraced, and
checks that every metric BENCHMARK.json names is produced with its unit
and that every gate was evaluated; it prints the tracing overhead of each
workload.

The workloads and their metrics are described in bench/README.md.
"""
import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("stationary", "ensemble", "relax", "closed_form")
# set-up is also timed in this many extra processes, half before and half
# after the measured one, so the median spans the run
SETUP_PROBES = 6
# pinned so runs compare across machines; never more than the cores we may use
BLAS_THREADS = 2
SINGLE_THREAD_BASELINE = ("stationary", "relax")
# End-to-end times are given at a reference host speed: time x
# CAL_REFERENCE_S / (median of the run's worker.calibrate times). The
# calibration takes about this long on an idle 2.1 GHz Xeon core; only the
# ratio matters when runs compare.
CAL_REFERENCE_S = 0.2
# a run must end within 180 s
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    return max(1, min(BLAS_THREADS, nproc()))


def spawn(job, threads, deadline):
    """Run one worker to completion and return its result object."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    job = dict(job, spawned_at=time.perf_counter())
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{job['workload']} worker ({job['mode']}) exceeded the run limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['workload']} worker ({job['mode']}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_facts():
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30, check=False)
            commit = out.stdout.strip() or "unavailable"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def tally(gates, operations):
    """(attempted, failed, failed gates); a gate and an operation each count once."""
    failed_gates = sum(1 for ok, _ in gates.values() if not ok)
    attempted = len(gates) + sum(op[0] for op in operations.values())
    failed = failed_gates + sum(op[1] for op in operations.values())
    return attempted, failed, failed_gates


def run_workload(name, seed, seconds, trace, size):
    """Measure one workload; returns (gates, operations, computed metrics, worker result)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    threads = blas_threads()
    job = {"workload": name, "seed": seed, "seconds": seconds, "size": size}
    gates = {}
    operations = {}
    if not trace:
        def probe():
            return spawn(dict(job, mode="setup"), threads, deadline)

        probes = [probe() for _ in range(SETUP_PROBES // 2)]
        res = spawn(dict(job, mode="measure"), threads, deadline)
        probes += [res] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        gates.update(res["gates"])
        operations["operations"] = res["operations"]
        res["setups"] = [p["setup_s"] for p in probes]
        res["all_cals"] = [c for p in probes for c in p["cals"]]
        speed = CAL_REFERENCE_S / statistics.median(res["all_cals"])
        metrics = {
            "wall_norm_s": speed * statistics.median(res["walls"]),
            "setup_s": speed * statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return gates, operations, metrics, res
    res = spawn(dict(job, mode="trace"), threads, deadline)
    gates.update(res["gates"])
    operations["operations"] = res["operations"]
    metrics = dict(res["layers"])
    metrics.update(res["checks"])
    metrics["process.blas_threads"] = threads
    metrics["process.nproc"] = nproc()
    metrics["wall_s"] = res["walls"][0]  # the untraced repetition, unscaled
    if name in SINGLE_THREAD_BASELINE:
        base = spawn(dict(job, mode="measure", seconds=0), 1, deadline)
        gates.update({f"1thread.{k}": v for k, v in base["gates"].items()})
        operations["1thread.operations"] = base["operations"]
        metrics["baseline.1thread.wall_s"] = base["walls"][0]
    attempted, failed, _ = tally(gates, operations)
    metrics["fail_ratio"] = failed / attempted
    return gates, operations, metrics, res


def emit(name, declared, gates, operations, metrics, res, facts, out):
    """Print the human-readable report and return the result object."""
    facts = dict(facts, workload=name, blas=res["blas"], **res["versions"])
    out.write(f"facts {json.dumps(facts, sort_keys=True)}\n")
    for gate, (ok, detail) in gates.items():
        out.write(f"gate {name}.{gate} {'PASS' if ok else 'FAIL'} {detail}\n")
    for label, (tried, bad, detail) in operations.items():
        if tried:
            out.write(f"{label} {name}: {tried} attempted, {bad} failed: {detail}\n")
    walls = res["walls"]
    out.write(f"repetitions {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + " s\n")
    if "setups" in res:
        out.write("setup samples: " + " ".join(f"{s:.4f}" for s in res["setups"]) + " s\n")
        out.write("calibrations: " + " ".join(f"{c:.4f}" for c in res["all_cals"]) + " s\n")
        out.write(f"unscaled medians: repetition {statistics.median(walls)!r} s, "
                  f"set-up {statistics.median(res['setups'])!r} s\n")
    if "span_table" in res:
        out.write(f"trace {res['trace_id']}: traced repetition {res['traced_wall_s']:.4f} s, "
                  f"untraced {walls[0]:.4f} s\n")
        out.write("span calls total_s self_s\n")
        for span, (calls, total, own) in res["span_table"].items():
            out.write(f"span {span} {calls} {total:.6f} {own:.6f}\n")
        for builder, dim, stored, nonzero in res["superops"]:
            out.write(f"superop {builder} d={dim} bytes={stored * 16} (computed) "
                      f"nnz_ratio={nonzero / stored:.6f}\n")
        for target in res["absent"]:
            out.write(f"absent {target}\n")
    result_metrics = {}
    for entry in declared:
        value = metrics.get(entry["name"], 0.0)  # 0: layer not exercised here
        result_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        out.write(f"metric {entry['name']} = {value!r} {entry['unit']}\n")
    attempted, failed, failed_gates = tally(gates, operations)
    return {
        "correct": failed_gates == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def smoke(spec, facts):
    """Tiny sizes, both modes, every workload; structural checks only."""
    problems = []
    produced = set()
    for name in WORKLOADS:
        names = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            gates, operations, metrics, res = run_workload(name, 0, 0, trace, "smoke")
            emit(name, spec[key], gates, operations, metrics, res,
                 dict(facts, trace=trace, seconds=0, seed=0), sys.stdout)
            names[trace] = sorted(gates)
            produced.update(e["name"] for e in spec[key] if e["name"] in metrics)
            if key == "end_to_end":
                missing = [e["name"] for e in spec[key] if e["name"] not in metrics]
                problems += [f"{name}: end-to-end metric {m} not measured" for m in missing]
            if not gates or not all(isinstance(ok, bool) for ok, _ in gates.values()):
                problems.append(f"{name}: gates not evaluated")
        if any(g not in names[1] for g in names[0]):
            problems.append(f"{name}: traced run evaluated other gates than the untraced run")
        print(f"smoke {name}: tracing overhead {metrics['trace.overhead_s']:.4f} s")
    for entry in spec["per_layer"]:
        if entry["name"] not in produced:
            problems.append(f"per-layer metric {entry['name']} is produced by no workload")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} problems'}")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, structural checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "trapcool" / "__init__.py").is_file():
        print(f"error: no trapcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    facts = dict(source_facts(), nproc=nproc(), blas_threads=blas_threads(),
                 seed=args.seed, seconds=args.seconds, trace=args.trace)
    try:
        if args.smoke:
            return smoke(spec, facts)
        gates, operations, metrics, res = run_workload(
            args.workload, args.seed, args.seconds, args.trace, "full")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        result = emit(args.workload, declared, gates, operations, metrics, res, facts, sys.stdout)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark process: set up one workload, time it, check it, report JSON.

Started by run.py in a fresh interpreter with the BLAS thread count pinned
in its environment. The job is one JSON argument:

    {"workload": ..., "seed": ..., "seconds": ..., "mode": ..., "size": ...,
     "spawned_at": <parent perf_counter just before the spawn>}

Modes:
    setup    import and build the inputs, report setup_s, exit
    measure  timed repetitions for `seconds` (at least one), untraced
    trace    one untraced repetition, then one traced repetition

setup_s runs from the spawn to the first timed call; perf_counter is the
system monotonic clock, so the parent's and the child's readings compare.
The setup and measure modes then time the host-speed calibration (see
`Calibration`), and measure times it again after each repetition.
The last line of standard output is the result object.
"""
import json
import os
import pathlib
import resource
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SUPEROPERATOR_BUILDERS = (
    "models.reduced_feedback_liouvillian",
    "models.resonant_full_liouvillian",
    "models.offresonant_full_liouvillian",
)


def _vec(m):
    return m.reshape(-1, order="F")


class Counts:
    """Values recorded at call boundaries during the traced repetition."""

    def __init__(self):
        self.superops = []       # (builder, dim, stored entries, nonzero entries)
        self.residuals = []
        self.lindblad_steps = 0
        self.lindblad_bytes = []
        self.trajectory_steps = 0

    def observers(self):
        def superop(name):
            def observe(result, *args, **kwargs):
                m = result.matrix
                self.superops.append((name, result.dim, m.size, int(np.count_nonzero(m))))
            return observe

        def steady(result, L, *args, **kwargs):
            self.residuals.append(float(np.linalg.norm(L.matrix @ _vec(result.matrix))))

        def lindblad(result, L, rho0, cfg, **kwargs):
            self.lindblad_steps += cfg.n_steps
            # computed: two dense matvecs per Heun step read the generator twice
            d2 = L.dim * L.dim
            self.lindblad_bytes.append(2 * (d2 * d2 * 16 + 2 * d2 * 16))

        def trajectory(result, params, spec, cfg, *args, **kwargs):
            self.trajectory_steps += cfg.n_steps

        observers = {name: superop(name) for name in SUPEROPERATOR_BUILDERS}
        observers.update({
            "sme.steady_state": steady,
            "sme.integrate_lindblad": lindblad,
            "sme.run_trajectory": trajectory,
        })
        return observers


def layer_metrics(stats, counts, workload, tracer_obj):
    """Per-layer numbers of one traced repetition, by the names BENCHMARK.json lists."""
    s = stats
    stored = sum(entry[2] for entry in counts.superops)
    nonzero = sum(entry[3] for entry in counts.superops)
    traj_calls = s.get("sme.run_trajectory", "calls")
    sweep_rows = getattr(workload, "rows_per_rep", 0)
    metrics = {
        "models.reduced_feedback_liouvillian.self_s": s.get("models.reduced_feedback_liouvillian", "self"),
        "models.resonant_full_liouvillian.self_s": s.get("models.resonant_full_liouvillian", "self"),
        "models.offresonant_full_liouvillian.self_s": s.get("models.offresonant_full_liouvillian", "self"),
        "models.markovian_feedback_terms.self_s": s.get("models.markovian_feedback_terms", "self"),
        "models.superop.bytes": stored * 16,
        "models.superop.nnz_ratio": nonzero / stored if stored else 0.0,
        "sme.steady_state.calls": s.get("sme.steady_state", "calls"),
        "sme.steady_state.self_s": s.get("sme.steady_state", "self"),
        "sme.steady_state.p50_s": s.p50("sme.steady_state"),
        "sme.steady_state.residual_max": max(counts.residuals, default=0.0),
        "sme.integrate_lindblad.steps": counts.lindblad_steps,
        "sme.integrate_lindblad.self_s": s.get("sme.integrate_lindblad", "self"),
        "sme.integrate_lindblad.step_us": (
            1e6 * s.get("sme.integrate_lindblad", "total") / counts.lindblad_steps
            if counts.lindblad_steps else 0.0),
        "sme.integrate_lindblad.bytes_per_step": max(counts.lindblad_bytes, default=0),
        "sme.run_trajectory.calls": traj_calls,
        "sme.run_trajectory.self_s": s.get("sme.run_trajectory", "self"),
        "sme.run_trajectory.step_us": (
            1e6 * s.get("sme.run_trajectory", "total") / counts.trajectory_steps
            if counts.trajectory_steps else 0.0),
        "sme.homodyne_step.self_s": s.get("sme.homodyne_step", "self"),
        "sme.feedback_step.self_s": s.get("sme.feedback_step", "self"),
        "sme.ensemble_mean.self_s": s.get("sme.ensemble_mean", "self"),
        "hilbert.tensor.self_s": s.get("hilbert.tensor", "self"),
        "hilbert.self_s": s.layer("hilbert", "self"),
        "gaussian.calls": s.layer("gaussian", "calls"),
        "gaussian.self_s": s.layer("gaussian", "self"),
        "gaussian.row_us": 1e6 * s.layer("gaussian", "self") / sweep_rows if sweep_rows else 0.0,
        "scenario.self_s": s.layer("scenario", "self"),
        "cli.main.self_s": s.get("cli.main", "self"),
        "cli.bytes_out": getattr(workload, "last_bytes_out", 0),
        "trace.spans": len(tracer_obj.spans),
        "trace.absent_targets": len(tracer_obj.absent),
    }
    return metrics


CALIBRATION_MATRIX = np.ones((27, 27), dtype=complex)


def calibrate():
    """Time fixed work that runs no trapcool code, to gauge the host's speed.

    On a shared host the same work can take from 0.8 to 1.6 times its quiet
    time, and the factor drifts over minutes. run.py divides a run's
    timings by the median of the calibrations taken during the run, so a
    drift that slows the workload and the calibration alike cancels, while
    a change to the package moves only the workload. The work is an
    interpreter loop and small complex matmuls (a trajectory step's size),
    about 0.1 s each on an idle 2.1 GHz Xeon core. Larger BLAS kernels
    (961 x 961 matvecs, 300 x 300 matmuls) jittered too much to help.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    for _ in range(8000):
        CALIBRATION_MATRIX @ CALIBRATION_MATRIX
    return time.perf_counter() - start


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s():
    t = os.times()
    return t.user + t.system


def main():
    job = json.loads(sys.argv[1])
    name, mode = job["workload"], job["mode"]
    workload = workloads.WORKLOADS[name](job["seed"], workloads.SIZES[job["size"]])
    if hasattr(workload, "capture"):
        tracer.patch_everywhere("sme", "run_trajectory", workload.capture)
    ready = time.perf_counter()
    result = {"setup_s": ready - job["spawned_at"]}
    if mode in ("setup", "measure"):
        result["cals"] = [calibrate()]
    if mode == "setup":
        print(json.dumps(result))
        return 0

    walls = []
    if mode == "measure":
        cals = result["cals"]
        while not walls or (
                time.perf_counter() - ready + statistics.median(walls) + cals[-1] <= job["seconds"]):
            start = time.perf_counter()
            output = workload.run(len(walls))
            walls.append(time.perf_counter() - start)
            workload.keep(output)
            cals.append(calibrate())
    else:
        start = time.perf_counter()
        output = workload.run(0)
        walls.append(time.perf_counter() - start)
        workload.keep(output)
        counts = Counts()
        trace = tracer.Tracer(trace_id=f"{name}-{job['seed']}-rep1", observers=counts.observers())
        cpu0 = _cpu_s()
        with trace:
            start = time.perf_counter()
            output = workload.run(1)
            traced_wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        workload.keep(output)
        stats = tracer.SpanStats(trace.spans)
        result["layers"] = layer_metrics(stats, counts, workload, trace)
        result["layers"].update({
            "process.cpu_s": cpu,
            "trace.overhead_s": traced_wall - walls[0],
        })
        result["traced_wall_s"] = traced_wall
        result["trace_id"] = trace.trace_id
        result["absent"] = trace.absent
        result["span_table"] = {
            n: [e["calls"], e["total"], e["self"]] for n, e in sorted(stats.by_name.items())
        }
        result["superops"] = counts.superops

    # the gates' own allocations stay out of the peak
    result["peak_rss_mb"] = _rss_mb()
    gates = workload.check()
    result.update({
        "walls": walls,
        "gates": {k: list(v) for k, v in gates.results.items()},
        "checks": gates.values,
        "operations": gates.operations,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "blas": _blas_name(),
    })
    print(json.dumps(result))
    return 0


def _blas_name():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())

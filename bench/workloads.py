"""The four benchmark workloads: inputs from a seed, one timed unit, correctness gates.

Each workload drives trapcool only through `trapcool.__all__`,
`trapcool.cli.main` and `ScenarioConfig`. The observables used by the
gates (number, position, partial traces, trace norms) are built here with
numpy, so the checks do not lean on the code they check. Every bound is
the one `trapcool/validation.py` and the acceptance tests already use.

A workload object is built once per process (that is the set-up). Then
`run(rep)` is the timed unit, called one or more times; `keep(output)`
files its output away outside the timed region; and `check()` evaluates
the gates on everything kept.
"""
import contextlib
import csv
import io
import math
import random

import numpy as np

import trapcool as tc
from trapcool import cli

HALF_PI = math.pi / 2.0

# bounds reused unchanged from trapcool/validation.py
ELIMINATION_REL = 0.05          # full vs reduced <X> and <a'a>
FORMULA_REL = 1e-3              # kernel <a'a> vs closed form
ROUTE_TRACE_NORM = 1e-8         # squeezed-bath vs direct assembly
RELAX_N_REL = 0.01              # integrated <a'a> vs closed form
RELAX_MU_ABS = 1e-3             # integrated <a^2> vs closed form
ENSEMBLE_MIN_EIG = -1e-6
ENSEMBLE_UNCERTAINTY = 1.0 / 16.0 - 1e-6
CONTOUR_EXCESS = 0.06           # feedback ellipse vs ground circle (the paper's ~6%)

# thick operating point of the fast-meter elimination checks
# (validation.ELIMINATION_SETS[0]); drive_x moves <X> off zero
ELIMINATION_PARAMS = tc.SystemParams(
    chi=1.0, kappa=20.0, gamma_h=1e-3, eta=0.9, nu=0.12, g=0.04, phi=-HALF_PI
)
ELIMINATION_DRIVE = -0.024

# problem sizes; "smoke" exercises every call and gate in seconds
SIZES = {
    "full": {
        "reduced_truncs": (30, 40), "resonant_trunc": 25, "offresonant": (13, 3),
        "relax_trunc": 30, "relax_t_final": 14.25,
        "ensemble_trunc": 26, "ensemble_t_final": 4.0, "ensemble_traj": 4,
        "sweep_stable": 20000, "sweep_unstable": 10000, "report_repeats": 10,
    },
    "smoke": {
        "reduced_truncs": (6, 8), "resonant_trunc": 6, "offresonant": (4, 2),
        "relax_trunc": 8, "relax_t_final": 14.25,
        "ensemble_trunc": 16, "ensemble_t_final": 0.2, "ensemble_traj": 3,
        "sweep_stable": 200, "sweep_unstable": 100, "report_repeats": 2,
    },
}


def _ladder(dim):
    """(a, n, X) on Fock levels 0..dim-1."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    return a, np.diag(np.arange(float(dim))), 0.5 * (a + a.T)


def _mean(op, rho):
    return float(np.trace(op @ rho).real)


def _trace_norm(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _vibration(joint, d_vib, d_meter):
    return np.einsum("ijkj->ik", joint.reshape(d_vib, d_meter, d_vib, d_meter))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Gates:
    """Named output checks, per-operation checks, and the error values behind them.

    A failed gate means an output is wrong. An operation (one conditioned
    trajectory) that breaks a physicality bound is a failed operation: it
    counts in `failed` but leaves the outputs of the run correct.
    """

    def __init__(self):
        self.results = {}   # name -> (passed, detail)
        self.values = {}    # check.* metric name -> value
        self.operations = [0, 0, ""]   # attempted, failed, detail

    def add(self, name, passed, detail):
        self.results[name] = (bool(passed), detail)


class Stationary:
    """Reduced kernels by both routes, both bipartite kernels, each vs its reduced model."""

    def __init__(self, seed, sizes):
        self.params = tc.ScenarioConfig().replace(nu=18.75).system_params()
        self.tasks = [("reduced", n, route) for n in sizes["reduced_truncs"]
                      for route in ("squeezed_bath", "direct")]
        self.tasks += [("resonant", sizes["resonant_trunc"]), ("offresonant", sizes["offresonant"])]
        # the seed only orders the builds; the problem itself is fixed
        random.Random(seed).shuffle(self.tasks)
        self.states = None

    def run(self, rep):
        return {task: self._solve(task) for task in self.tasks}

    def keep(self, states):
        self.states = states

    def _solve(self, task):
        es, drive = ELIMINATION_PARAMS, ELIMINATION_DRIVE
        if task[0] == "reduced":
            spec = tc.FockBasisSpec(n_trunc=task[1])
            L = tc.reduced_feedback_liouvillian(self.params, spec, route=task[2])
            return tc.steady_state(L).matrix
        if task[0] == "resonant":
            spec = tc.FockBasisSpec(n_trunc=task[1])
            L = tc.resonant_full_liouvillian(es, spec, include_feedback=True, drive_x=drive)
            meter = 2
        else:
            spec = tc.FockBasisSpec(n_trunc=task[1][0])
            field = tc.FockBasisSpec(n_trunc=task[1][1])
            L = tc.offresonant_full_liouvillian(es, spec, field, include_feedback=True, drive_x=drive)
            meter = field.dim
        joint = tc.steady_state(L, tail_block=meter).matrix
        del L
        reduced = tc.steady_state(tc.reduced_feedback_liouvillian(es, spec, drive_x=drive)).matrix
        return joint, meter, reduced

    def check(self):
        gates = Gates()
        zeta = tc.stationary_moments(self.params).zeta
        worst_formula = worst_route = 0.0
        for task in sorted(t for t in self.tasks if t[0] == "reduced"):
            _, n_trunc, route = task
            rho = self.states[task]
            rel = _rel(_mean(_ladder(n_trunc + 1)[1], rho), zeta)
            worst_formula = max(worst_formula, rel)
            gates.add(f"formula_n{n_trunc}_{route}", rel < FORMULA_REL,
                      f"kernel <a'a> vs closed form: rel dev {rel:.2e} (bound {FORMULA_REL:g})")
            if route == "direct":
                dist = _trace_norm(self.states[("reduced", n_trunc, "squeezed_bath")] - rho)
                worst_route = max(worst_route, dist)
                gates.add(f"route_n{n_trunc}", dist < ROUTE_TRACE_NORM,
                          f"routes differ by {dist:.2e} in trace norm (bound {ROUTE_TRACE_NORM:g})")
        worst_x = worst_n = 0.0
        for task in self.tasks:
            if task[0] == "reduced":
                continue
            joint, meter, reduced = self.states[task]
            d_vib = reduced.shape[0]
            _, n_op, x_op = _ladder(d_vib)
            vib = _vibration(joint, d_vib, meter)
            for label, op in (("x", x_op), ("n", n_op)):
                full, red = _mean(op, vib), _mean(op, reduced)
                rel = _rel(full, red)
                if label == "x":
                    worst_x = max(worst_x, rel)
                else:
                    worst_n = max(worst_n, rel)
                gates.add(f"{task[0]}_{label}", rel < ELIMINATION_REL,
                          f"full {full:.6f} vs reduced {red:.6f}: rel dev {rel:.2e} "
                          f"(bound {ELIMINATION_REL:g})")
        gates.values.update({
            "check.kernel_formula.rel_max": worst_formula,
            "check.route.trace_norm_max": worst_route,
            "check.elimination.x_rel_max": worst_x,
            "check.elimination.n_rel_max": worst_n,
        })
        return gates


class Relax:
    """Heun integration of the fed-back reduced generator from vacuum to the plateau."""

    def __init__(self, seed, sizes):
        self.params = tc.ScenarioConfig().replace(nu=18.75).system_params()
        self.spec = tc.FockBasisSpec(n_trunc=sizes["relax_trunc"])
        self.cfg = tc.IntegratorConfig(dt=7.5e-4, t_final=sizes["relax_t_final"], tail_guard=1e-6)
        vacuum = np.zeros((self.spec.dim, self.spec.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        self.rho0 = tc.DenseOperator(vacuum)
        p = self.params
        self.rates = (p.nu, p.gamma_h, p.measurement_rate, abs(p.g * math.sin(p.phi)))
        self.final = None

    def run(self, rep):
        L = tc.reduced_feedback_liouvillian(self.params, self.spec)
        return tc.integrate_lindblad(L, self.rho0, self.cfg, rates=self.rates)

    def keep(self, final):
        self.final = final.matrix

    def check(self):
        gates = Gates()
        fp = tc.stationary_moments(self.params)
        a, n_op, _ = _ladder(self.spec.dim)
        n_rel = _rel(_mean(n_op, self.final), fp.zeta)
        mu_abs = abs(complex(np.trace(a @ a @ self.final)) - fp.mu)
        gates.add("relax_n", n_rel < RELAX_N_REL,
                  f"integrated <a'a> off by {100 * n_rel:.3f}% (bound {100 * RELAX_N_REL:g}%)")
        gates.add("relax_mu", mu_abs < RELAX_MU_ABS,
                  f"integrated <a^2> off by {mu_abs:.2e} (bound {RELAX_MU_ABS:g})")
        gates.values.update({"check.relax.n_rel": n_rel, "check.relax.mu_abs": mu_abs})
        return gates


class Ensemble:
    """`trapcool trajectory` through cli.main at the slow trap.

    Every repetition runs the same command, with a CLI seed derived from
    the benchmark seed, so the trajectories checked are fixed by the seed
    and do not depend on how many repetitions fit in the run. The first
    repetition's output is checked; every later one must be identical to
    it, since trajectories are deterministic in (seed, traj_index).
    """

    def __init__(self, seed, sizes):
        self.seed = seed
        self.n_trunc = sizes["ensemble_trunc"]
        self.t_final = sizes["ensemble_t_final"]
        self.n_traj = sizes["ensemble_traj"]
        self.dt = 2e-3
        self.argv = [
            "trajectory",
            "--set", "nu=2", "--set", "n0=1.5",
            "--set", f"n_trunc={self.n_trunc}", "--set", "tail_tolerance=3e-4",
            "--set", f"dt={self.dt!r}", "--set", f"t_final={self.t_final!r}",
            "--set", f"n_traj={self.n_traj}",
        ]
        self.steps = int(round(self.t_final / self.dt))
        self.checkpoints = [j * (self.steps // 20) for j in range(1, 21)]
        self.cli_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1, np.uint64)[0])
        self.codes = []
        self.first = None
        self.repeat_mismatch = 0
        self.complete = True
        self.n_cond = None    # per trajectory, at the checkpoints
        self.records = []     # (min_eig, uncertainty_min) per trajectory call
        self.last_bytes_out = 0

    def capture(self, original):
        """Wrapper that keeps each TrajectoryRecord for the positivity gates."""
        def run_trajectory(*args, **kwargs):
            record = original(*args, **kwargs)
            self.records.append((record.min_eig, record.uncertainty_min))
            return record
        return run_trajectory

    def run(self, rep):
        return _run_cli(self.argv + ["--seed", str(self.cli_seed)])

    def keep(self, output):
        code, text = output
        self.codes.append(code)
        self.last_bytes_out = len(text)
        if self.first is not None:
            self.repeat_mismatch += text != self.first
            return
        self.first = text
        lines = text.split("\n\n", 1)[0].splitlines()
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        self.complete = rows.shape == (self.n_traj * (self.steps + 1), 6)
        self.complete = self.complete and "\n\ntime,x_mean,x_se" in text
        n_cond = rows[:, 4].reshape(self.n_traj, self.steps + 1)
        self.n_cond = n_cond[:, self.checkpoints]

    def _reference(self):
        """<a'a>(t) of the feedback master equation from the same thermal state."""
        cfg = tc.ScenarioConfig().replace(nu=2.0, n0=1.5)
        params = cfg.system_params()
        spec = tc.FockBasisSpec(n_trunc=self.n_trunc, tail_tolerance=3e-4)
        q = params.n0 / (params.n0 + 1.0)
        weights = q ** np.arange(spec.dim)
        rho0 = np.diag(weights / weights.sum()).astype(complex)
        n_diag = np.arange(float(spec.dim))
        ref = np.empty(self.steps + 1)
        ref[0] = float(n_diag @ np.diag(rho0).real)

        def keep(t, r):
            ref[int(round(t / self.dt))] = float(n_diag @ np.diag(r).real)

        icfg = tc.IntegratorConfig(dt=self.dt, t_final=self.t_final, tail_guard=3e-4)
        L = tc.reduced_feedback_liouvillian(params, spec)
        tc.integrate_lindblad(L, tc.DenseOperator(rho0), icfg, callback=keep)
        return ref[self.checkpoints]

    def check(self):
        gates = Gates()
        gates.add("cli_exit", all(c == 0 for c in self.codes), f"exit codes {sorted(set(self.codes))}")
        gates.add("output_complete", self.complete,
                  f"{self.n_traj} trajectories x {self.steps + 1} rows plus the ensemble summary")
        gates.add("repeat_identical", self.repeat_mismatch == 0,
                  f"{self.repeat_mismatch} of {len(self.codes) - 1} later repetitions differ "
                  "from the first")
        n_cond = self.n_cond
        diffs = n_cond.mean(axis=0) - self._reference()
        ses = n_cond.std(axis=0, ddof=1) / math.sqrt(len(n_cond))
        # Reported, not gated: n_cond is skewed (skewness 2-3), so at the
        # few trajectories a run affords, the 3-SE bound (calibrated on
        # 200 trajectories) flags correct runs.
        z_max = float(np.max(np.abs(diffs) / ses))
        distinct = self.records[:self.n_traj]
        repeated = len(self.records) == len(self.codes) * self.n_traj and all(
            r == distinct[i % self.n_traj] for i, r in enumerate(self.records))
        gates.add("records", repeated,
                  f"{len(self.records)} trajectory records for {len(self.codes)} repetitions "
                  f"of the same {self.n_traj} trajectories")
        min_eig = min((r[0] for r in distinct), default=math.nan)
        unc = min((r[1] for r in distinct), default=math.nan)
        unphysical = sum(1 for eig, u in distinct
                         if not (eig >= ENSEMBLE_MIN_EIG and u >= ENSEMBLE_UNCERTAINTY))
        gates.operations = [
            len(distinct), unphysical,
            f"trajectories below min eigenvalue {ENSEMBLE_MIN_EIG:g} or Var(X) Var(P) "
            f"1/16 - 1e-6; worst {min_eig:.2e} and {unc:.6f}",
        ]
        gates.values.update({
            "check.ensemble.z_max": z_max,
            "sme.trajectory.min_eig": min_eig,
            "sme.trajectory.uncertainty_min": unc,
        })
        return gates


class ClosedForm:
    """`trapcool sweep --key g` over seeded gains of both signs, plus contour and steady reports."""

    def __init__(self, seed, sizes):
        rng = np.random.default_rng(seed)
        self.stable_values = [float(v) for v in rng.uniform(-1.0, 1.0, sizes["sweep_stable"])]
        self.unstable_values = [float(v) for v in rng.uniform(0.0, 1.0, sizes["sweep_unstable"])]
        # negative gains are config errors, positive ones are stable at phi = -pi/2;
        # at phi = +pi/2 every gain has the runaway sign
        self.sweeps = (
            ("stable", ["sweep", "--key", "g",
                        "--values=" + ",".join(map(repr, self.stable_values))]),
            ("unstable", ["sweep", "--key", "g", "--set", f"phi={HALF_PI!r}",
                          "--values=" + ",".join(map(repr, self.unstable_values))]),
        )
        self.repeats = sizes["report_repeats"]
        self.first = None
        self.repeat_mismatch = 0
        self.codes = []
        self.last_bytes_out = 0
        self.rows_per_rep = len(self.stable_values) + len(self.unstable_values)

    def run(self, rep):
        # the two sweeps, then contour and steady in turn
        outputs = [_run_cli(argv) for _, argv in self.sweeps]
        for _ in range(self.repeats):
            outputs.append(_run_cli(["contour"]))
            outputs.append(_run_cli(["steady"]))
        return outputs

    def keep(self, outputs):
        self.codes.extend(code for code, _ in outputs)
        self.last_bytes_out = sum(len(text) for _, text in outputs)
        texts = [text for _, text in outputs]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            self.repeat_mismatch += 1

    @staticmethod
    def _expected_row(base, value):
        """What one sweep row must hold, from direct gaussian calls."""
        try:
            params = base.replace(g=value).system_params()
            bp = tc.bath_params(params)
            if tc.stability(params):
                m = tc.stationary_moments(params)
                return [value, bp.N, m.zeta, abs(m.mu), "true", ""]
            return [value, bp.N, None, None, "false", ""]
        except (tc.ConfigError, tc.SimulationError, ValueError) as err:
            return [value, None, None, None, "", str(err)]

    @staticmethod
    def _parsed(cell):
        return None if cell == "" else float(cell)

    def check(self):
        gates = Gates()
        gates.add("cli_exit", all(c == 0 for c in self.codes), f"exit codes {sorted(set(self.codes))}")
        gates.add("repeat_identical", self.repeat_mismatch == 0,
                  f"{self.repeat_mismatch} repetitions differ from the first")
        mismatches = 0
        kinds = {"true": 0, "false": 0, "": 0}
        for (label, _), values, text in zip(self.sweeps, (self.stable_values, self.unstable_values),
                                            self.first):
            base = tc.ScenarioConfig() if label == "stable" else tc.ScenarioConfig(phi=HALF_PI)
            rows = list(csv.reader(io.StringIO(text)))[1:]
            mismatches += abs(len(rows) - len(values))
            for row, value in zip(rows, values):
                kinds[row[4]] = kinds.get(row[4], 0) + 1
                want = self._expected_row(base, value)
                if [self._parsed(c) for c in row[:4]] != want[:4] or row[4:] != want[4:]:
                    mismatches += 1
        gates.add("sweep_rows", mismatches == 0,
                  f"{mismatches} of {self.rows_per_rep} rows differ "
                  f"from direct gaussian calls ({kinds['true']} stable, {kinds['false']} unstable, "
                  f"{kinds['']} rejected)")
        gates.values["check.sweep.mismatches"] = mismatches
        contour = list(csv.reader(io.StringIO(self.first[2])))[1:]
        radius = {}
        for label, x, p in contour:
            radius.setdefault(label, []).append(math.hypot(float(x), float(p)))
        excess = max(radius["feedback"]) / 0.5 - 1.0
        ok = abs(max(radius["ground"]) - 0.5) < 1e-12 and abs(min(radius["ground"]) - 0.5) < 1e-12
        ok = ok and abs(max(radius["thermal"]) - math.sqrt(5.25)) < 1e-3
        ok = ok and 0.0 < excess <= CONTOUR_EXCESS and min(radius["feedback"]) > 0.5
        gates.add("contour_geometry", ok,
                  f"feedback ellipse exceeds the ground circle by {100 * excess:.2f}% "
                  f"(bound {100 * CONTOUR_EXCESS:g}%)")
        gates.values["check.contour.excess"] = excess
        report = dict(list(csv.reader(io.StringIO(self.first[3])))[1:])
        params = tc.ScenarioConfig().system_params()
        g_opt, n_min = tc.optimal_gain(params)
        ok = float(report["zeta"]) == tc.stationary_moments(params).zeta
        ok = ok and float(report["g_opt"]) == g_opt and float(report["n_min"]) == n_min
        ok = ok and report.get("kernel_check", "").startswith("skipped")
        gates.add("steady_report", ok, "zeta, g_opt, n_min equal direct calls; kernel check skipped")
        return gates


WORKLOADS = {
    "stationary": Stationary,
    "ensemble": Ensemble,
    "relax": Relax,
    "closed_form": ClosedForm,
}

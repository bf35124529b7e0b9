"""Acceptance gates: figure reproduction, cross-route agreement, invariants.

Each test pins its tolerance and its runtime budget. The heavy ones reuse
the validation module's agreement helpers so the command line self-checks
and this suite exercise the same code paths.
"""

import json
import math
import time

import numpy as np
import pytest

from trapcool import gaussian, validation
from trapcool.cli import main
from trapcool.scenario import ScenarioConfig


def _registry_verdict(monkeypatch, name, helper, result):
    """The passed flag of validation.CHECKS entry `name`, with `helper` returning `result`.

    The check body runs on a result the test already computed, so its
    verdict is asserted without a second solve or trajectory ensemble.
    """
    monkeypatch.setattr(validation, helper, result)
    check = {entry: fn for entry, _, fn in validation.CHECKS}[name]
    return check()[0]


def test_figure_scenario_reaches_the_advertised_occupancy(capsys):
    start = time.perf_counter()
    params = ScenarioConfig().system_params()
    bp = gaussian.bath_params(params)
    # frozen closed-form occupancy for the default scenario
    assert abs(bp.N - 0.05375) < 1e-9
    assert abs(bp.N - 0.0538) < 1e-3
    assert bp.is_physical
    assert gaussian.stability(params)

    code = main(["contour", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    radii = {"thermal": [], "feedback": [], "ground": []}
    for label, x, p in json.loads(out)["rows"]:
        radii[label].append(math.hypot(x, p))
    assert all(len(r) == 256 for r in radii.values())
    for radius in radii["ground"]:
        assert abs(radius - 0.5) < 1e-12
    for radius in radii["thermal"]:
        assert abs(radius - 2.291) < 1e-3
    # cooling lands within 6% of the ground-state circle
    assert max(radii["feedback"]) <= 0.5 * 1.06
    assert max(radii["feedback"]) < min(radii["thermal"])
    assert time.perf_counter() - start < 1.0


def test_integrated_relaxation_matches_the_closed_form_moments(monkeypatch):
    start = time.perf_counter()
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(a):
        calls.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    res = validation.relaxation_agreement()
    assert abs(res["n_obs"] - res["zeta"]) < 0.01 * res["zeta"]
    assert abs(res["mu_obs"] - res["mu"]) < 1e-3
    # state invariants held on every step of the integration
    assert res["min_eig"] >= -1e-9
    assert res["trace_dev"] <= 1e-10
    # the positivity certificate takes the exact eigenvalue on under 1% of the 19,000 steps
    assert len(calls) < 190
    assert _registry_verdict(monkeypatch, "relaxation_to_formula", "relaxation_agreement", lambda: res)
    assert time.perf_counter() - start < 30.0


@pytest.mark.slow
def test_trajectory_ensemble_recovers_the_master_equation(monkeypatch):
    start = time.perf_counter()
    res = validation.ensemble_agreement()
    assert res["n_traj"] >= 200
    assert len(res["diffs"]) == 20
    z = np.abs(np.asarray(res["diffs"])) / np.asarray(res["ses"])
    assert float(z.max()) < 3.0
    # conditioned states stayed physical at every recorded step
    assert res["min_eig"] >= -1e-6
    assert res["uncertainty_min"] >= 1.0 / 16.0 - 1e-6
    assert time.perf_counter() - start < 600.0
    assert _registry_verdict(monkeypatch, "trajectory_ensemble", "ensemble_agreement", lambda: res)


def test_meter_elimination_reproduces_the_reduced_steady_state(monkeypatch):
    start = time.perf_counter()
    results = {
        (es, n_vib, n_field): validation.elimination_agreement(es, n_vib, n_field)
        for n_vib, n_field in ((25, None), (13, 3))
        for es in validation.ELIMINATION_SETS
    }
    thick_r, thin_r, thick_f, thin_f = results.values()
    for res in (thick_r, thin_r, thick_f, thin_f):
        assert abs(res["x_full"] - res["x_reduced"]) < 0.05 * abs(res["x_reduced"])
        assert abs(res["n_full"] - res["n_reduced"]) < 0.05 * abs(res["n_reduced"])
    # halving the coupling-to-damping ratio shrinks the expansion residual
    assert thick_r["residual"] / thin_r["residual"] >= 3.0
    assert thick_f["residual"] / thin_f["residual"] >= 3.0
    assert time.perf_counter() - start < 120.0
    for name in ("resonant_elimination", "offresonant_elimination"):
        assert _registry_verdict(
            monkeypatch, name, "elimination_agreement", lambda *key: results[key]
        )


def test_optimal_gain_matches_a_brute_force_scan():
    import dataclasses

    params = ScenarioConfig().system_params()
    g_opt, n_min = gaussian.optimal_gain(params)
    # frozen from the closed-form optimum at the figure rates
    assert abs(g_opt - 0.397994974842648) < 1e-12
    assert abs(n_min - 0.052770798392566709) < 1e-12
    assert abs(g_opt - 0.398) < 5e-4
    assert abs(n_min - 0.0528) < 5e-4

    grid = np.exp(np.linspace(math.log(g_opt / 30.0), math.log(30.0 * g_opt), 801))
    scan = [
        (gaussian.bath_params(dataclasses.replace(params, g=float(g))).N, float(g))
        for g in grid
    ]
    best_n, best_g = min(scan)
    assert n_min <= best_n + 1e-12
    assert best_n - n_min <= 1e-3 * n_min
    step = math.log(900.0) / 800.0
    assert abs(math.log(best_g / g_opt)) <= step + 1e-12

    ideal = dataclasses.replace(params, eta=1.0, gamma_h=0.0)
    assert gaussian.optimal_gain(ideal)[1] == 0.0


def test_property_grid_bounds_hold_everywhere():
    sets = validation.property_grid()
    assert len(sets) == 240
    for params in sets:
        bp = gaussian.bath_params(params)
        assert abs(bp.M) ** 2 <= bp.N * (bp.N + 1.0) + 1e-12
        assert gaussian.stability(params)
        ellipse = gaussian.wigner_covariance(gaussian.stationary_moments(params))
        assert ellipse.semi_axes[1] ** 2 >= 0.25 - 1e-9
    # kernel solves agree with the sign condition, including the flipped corner
    ok, detail = validation._check_property_grid()
    assert ok, detail

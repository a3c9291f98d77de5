"""Acceptance gates: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np

from dcobserver import (
    ScenarioConfig,
    invariant_monitor,
    make_theta,
    propagate,
    realizability_residual,
    run_scenario,
    spectral_norm,
    time_average,
    uniform_grid,
)
from dcobserver.closed_form import certify
from helpers import (
    A_ONE_MODE,
    closed_form_map,
    eigenvalues_mp,
    hamiltonian_of,
    one_mode_augmented,
    random_augmented,
    random_spd,
    swapped_augmented,
    swept_schedule,
)


def _report(number, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def _assembled_test_set():
    systems = [one_mode_augmented(), swapped_augmented()]
    rng = np.random.default_rng(2026)
    for n_p, n_o in [(2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 4), (4, 2)]:
        for _ in range(3):
            systems.append(random_augmented(rng, n_p, n_o))
    return systems


def test_criterion_1_realizability_algebra():
    start = time.perf_counter()
    worst_res = 0.0
    worst_round = 0.0
    for aug in _assembled_test_set():
        theta, r_a = aug.ccr.theta, aug.r_a
        worst_res = max(worst_res, realizability_residual(aug.a_a, theta))
        # a_a = 2 theta r_a with r_a symmetric, and r_a equals the symmetric oracle
        worst_round = max(
            worst_round,
            float(np.max(np.abs(2.0 * (theta @ r_a) - aug.a_a))),
            float(np.max(np.abs(r_a - r_a.T))),
            float(np.max(np.abs(r_a - hamiltonian_of(aug.a_a, theta)))),
        )
    elapsed = time.perf_counter() - start
    ok = worst_res <= 1e-12 and worst_round <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "realizability algebra",
        ok,
        f"residual={worst_res:.2e}, round-trip={worst_round:.2e}, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_plant_quadrature_conservation():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(50.0, 0.01))
    deviation = float(np.max(np.abs(series.maps[:, 0, :] - np.array([1.0, 0.0, 0.0, 0.0]))))
    _report(2, "plant-quadrature conservation", deviation <= 1e-10, f"max deviation={deviation:.2e}")


def test_criterion_3_time_average_convergence():
    start = time.perf_counter()
    aug = one_mode_augmented()
    averages = time_average(propagate(aug.a_a, uniform_grid(100.0, 0.01)))
    ok = True
    details = []
    for T in (10.0, 50.0, 100.0):
        k = int(np.argmin(np.abs(averages.times - T)))
        row = averages.averages[k, 2, :]
        bound = 1.0 / (2.0 * T) + 1e-6
        analytic = np.array(
            [
                1 - np.sin(2 * T) / (2 * T),
                0.0,
                np.sin(2 * T) / (2 * T),
                (1 - np.cos(2 * T)) / (2 * T),
            ]
        )
        ok = ok and np.max(np.abs(row - analytic)) <= 1e-4  # quadrature vs oracle
        ok = ok and abs(row[0] - 1.0) <= bound
        ok = ok and abs(row[2]) <= bound and abs(row[3]) <= bound
        ok = ok and abs(row[1]) <= 1e-12
        details.append(f"T={T:g}: |ave-1|={abs(row[0] - 1):.2e}<={bound:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(3, "time-average convergence", ok, "; ".join(details) + f", elapsed={elapsed:.2f}s")


def test_criterion_4_closed_form_equals_propagator():
    rng = np.random.default_rng(404)
    worst = 0.0
    instances = 0
    while instances < 50:
        n_p = int(rng.choice([2, 4]))
        n_o = int(rng.choice([2, 4]))
        if n_p // 2 > n_o:
            continue
        aug = random_augmented(rng, n_p, n_o)
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, size=100))])
        series = propagate(aug.a_a, grid)
        for t, phi in zip(grid[1:], series.maps[1:]):
            worst = max(worst, float(np.max(np.abs(closed_form_map(t, aug) - phi))))
        instances += 1
    _report(4, "closed-form vs numeric equivalence", worst <= 1e-8, f"worst |diff|={worst:.2e}")


def test_criterion_5_spectral_property():
    # char poly of the one-mode dynamics: coefficients of l^4 + 4 l^2 exactly
    n = A_ONE_MODE.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(A_ONE_MODE)
    for k in range(1, n + 1):
        work = A_ONE_MODE @ work + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A_ONE_MODE @ work) / k)
    oracle_ok = np.allclose(coeffs, [1.0, 0.0, 4.0, 0.0, 0.0], atol=0.0)

    spectrum = np.sort(np.linalg.eigvals(A_ONE_MODE))
    expected = np.sort(np.array([0.0 + 0j, 0.0 + 0j, 2j, -2j]))
    canonical_ok = bool(
        np.allclose(spectrum, expected, atol=1e-9) and np.max(np.abs(spectrum.real)) <= 1e-9
    )

    worst = 0.0
    for aug in _assembled_test_set():
        worst = max(worst, float(np.max(np.abs(eigenvalues_mp(aug.a_a).real))))
    ok = oracle_ok and canonical_ok and worst <= 1e-9
    _report(5, "spectral property", ok, f"max |Re| over assembled={worst:.2e}")


def test_criterion_6_conservation_laws():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(100.0, 0.01))
    one_mode = invariant_monitor(series, aug.ccr, aug.r_a)

    aug1, aug3 = one_mode_augmented(), swapped_augmented()
    times, _, maps, _, _ = swept_schedule([(20.0, aug1), (5.0, None), (75.0, aug3)], 0.01)
    maps_t = maps.transpose(0, 2, 1)
    ccr_res = float(np.max(np.abs(maps @ aug1.ccr.theta @ maps_t - aug1.ccr.theta)))
    energy_res = 0.0
    bounds = [0.0, 20.0, 25.0, 100.0]
    for i, r_seg in enumerate([aug1.r_a, np.zeros((4, 4)), aug3.r_a]):
        lo = int(np.argmin(np.abs(times - bounds[i])))
        hi = int(np.argmin(np.abs(times - bounds[i + 1])))
        chunk, chunk_t = maps[lo : hi + 1], maps_t[lo : hi + 1]
        ref = chunk_t[0] @ r_seg @ chunk[0]
        energy_res = max(energy_res, float(np.max(np.abs(chunk_t @ r_seg @ chunk - ref))))

    ok = (
        one_mode.max_ccr_residual <= 1e-8
        and one_mode.max_energy_residual <= 1e-8
        and ccr_res <= 1e-8
        and energy_res <= 1e-8
    )
    _report(
        6,
        "conservation laws",
        ok,
        f"one_mode=({one_mode.max_ccr_residual:.2e},{one_mode.max_energy_residual:.2e}), "
        f"sequence=({ccr_res:.2e},{energy_res:.2e})",
    )


def test_criterion_7_exponential_norm_bound():
    rng = np.random.default_rng(707)
    worst_excess = -np.inf
    for _ in range(100):
        n_o = int(rng.choice([2, 4, 6, 8]))
        r_o = random_spd(rng, n_o, 0.2, 5.0)
        theta_2 = make_theta(n_o // 2).theta
        bound = certify(2.0 * theta_2 @ r_o, 0).norm_bound
        series = propagate(2.0 * theta_2 @ r_o, uniform_grid(50.0, 0.25))
        sup = max(spectral_norm(m) for m in series.maps)
        worst_excess = max(worst_excess, sup - bound)
    _report(
        7,
        "exponential norm bound",
        worst_excess <= 1e-8,
        f"worst sup-bound={worst_excess:.2e}",
    )


def test_criterion_8_measurement_sequence():
    aug1, aug3 = one_mode_augmented(), swapped_augmented()
    times, _, maps, _, _ = swept_schedule([(20.0, aug1), (5.0, None), (75.0, aug3)], 0.01)
    i20 = int(np.argmin(np.abs(times - 20.0)))
    i25 = int(np.argmin(np.abs(times - 25.0)))

    flat_before = float(np.max(np.abs(maps[: i25 + 1, 0, :] - np.array([1.0, 0.0, 0.0, 0.0]))))
    plateau = float(np.max(np.abs(maps[i20 : i25 + 1] - maps[i20])))
    q_after = float(np.max(np.abs(maps[i25:, 0, :] - maps[i25, 0, :])))
    p_after = float(np.max(np.abs(maps[i25:, 1, :] - maps[i25, 1, :])))

    ok = flat_before <= 1e-10 and plateau <= 1e-12 and q_after > 0.1 and p_after <= 1e-10
    _report(
        8,
        "measurement-sequence reproduction",
        ok,
        f"flat={flat_before:.2e}, plateau={plateau:.2e}, q-dev={q_after:.2f}, p-dev={p_after:.2e}",
    )


def test_criterion_9_determinism(tmp_path):
    identical = True
    for scenario in ("one_mode", "measurement_sequence"):
        bundles = []
        for tag in ("first", "second"):
            config = ScenarioConfig.from_dict(
                {"scenario": scenario, "out_dir": str(tmp_path / tag)}
            )
            bundles.append(run_scenario(config))
        for a, b in zip(sorted(bundles[0].csv_files), sorted(bundles[1].csv_files)):
            identical = identical and a.read_bytes() == b.read_bytes()
    _report(9, "determinism", identical, "byte-identical CSV outputs")

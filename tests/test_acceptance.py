"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete."""

import numpy as np
import pytest
import yaml

from conftest import canonical_config
from halfscat.cli import main
from halfscat.geometry import build_profile
from halfscat.incident import PlaneWave, BoundaryCondition
from halfscat.inverse import InversionConfig, ProfileParams, forward_map, invert_profile, \
    residual_separation
from halfscat.solver import DirectionGrid, eval_farfield, solve_scattered
from halfscat.suites import (
    run_convergence,
    run_identities,
    run_indicator,
    run_invert,
    run_maxwell,
)


def _verdict(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def _by_name(results, prefix):
    return [r for r in results if r.name.startswith(prefix)]


@pytest.fixture(scope="module")
def identity_results(canonical_dirichlet, canonical_neumann):
    return {
        "dirichlet": run_identities(canonical_dirichlet)[0],
        "neumann": run_identities(canonical_neumann)[0],
    }


def test_criterion_01_flat_null(flat_scene):
    pw = flat_scene.incidents[0]
    density, report = solve_scattered(flat_scene.mesh, pw)
    worst = float(np.max(np.abs(eval_farfield(density, flat_scene.grid))))
    passed = report.rhs_norm == 0.0 and worst <= 1e-12
    _verdict(1, "flat-null", passed,
             f"rhs norm {report.rhs_norm:g}, max |far field| {worst:.3g} (<= 1e-12)")


def test_criterion_02_mixed_reciprocity(identity_results):
    details = []
    passed = True
    for bc, results in identity_results.items():
        pair_checks = _by_name(results, "mixed_reciprocity[")
        mono = _by_name(results, "mixed_reciprocity_monotone")
        assert len(pair_checks) == 3 and len(mono) == 1
        worst = max(r.value for r in pair_checks)
        passed &= all(r.passed for r in pair_checks) and mono[0].passed
        details.append(f"{bc}: worst rel_err {worst:.2e} (<= 2e-2), monotone {mono[0].passed}")
    _verdict(2, "mixed reciprocity", passed, "; ".join(details))


def test_criterion_03_point_symmetry(identity_results):
    details = []
    passed = True
    for bc, results in identity_results.items():
        checks = _by_name(results, "point_symmetry[")
        assert len(checks) == 5
        passed &= all(r.passed for r in checks)
        details.append(f"{bc}: worst rel_err {max(r.value for r in checks):.2e} (<= 2e-2)")
    _verdict(3, "point-source symmetry", passed, "; ".join(details))


def test_criterion_04_reflected_farfield(identity_results):
    check = _by_name(identity_results["dirichlet"], "reflected_farfield")[0]
    _verdict(
        4,
        "reflected far-field identity",
        check.passed,
        f"worst rel_err {check.value:.2e} over 100 triples, both bcs (<= 1e-12)",
    )


def test_criterion_05_extension(identity_results):
    details = []
    passed = True
    for bc, results in identity_results.items():
        check = _by_name(results, "extension")[0]
        passed &= check.passed
        details.append(f"{bc}: max residual {check.value:.2e} (<= 1e-12)")
    _verdict(5, "reflection extensions", passed, "; ".join(details))


def test_criterion_06_radiation_decay(identity_results):
    details = []
    passed = True
    for bc, results in identity_results.items():
        solved = _by_name(results, "radiation_decay")[0]
        kernel = _by_name(results, "kernel_radiation_decay")[0]
        passed &= solved.passed and kernel.passed
        details.append(f"{bc}: solved slope {solved.value:.3f}, kernel {kernel.value:.3f}")
    _verdict(6, "radiation decay", passed, "; ".join(details) + " (in [-2.2, -1.8])")


def test_criterion_07_maxwell_suite(canonical_dirichlet):
    results = run_maxwell(canonical_dirichlet)
    passed = all(r.passed for r in results)
    detail = ", ".join(f"{r.name}={r.value:.3g}" for r in results)
    _verdict(7, "Maxwell image-field suite", passed, detail)


def test_criterion_08_blow_up_indicator(canonical_dirichlet):
    results, _, _ = run_indicator(canonical_dirichlet)
    by = {r.name: r for r in results}
    passed = all(r.passed for r in results)
    _verdict(
        8,
        "blow-up indicator",
        passed,
        f"descent ratio {by['indicator_blowup_ratio'].value:.2f} (>= 10), "
        f"monotone {by['indicator_monotone'].passed}, "
        f"off-perturbation ratio {by['indicator_off_perturbation'].value:.2f} (<= 2)",
    )


def test_criterion_09_inversion(canonical_dirichlet):
    results, recovered, _ = run_invert(canonical_dirichlet)
    err = results[0].value
    # init at the truth is a fixed point: data from the inversion mesh itself
    truth = ProfileParams.bump(0.3, 0.25)
    data = forward_map(
        truth, list(canonical_dirichlet.incidents), canonical_dirichlet.grid, 0.085
    )
    fixed, report = invert_profile(
        data,
        list(canonical_dirichlet.incidents),
        canonical_dirichlet.grid,
        InversionConfig(target_h=0.085),
        truth,
    )
    fixed_ok = bool(np.array_equal(fixed.values, truth.values) and report.iterations == 0)
    passed = results[0].passed and fixed_ok
    _verdict(
        9,
        "bump inversion",
        passed,
        f"parameter error {err:.3%} (<= 5%), recovered {np.round(recovered.values, 4).tolist()}, "
        f"init-at-truth fixed point {fixed_ok}",
    )


def test_criterion_10_single_direction_distinguishability():
    def pyramid(apex):
        g = np.zeros((9, 9))
        g[4, 4] = apex
        return build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": g.tolist()})

    pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=BoundaryCondition.DIRICHLET)
    sep = residual_separation(pyramid(0.5), pyramid(0.4), pw, DirectionGrid.make(10, 10), 0.1)
    noise_floor = 0.01
    passed = sep >= 10 * noise_floor
    _verdict(
        10,
        "single-direction distinguishability",
        passed,
        f"pyramid 0.5 vs 0.4 separation {sep:.3f} (>= 10 x 1% noise floor = 0.1)",
    )


def test_criterion_11_self_convergence(canonical_dirichlet):
    results = run_convergence(canonical_dirichlet)
    _verdict(
        11,
        "far-field self-convergence",
        results[0].passed,
        f"max-norm relative difference h vs h/2: {results[0].value:.3e} (<= 5e-2)",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = canonical_config(mesh={"target_h": 0.125})
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "r2")]) == 0
    same_csv = (tmp_path / "r1" / "farfield_000.csv").read_bytes() == (
        tmp_path / "r2" / "farfield_000.csv"
    ).read_bytes()

    flat = tmp_path / "flat.yaml"
    flat.write_text(yaml.safe_dump(canonical_config(profile={"kind": "zero", "R": 1.0},
                                                    mesh={"target_h": 0.18})))
    for threads in ("1", "3"):
        assert main(["identities", "--config", str(flat), "--out", str(tmp_path / f"t{threads}"),
                     "--threads", threads]) == 0
    same_threads = (tmp_path / "t1" / "identities.jsonl").read_bytes() == (
        tmp_path / "t3" / "identities.jsonl"
    ).read_bytes()
    passed = same_csv and same_threads
    _verdict(
        12,
        "determinism",
        passed,
        f"byte-identical far-field CSV reruns {same_csv}, "
        f"threads 1 vs 3 numerically identical {same_threads}",
    )

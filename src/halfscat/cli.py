"""Configuration-driven command line: solves and check suites.

Subcommands: forward, identities, maxwell, indicator, invert, convergence.
Each verb picks the names of its artifacts; ``artifacts`` writes their bytes.
Exit status is 0 only when every tolerance of the requested suite is met and
1 when one is breached; validation problems exit with status 2 and a
field-level message, as do a config that cannot be read, an output
directory that cannot be written and a run that runs out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import artifacts
from .errors import MemoryBudgetError, SceneConfigError
from .geometry import ring_count
from .lapack import pin_one_thread, work_buffer_mb
from .scene import build_scene, load_config
from .solver import eval_farfields, solve_scattered, system_mb
from .suites import (
    refined_target_h,
    require_invertible,
    require_scatterer,
    run_convergence,
    run_identities,
    run_indicator,
    run_invert,
    run_maxwell,
)
from .util import memory_budget_mb


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfscat",
        description="Scattering solves and identity-check suites for a locally "
        "perturbed ground plane.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("forward", "solve the scene and export far-field/density/mesh tables"),
        ("identities", "run the full identity suite (reciprocity, symmetry, extension, decay)"),
        ("maxwell", "run the electromagnetic image-field checks"),
        ("indicator", "map the point-source blow-up indicator along probe lines"),
        ("invert", "recover bump parameters from synthetic far-field data"),
        ("convergence", "compare far fields between mesh sizes h and h/2"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scene config file (YAML)")
        p.add_argument("--out", type=Path, default=Path("halfscat_out"),
                       help="output directory (default ./halfscat_out)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; every solve, BLAS included, runs "
                       "in one thread whatever OPENBLAS_NUM_THREADS says")
        p.add_argument("--dry-run", action="store_true", help="validate and print the plan only")
    return parser


def _print_results(results) -> bool:
    ok = True
    for res in results:
        print(res.line())
        ok &= res.passed
    return ok


def _largest_system(subcommand: str, scene) -> tuple[int, int]:
    """Panels and sector count of the largest collocation system the verb
    factors; the factorization cache holds one system, so this bounds its
    memory.  The disc grid of n rings has 6 n^2 panels, so no mesh but the
    scene's is built.  Raises the verb's refusals of the scene, which the
    dry run and the run share."""
    if subcommand == "maxwell":
        return 0, 1
    panels = scene.mesh.n_panels
    R = scene.profile.support_radius
    if subcommand in ("identities", "convergence"):
        panels = 6 * ring_count(R, refined_target_h(scene)) ** 2
    elif subcommand == "indicator":
        require_scatterer(scene)
    elif subcommand == "invert":
        require_invertible(scene)
        panels = max(panels, 6 * ring_count(R, scene.config.invert["data_target_h"]) ** 2)
    return panels, scene.mesh.sectors


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    pin_one_thread()
    try:
        return _run(args)
    except MemoryError as exc:
        # a refusal names its own budget
        budget = None if isinstance(exc, MemoryBudgetError) else memory_budget_mb()
        limit = "" if budget is None else f"; {budget[1]} leaves {budget[0]:.1f} MiB"
        print(f"error: out of memory: {str(exc) or 'allocation failed'}{limit}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    except SceneConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    try:
        scene = build_scene(cfg)
    except (SceneConfigError, ValueError) as exc:
        print(f"error: invalid scene: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        system = _largest_system(args.subcommand, scene)
        if args.dry_run:
            _print_plan(args, scene, system)
            return 0
        ok = _dispatch(args.subcommand, scene, args.out)
    except SceneConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scene {scene.scene_hash}: {'all checks passed' if ok else 'TOLERANCE BREACH'} "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0 if ok else 1


def _print_plan(args, scene, system: tuple[int, int]) -> None:
    panels, sectors = system
    stored_mb = system_mb(panels, sectors)
    budget = memory_budget_mb()
    # what get_factorization checks, with the work buffer of the run's first LU
    memory = {} if budget is None else {
        "memory_budget_mb": round(budget[0], 1),
        "memory_bound": budget[1],
        "system_fits_in_memory": str(stored_mb + work_buffer_mb() <= budget[0]).lower(),
    }
    plan = {
        "subcommand": args.subcommand,
        "config": str(args.config),
        "scene_hash": scene.scene_hash,
        "k": scene.k,
        "bc": scene.bc.value,
        "mesh_panels": scene.mesh.n_panels,
        "mesh_h": scene.mesh.h,
        # max slope of the height function, the paper's Lipschitz constant
        "lipschitz_constant": scene.profile.max_slope,
        "incidents": len(scene.incidents),
        "farfield_directions": scene.grid.size,
        # the largest system the verb factors, blocks and LUs, in MiB
        "dense_system_mb": round(stored_mb, 1),
        "symmetry_sectors": sectors,
        **memory,
        "threads": args.threads,
        "out_dir": str(args.out),
    }
    print("dry run; execution plan:")
    for key, val in plan.items():
        print(f"  {key}: {val}")


def _dispatch(subcommand: str, scene, out_dir: Path) -> bool:
    if subcommand == "forward":
        return _run_forward(scene, out_dir)
    if subcommand == "identities":
        results, reports = run_identities(scene)
        artifacts.write_jsonl([r.record() for r in reports], out_dir / "identities.jsonl",
                              scene.scene_hash)
        return _print_results(results)
    if subcommand == "maxwell":
        results = run_maxwell(scene)
        records = [{"name": r.name, "value": r.value, "passed": r.passed} for r in results]
        artifacts.write_jsonl(records, out_dir / "maxwell.jsonl", scene.scene_hash)
        return _print_results(results)
    if subcommand == "indicator":
        results, descend, offline = run_indicator(scene)
        artifacts.write_indicator(descend, out_dir / "indicator_descend.csv", scene.scene_hash)
        artifacts.write_indicator(offline, out_dir / "indicator_offline.csv", scene.scene_hash)
        return _print_results(results)
    if subcommand == "invert":
        results, recovered, report = run_invert(scene)
        artifacts.write_inversion_trace(report, out_dir / "inversion_trace.csv", scene.scene_hash)
        artifacts.write_json({
            "recovered": recovered.values.tolist(),
            "iterations": report.iterations,
            "stop_reason": report.stop_reason,
            "regularization": report.regularization,
        }, out_dir / "inversion_result.json", scene.scene_hash)
        return _print_results(results)
    if subcommand == "convergence":
        results = run_convergence(scene)
        artifacts.write_json({"value": results[0].value, "passed": results[0].passed},
                             out_dir / "convergence.json", scene.scene_hash)
        return _print_results(results)
    raise ValueError(f"unknown subcommand {subcommand!r}")


def _run_forward(scene, out_dir: Path) -> bool:
    solves = [solve_scattered(scene.mesh, inc) for inc in scene.incidents]
    densities = [density for density, _ in solves]
    farfields = eval_farfields(densities, scene.grid)
    artifacts.write_mesh(scene.mesh, out_dir / "mesh.csv", scene.scene_hash)
    artifacts.write_farfields(densities, scene.grid, farfields,
                              [out_dir / f"farfield_{i:03d}.csv" for i in range(len(solves))],
                              scene.scene_hash)
    report_payload = []
    for i, (density, report) in enumerate(solves):
        artifacts.write_density(density, out_dir / f"density_{i:03d}.csv", scene.scene_hash)
        report_payload.append({"incident": i, **dataclasses.asdict(report)})
        print(
            f"[PASS] forward[{i}]: residual {report.residual_norm:.3e} "
            f"(<= 1e-10 * rhs norm {report.rhs_norm:.3e})"
        )
    artifacts.write_json({"solves": report_payload}, out_dir / "solve_report.json",
                         scene.scene_hash)
    return True


if __name__ == "__main__":
    sys.exit(main())

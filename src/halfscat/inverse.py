"""Reconstruction machinery built on the forward solver.

Three experiments mirror the uniqueness mechanisms: a point-source blow-up
indicator that lights up as probes approach the sound-soft perturbation,
damped Gauss-Newton recovery of parametric profiles from far-field data, and
a single-incidence distinguishability measure for polyhedral-type profiles.
Synthetic data must come from a different mesh discretization than the
inversion uses; the grid-hash guard makes that inverse-crime check mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InverseCrimeError, ProximityError
from .geometry import SurfaceProfile, build_profile, mesh_perturbation
from .incident import IncidentWave, PointSource
from .solver import DirectionGrid, eval_farfield, eval_farfields, eval_scattered, solve_scattered
from .util import scene_comment, write_table

PL_GRID_SIZE = 7  # node grid for the piecewise-linear parametrization
# free nodes: the plus-stencil around the center of the 7x7 grid
_PL_CENTER = PL_GRID_SIZE // 2
PL_FREE_NODES = (
    (_PL_CENTER, _PL_CENTER),
    (_PL_CENTER + 1, _PL_CENTER),
    (_PL_CENTER - 1, _PL_CENTER),
    (_PL_CENTER, _PL_CENTER + 1),
    (_PL_CENTER, _PL_CENTER - 1),
)


@dataclass(frozen=True)
class ProfileParams:
    """Low-dimensional profile parametrization for the inversion experiments.

    ``bump_hw`` carries (height, width) of the blended bump; ``piecewise_linear``
    carries the five free node heights of the plus-stencil on the fixed coarse
    grid (all other nodes pinned to zero, boundary ring included)."""

    kind: str  # bump_hw | piecewise_linear
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    support_radius: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if self.kind not in ("bump_hw", "piecewise_linear"):
            raise ValueError(f"unknown parametrization {self.kind!r}")
        n_expected = 2 if self.kind == "bump_hw" else len(PL_FREE_NODES)
        if values.shape != (n_expected,):
            raise ValueError(f"{self.kind} expects {n_expected} values, got shape {values.shape}")
        if lower.shape != values.shape or upper.shape != values.shape:
            raise ValueError("bounds must match the value vector")
        if np.any(values < lower) or np.any(values > upper):
            raise ValueError("parameter values violate their bounds")
        for arr in (values, lower, upper):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def bump(cls, height: float, width: float, R: float = 1.0) -> "ProfileParams":
        return cls(
            kind="bump_hw",
            values=np.array([height, width]),
            lower=np.array([0.0, 0.05 * R]),
            upper=np.array([0.8 * R, 0.8 * R]),
            support_radius=R,
        )

    @classmethod
    def heights(cls, values, R: float = 1.0) -> "ProfileParams":
        values = np.asarray(values, dtype=float)
        return cls(
            kind="piecewise_linear",
            values=values,
            lower=np.zeros_like(values),
            upper=np.full_like(values, 0.8 * R),
            support_radius=R,
        )

    def clipped(self, values: np.ndarray) -> "ProfileParams":
        return replace(self, values=np.clip(values, self.lower, self.upper))

    def to_profile(self) -> SurfaceProfile:
        if self.kind == "bump_hw":
            return build_profile(
                {
                    "kind": "gaussian_bump",
                    "R": self.support_radius,
                    "amplitude": float(self.values[0]),
                    "width": float(self.values[1]),
                }
            )
        grid = np.zeros((PL_GRID_SIZE, PL_GRID_SIZE))
        for val, (i, j) in zip(self.values, PL_FREE_NODES):
            grid[i, j] = val
        return build_profile(
            {"kind": "piecewise_linear", "R": self.support_radius, "heights": grid.tolist()}
        )


@dataclass(frozen=True)
class IndicatorMap:
    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("indicator values must be finite")


REGULARIZATION_SCALE = 1e-4  # default alpha = this * ||data||^2 / ||init||^2
MAX_HALVINGS = 20  # line-search halvings before a Gauss-Newton step is rejected
STEP_TOLERANCE = 1e-4  # stop once the relative step drops below this


@dataclass(frozen=True)
class InversionConfig:
    regularization: float | None = None  # None: REGULARIZATION_SCALE * ||data||^2 / ||init||^2
    max_iterations: int = 25
    fd_step: float = 1e-5
    target_h: float = 0.1
    data_grid_hash: str = ""

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not (self.fd_step > 0 and self.target_h > 0):
            raise ValueError("steps and mesh size must be positive")
        alpha = self.regularization
        if alpha is not None and not (np.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"regularization must be None or finite and >= 0, got {alpha!r}")


@dataclass(frozen=True)
class InversionReport:
    iterations: int
    objective_trace: np.ndarray
    params_trace: np.ndarray
    stop_reason: str
    regularization: float


def blow_up_indicator(scene, samples: np.ndarray) -> IndicatorMap:
    """I(z) = |w_sc(z; z)|: one point-source solve per sample, evaluated back
    at the source.  Grows without bound as z approaches the sound-soft
    perturbation and stays flat over the unperturbed plane."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    f_below = scene.profile.height(samples[:, :2])
    if np.any(samples[:, 2] <= f_below):
        bad = int(np.argmax(samples[:, 2] <= f_below))
        raise ProximityError(
            f"indicator sample {samples[bad].tolist()} lies on or below the surface"
        )
    vals = np.empty(samples.shape[0])
    for i, z in enumerate(samples):
        src = PointSource(z=z, k=scene.k, bc=scene.bc)
        density, _ = solve_scattered(scene.mesh, src)
        vals[i] = abs(eval_scattered(density, scene.mesh, src, z))
    return IndicatorMap(points=samples, values=vals)


def forward_map(
    params: ProfileParams,
    incidents: list[IncidentWave],
    grid: DirectionGrid,
    target_h: float,
) -> np.ndarray:
    """Stacked far-field data vector over the incidents (complex, length
    len(incidents) * grid.size), on a fresh mesh of the parametrized profile."""
    mesh = mesh_perturbation(params.to_profile(), target_h)
    densities = [solve_scattered(mesh, inc)[0] for inc in incidents]
    return np.concatenate([p.values for p in eval_farfields(densities, mesh, grid)])


def _objective(resid: np.ndarray, theta: np.ndarray, theta_ref: np.ndarray, alpha: float):
    return 0.5 * float(np.vdot(resid, resid).real) + alpha * float(
        np.sum((theta - theta_ref) ** 2)
    )


def invert_profile(
    data: np.ndarray,
    incidents: list[IncidentWave],
    grid: DirectionGrid,
    cfg: InversionConfig,
    init: ProfileParams,
) -> tuple[ProfileParams, InversionReport]:
    """Damped Gauss-Newton for 0.5*||F(theta) - data||^2 + alpha*||theta - init||^2.

    The Jacobian is finite-difference column by column; steps are halved until
    the objective decreases; iteration stops when the relative step drops
    below STEP_TOLERANCE or the iteration cap is hit.  Refuses to run when
    the data's mesh discretization matches the inversion mesh (inverse crime).
    """
    data = np.asarray(data, dtype=complex).ravel()
    n_expected = len(incidents) * grid.size
    if data.size != n_expected:
        raise ValueError(f"data length {data.size} != |incidents| * |grid| = {n_expected}")
    probe_mesh = mesh_perturbation(init.to_profile(), cfg.target_h)
    if cfg.data_grid_hash and cfg.data_grid_hash == probe_mesh.grid_hash:
        raise InverseCrimeError(
            "synthetic data was generated on the same mesh discretization "
            f"(grid hash {probe_mesh.grid_hash}) as the inversion mesh; "
            "regenerate the data on a different target_h"
        )

    theta = init.values.copy()
    theta_ref = init.values.copy()
    alpha = cfg.regularization
    if alpha is None:
        ref_sq = float(np.sum(theta_ref**2))
        alpha = (
            REGULARIZATION_SCALE * float(np.vdot(data, data).real) / ref_sq
            if ref_sq > 0
            else 0.0
        )

    def F(vals):
        return forward_map(init.clipped(vals), incidents, grid, cfg.target_h)

    resid = F(theta) - data
    obj = _objective(resid, theta, theta_ref, alpha)
    obj_trace = [obj]
    params_trace = [theta.copy()]
    stop_reason = "max_iterations"
    n_par = theta.size

    for _ in range(cfg.max_iterations):
        J = np.empty((data.size, n_par), dtype=complex)
        for p in range(n_par):
            stepped = theta.copy()
            stepped[p] += cfg.fd_step
            J[:, p] = (F(stepped) - data - resid) / cfg.fd_step
        JtJ = (J.conj().T @ J).real
        grad = (J.conj().T @ resid).real + 2.0 * alpha * (theta - theta_ref)
        lhs = JtJ + 2.0 * alpha * np.eye(n_par)
        delta = np.linalg.solve(lhs, -grad)

        rel_step = np.linalg.norm(delta) / max(np.linalg.norm(theta), 1e-30)
        if rel_step < STEP_TOLERANCE:
            stop_reason = "step_tolerance"
            break

        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            candidate = np.clip(theta + t * delta, init.lower, init.upper)
            cand_resid = F(candidate) - data
            cand_obj = _objective(cand_resid, candidate, theta_ref, alpha)
            if cand_obj < obj:
                theta, resid, obj = candidate, cand_resid, cand_obj
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise RuntimeError(
                f"Gauss-Newton step rejected after {MAX_HALVINGS} halvings "
                f"(objective stuck at {obj:.6e})"
            )
        obj_trace.append(obj)
        params_trace.append(theta.copy())

    report = InversionReport(
        iterations=len(obj_trace) - 1,
        objective_trace=np.array(obj_trace),
        params_trace=np.array(params_trace),
        stop_reason=stop_reason,
        regularization=alpha,
    )
    return init.clipped(theta), report


def residual_separation(
    profile_a: ProfileParams | SurfaceProfile,
    profile_b: ProfileParams | SurfaceProfile,
    incident: IncidentWave,
    grid: DirectionGrid,
    target_h: float = 0.1,
) -> float:
    """||farfield(a) - farfield(b)|| / ||farfield(a)|| for one incident wave;
    the numerical counterpart of single-incidence distinguishability."""
    patterns = []
    for prof in (profile_a, profile_b):
        if isinstance(prof, ProfileParams):
            prof = prof.to_profile()
        mesh = mesh_perturbation(prof, target_h)
        density, _ = solve_scattered(mesh, incident)
        patterns.append(eval_farfield(density, mesh, grid).values)
    fa, fb = patterns
    return float(np.linalg.norm(fa - fb) / np.linalg.norm(fa))


def export_indicator_csv(indicator: IndicatorMap, path, scene_hash: str | None = None) -> None:
    write_table(path, scene_comment(scene_hash), ["x", "y", "z", "I"],
                [*indicator.points.T, indicator.values])


def export_inversion_trace_csv(report: InversionReport, path,
                               scene_hash: str | None = None) -> None:
    params = report.params_trace
    write_table(
        path,
        scene_comment(scene_hash),
        ["iter", "objective"] + [f"p{i}" for i in range(params.shape[1])],
        [np.arange(len(report.objective_trace)), report.objective_trace, *params.T],
    )

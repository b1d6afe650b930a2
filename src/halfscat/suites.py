"""Check-suite runners behind the command-line verbs.

Every suite is deterministic for a fixed scene hash: sample points come from
the scene seed, solves on one mesh share its cached factorization, and every
solve runs in turn in the calling thread.  Tolerances live in one table; a
scale factor loosens every bound coherently (upper bounds and window
half-widths multiply, lower-bound ratios divide, window centres stay).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import SceneConfigError
from .geometry import GROUND_PLANE, mesh_perturbation
from .identities import (
    IdentityReport,
    SlopeReport,
    check_extension,
    check_kernel_radiation_decay,
    check_mixed_reciprocity,
    check_point_symmetry,
    check_radiation_decay,
    check_reflected_farfield,
)
from .inverse import (
    InversionConfig,
    ProfileParams,
    blow_up_indicator,
    forward_map,
    invert_profile,
)
from .kernels import MIRROR, BoundaryCondition
from .maxwell import (
    DipoleSource,
    check_reflection_principle,
    check_silver_muller,
    eval_total_field,
    fd_divergence,
    maxwell_fd_residuals,
    pec_residual,
)
from .solver import solve_scattered, eval_farfield


# How ``SuiteTolerances.scaled`` treats a field, read from its metadata; a
# field without the key is an upper bound or a window half-width.
_LOWER_BOUND = {"scale": "divide"}
_UNSCALED = {"scale": "keep"}


@dataclass(frozen=True)
class SuiteTolerances:
    mixed_reciprocity: float = 2e-2
    point_symmetry: float = 2e-2
    reflected_farfield: float = 1e-12
    extension: float = 1e-12
    decay_slope_center: float = field(default=-2.0, metadata=_UNSCALED)
    decay_slope_halfwidth: float = 0.2
    pec: float = 1e-12
    reflection: float = 1e-12
    maxwell_fd: float = 1e-5
    sm_slope_margin: float = 0.2  # residual slope <= -1 + margin
    indicator_ratio: float = field(default=10.0, metadata=_LOWER_BOUND)
    offline_ratio: float = 2.0
    invert_param_rel: float = 0.05
    convergence: float = 5e-2

    def scaled(self, factor: float) -> "SuiteTolerances":
        if factor == 1.0:
            return self
        changes = {}
        for f in fields(self):
            value = getattr(self, f.name)
            rule = f.metadata.get("scale", "multiply")
            if rule == "multiply":
                changes[f.name] = value * factor
            elif rule == "divide":
                changes[f.name] = value / factor
        return replace(self, **changes)


DEFAULT_TOLERANCES = SuiteTolerances()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    requirement: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "value", float(self.value))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.value:.6g} ({self.requirement})"


# Each bounded check states its bound once: the verdict compares against it and
# the printed requirement is ``requirement`` filled with it, so the two agree.
# NaN fails every comparison, hence every check.

def at_most(name: str, value, bound, requirement: str) -> CheckResult:
    return CheckResult(name, value <= bound, value, requirement.format(bound))


def at_least(name: str, value, bound, requirement: str) -> CheckResult:
    return CheckResult(name, value >= bound, value, requirement.format(bound))


def within(name: str, value, lo, hi) -> CheckResult:
    return CheckResult(name, lo <= value <= hi, value, f"slope in [{lo:g}, {hi:g}]")


def refine_scene(scene, factor: float = 0.5):
    """The scene on a mesh of ``factor`` times its target panel size.  Only the
    mesh changes: ``config`` still describes the original scene, so the scene
    hash is kept."""
    target = scene.config.mesh["target_h"] * factor
    return replace(scene, mesh=mesh_perturbation(scene.profile, target))


# ---------------------------------------------------------------------------
# deterministic sample generators

def mixed_reciprocity_pairs(scene, n_extra: int = 2):
    """Canonical (d, z) pair plus seeded random ones, all with z well above
    the perturbation."""
    pairs = [(np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.0, 1.5]))]
    rng = np.random.default_rng(scene.seed + 101)
    for _ in range(n_extra):
        phi = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2 * np.pi)
        d = np.array(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), -np.cos(phi)]
        )
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.0, 1.0)
        z = np.array([rad * np.cos(ang), rad * np.sin(ang), rng.uniform(1.2, 1.9)])
        pairs.append((d, z))
    return pairs


def symmetry_pairs(scene, n_random: int = 3):
    """Two pinned pairs (one with both points low over the rim, echoing the
    mirrored-region case layout) plus seeded random pairs."""
    pairs = [
        (np.array([0.6, 0.0, 1.2]), np.array([-0.4, 0.3, 1.8])),
        (np.array([1.35, 0.0, 0.25]), np.array([-1.4, 0.2, 0.25])),
    ]
    rng = np.random.default_rng(scene.seed + 202)
    for _ in range(n_random):
        pts = []
        for _ in range(2):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.0, 1.2)
            pts.append(np.array([rad * np.cos(ang), rad * np.sin(ang), rng.uniform(1.0, 2.0)]))
        pairs.append(tuple(pts))
    return pairs[: 2 + n_random]


def reflected_farfield_triples(seed: int, n: int = 100):
    rng = np.random.default_rng(seed + 303)
    triples = []
    for i in range(n):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.0, 2.0)
        z3 = 0.0 if i == 0 else rng.uniform(0.0, 2.0)  # include the on-plane case
        z = np.array([rad * np.cos(ang), rad * np.sin(ang), z3])
        phi = rng.uniform(-1.4, 1.4)
        theta = rng.uniform(0.0, 2 * np.pi)
        d = np.array(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), -np.cos(phi)]
        )
        k = rng.uniform(0.5, 5.0)
        triples.append((z, d, k))
    return triples


def extension_samples(scene, n: int = 50):
    """Exterior shell samples with |x| in (1.5R, 3R), upper half space."""
    R = scene.mesh.support_radius
    rng = np.random.default_rng(scene.seed + 404)
    dirs = rng.normal(size=(n, 3))
    dirs[:, 2] = np.abs(dirs[:, 2]) + 0.05
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(1.5 * R, 3.0 * R, size=n)
    return dirs * radii[:, None]


# ---------------------------------------------------------------------------
# suites

def run_identities(scene, tol: SuiteTolerances = DEFAULT_TOLERANCES):
    """Full identity suite on one scene; returns CheckResults plus the raw
    reports (identity JSON-line records and slope reports).  The h/2 check
    runs after every solve on the scene mesh, so the one cached factorization
    serves each mesh in turn; its records still follow the mixed ones."""
    results: list[CheckResult] = []
    reports: list[IdentityReport | SlopeReport] = []

    pairs = mixed_reciprocity_pairs(scene)
    mixed = [check_mixed_reciprocity(scene, d, z) for d, z in pairs]
    for i, rep in enumerate(mixed):
        reports.append(rep)
        results.append(at_most(f"mixed_reciprocity[{i}]", rep.rel_err,
                               tol.mixed_reciprocity, "rel_err <= {:g}"))

    sym = [check_point_symmetry(scene, x, y) for x, y in symmetry_pairs(scene)]
    for i, rep in enumerate(sym):
        reports.append(rep)
        results.append(at_most(f"point_symmetry[{i}]", rep.rel_err,
                               tol.point_symmetry, "rel_err <= {:g}"))

    worst = 0.0
    for bc in (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN):
        for z, d, k in reflected_farfield_triples(scene.seed):
            rep = check_reflected_farfield(z, d, k, bc, scene.scene_hash)
            worst = max(worst, rep.rel_err)
    reports.append(IdentityReport(name="reflected_farfield_worst", lhs=0.0, rhs=0.0,
                                  abs_err=worst, rel_err=worst, scene_hash=scene.scene_hash))
    results.append(at_most("reflected_farfield", worst, tol.reflected_farfield,
                           "rel_err <= {:g} on 100 triples, both bcs"))

    inc = scene.incidents[0]
    density, _ = solve_scattered(scene.mesh, inc)
    ext = check_extension(density, scene.mesh, extension_samples(scene), scene.scene_hash)
    reports.append(ext)
    results.append(at_most("extension", ext.abs_err, tol.extension,
                           "max mirrored residual <= {:g}"))

    lo = tol.decay_slope_center - tol.decay_slope_halfwidth
    hi = tol.decay_slope_center + tol.decay_slope_halfwidth
    decay = check_radiation_decay(density, scene.mesh, inc, np.array([0.0, 0.0, 1.0]),
                                  scene_hash=scene.scene_hash)
    reports.append(decay)
    check = within("radiation_decay", decay.slope, lo, hi)
    # a scene that scatters nothing has no decay to fit and passes vacuously
    results.append(replace(check, passed=True) if decay.vacuous else check)
    kern_decay = check_kernel_radiation_decay(scene.k, scene.bc, np.array([0.3, -0.2, 0.5]),
                                              np.array([0.0, 0.0, 1.0]))
    reports.append(kern_decay)
    results.append(within("kernel_radiation_decay", kern_decay.slope, lo, hi))

    d0, z0 = pairs[0]
    rep_f = check_mixed_reciprocity(refine_scene(scene), d0, z0)
    reports.insert(len(mixed), rep_f)
    results.insert(len(mixed), at_most("mixed_reciprocity_monotone", rep_f.rel_err,
                                       mixed[0].rel_err, "rel_err(h/2) <= rel_err(h) = {:.3e}"))
    return results, reports


def run_maxwell(k: float, dipole_y, dipole_p, seed: int = 0,
                tol: SuiteTolerances = DEFAULT_TOLERANCES):
    """Electromagnetic image-field suite: PEC condition, reflection principle,
    finite-difference Maxwell and divergence residuals, Silver-Mueller decay."""
    src = DipoleSource(y=dipole_y, p=dipole_p, k=k)
    rng = np.random.default_rng(seed + 505)
    results: list[CheckResult] = []

    ang = rng.uniform(0, 2 * np.pi, size=200)
    rad = 3.0 * np.sqrt(rng.uniform(0, 1, size=200))
    plane_pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), np.zeros(200)])
    pec = pec_residual(src, GROUND_PLANE, plane_pts)
    results.append(at_most("pec_tangential", pec, tol.pec,
                           "relative tangential residual <= {:g} at 200 plane samples"))

    box = rng.normal(size=(100, 3))
    box[:, 2] = np.abs(box[:, 2]) + 0.2
    keep = np.linalg.norm(box - src.y, axis=1) > 0.2
    keep &= np.linalg.norm(box - src.y * MIRROR, axis=1) > 0.2
    rep = check_reflection_principle(src, GROUND_PLANE, box[keep])
    res_rel = max(rep.max_E_residual, rep.max_H_residual) / rep.field_scale
    results.append(at_most("reflection_principle", res_rel, tol.reflection,
                           "E and H reflection residuals <= {:g} relative"))

    worst_fd = worst_div = 0.0
    for _ in range(20):
        x = rng.normal(size=3) * 1.5
        x[2] = abs(x[2]) + 0.3
        if np.linalg.norm(x - src.y) < 0.3:
            continue

        def E_tot(q):
            return eval_total_field(src, GROUND_PLANE, q).E

        def H_tot(q):
            return eval_total_field(src, GROUND_PLANE, q).H

        r1, r2 = maxwell_fd_residuals(E_tot, H_tot, x, src.k)
        worst_fd = max(worst_fd, r1, r2)
        scale = src.k * max(np.linalg.norm(E_tot(x)), np.linalg.norm(H_tot(x)))
        worst_div = max(
            worst_div,
            abs(fd_divergence(E_tot, x, src.k)) / scale,
            abs(fd_divergence(H_tot, x, src.k)) / scale,
        )
    results.append(at_most("maxwell_fd_residual", worst_fd, tol.maxwell_fd,
                           "curl-system FD residual <= {:g}"))
    results.append(at_most("divergence_fd_residual", worst_div, tol.maxwell_fd,
                           "divergence FD residual <= {:g}"))

    sm = check_silver_muller(src, GROUND_PLANE, np.array([0.0, 0.0, 1.0]))
    results.append(at_most("silver_muller_slope", sm.slope_residual, -1.0 + tol.sm_slope_margin,
                           "|H x x - r E| log-log slope <= {:g}"))
    return results


def run_indicator(scene, tol: SuiteTolerances = DEFAULT_TOLERANCES):
    """Blow-up indicator on a descending line over the apex and a reference
    line far from the perturbation."""
    n = scene.config.indicator["n_samples"]
    top = scene.config.indicator["top"]
    far = scene.config.indicator["far_factor"] * scene.mesh.support_radius
    apex = scene.profile.peak_height
    bottom = apex + 3.0 * scene.mesh.h
    z3 = np.linspace(top, bottom, n)

    descend = np.column_stack([np.zeros(n), np.zeros(n), z3])
    offline = np.column_stack([np.full(n, far), np.zeros(n), z3])
    ind_d = blow_up_indicator(scene, descend)
    ind_o = blow_up_indicator(scene, offline)

    tail = ind_d.values[-5:]
    return [
        CheckResult(
            name="indicator_monotone",
            passed=np.all(np.diff(tail) > 0),
            value=np.min(np.diff(tail)),
            requirement="I strictly increasing over the last 5 descent samples",
        ),
        at_least("indicator_blowup_ratio", ind_d.values[-1] / ind_d.values[0],
                 tol.indicator_ratio, "I(closest)/I(farthest) >= {:g}"),
        at_most("indicator_off_perturbation", ind_o.values[-1] / ind_o.values[0],
                tol.offline_ratio, "off-perturbation ratio <= {:g}"),
    ], ind_d, ind_o


def require_invertible(scene) -> None:
    """The invert experiment recovers gaussian-bump parameters only."""
    if scene.profile.kind != "gaussian_bump":
        raise SceneConfigError("profile.kind", "invert experiment needs a gaussian_bump scene")


def synthesize_invert_data(scene):
    """Noisy synthetic far-field data for the inversion experiment, generated
    from the scene profile on the configured data mesh (which must differ from
    the inversion discretization)."""
    require_invertible(scene)
    cfg = scene.config.invert
    truth = ProfileParams.bump(
        scene.profile.amplitude, scene.profile.width, scene.profile.support_radius
    )
    clean = forward_map(truth, list(scene.incidents), scene.grid, cfg["data_target_h"])
    rng = np.random.default_rng(scene.seed + 606)
    noise_rms = cfg["noise_level"] * np.sqrt(np.mean(np.abs(clean) ** 2))
    noise = noise_rms * (
        rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
    ) / np.sqrt(2.0)
    data_mesh = mesh_perturbation(truth.to_profile(), cfg["data_target_h"])
    return truth, clean + noise, data_mesh.grid_hash


def run_invert(scene, tol: SuiteTolerances = DEFAULT_TOLERANCES):
    """Recover the bump parameters from the synthetic data; passes when every
    parameter lands within the relative tolerance of the truth."""
    cfg = scene.config.invert
    truth, data, data_grid_hash = synthesize_invert_data(scene)
    init = ProfileParams.bump(cfg["init"][0], cfg["init"][1], scene.profile.support_radius)
    inv_cfg = InversionConfig(
        regularization=cfg["regularization"],
        max_iterations=cfg["max_iterations"],
        fd_step=cfg["fd_step"],
        target_h=scene.config.mesh["target_h"],
        data_grid_hash=data_grid_hash,
    )
    recovered, report = invert_profile(data, list(scene.incidents), scene.grid, inv_cfg, init)
    rel = np.abs(recovered.values - truth.values) / np.abs(truth.values)
    return [at_most("invert_parameter_error", np.max(rel), tol.invert_param_rel,
                    "per-parameter relative error <= {:g}")], recovered, report


def run_convergence(scene, tol: SuiteTolerances = DEFAULT_TOLERANCES):
    """Far-field max-norm self-convergence between h and h/2."""
    inc = scene.incidents[0]
    coarse, _ = solve_scattered(scene.mesh, inc)
    f_coarse = eval_farfield(coarse, scene.mesh, scene.grid, scene.scene_hash).values
    fine_scene = refine_scene(scene)
    fine, _ = solve_scattered(fine_scene.mesh, inc)
    f_fine = eval_farfield(fine, fine_scene.mesh, scene.grid, scene.scene_hash).values
    gap = float(np.max(np.abs(f_coarse - f_fine)))
    denom = float(np.max(np.abs(f_fine)))
    rel = gap / denom if denom > 0 else (0.0 if gap == 0 else np.inf)
    return [at_most("farfield_self_convergence", rel, tol.convergence,
                    "max-norm relative difference h vs h/2 <= {:g}")]

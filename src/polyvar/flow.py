"""Area-constrained steepest descent of length on closed discrete curves.

Each step projects the length gradient onto the volume-preserving subspace
(orthogonal complement of the area gradient in configuration space), moves
the vertices, and restores the enclosed area exactly by a homothety about the
vertex centroid (area is quadratic under scaling, so the correct factor is
sqrt(target / current)).  Steps that collapse an edge or increase the length
are retried with a halved step size.  At convergence the Lagrange multiplier
is recovered by least squares and the limit is classified as an equilibrium.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .curves import DiscreteCurve, _signed_area, enclosed_volume, total_length
from .errors import ZeroEdge, ZeroVolumeGradient
from .variation import EquilibriumReport, classify_equilibrium, length_gradients, volume_gradients

MAX_HALVINGS = 20

# Tolerance handed to classify_equilibrium once the flow has converged.
CLASSIFY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FlowConfig:
    step_size: float = 0.1
    max_steps: int = 20000
    grad_tolerance: float = 1e-8
    record_every: int = 10

    def __post_init__(self):
        for name in ("step_size", "grad_tolerance"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name, least in (("max_steps", 0), ("record_every", 1)):
            if operator.index(getattr(self, name)) < least:  # TypeError unless an integer
                raise ValueError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class FlowSnapshot:
    step: int
    curve: DiscreteCurve
    length: float
    volume: float
    max_projected_gradient: float


@dataclass(frozen=True)
class FlowTrajectory:
    snapshots: list[FlowSnapshot]
    verdict: str  # "converged" | "max_steps" | "degenerated"
    steps_taken: int
    report: EquilibriumReport | None = None
    reason: str | None = None
    kappa_estimate: float | None = None


def _along_volume_gradient(curve: DiscreteCurve, field: np.ndarray, floor_sq: float):
    """(field . gradVol) / |gradVol|^2 and gradVol; ZeroVolumeGradient if |gradVol|^2 <= floor_sq."""
    gv = volume_gradients(curve)
    gv_norm_sq = float((gv * gv).sum())
    if gv_norm_sq <= floor_sq:
        raise ZeroVolumeGradient("area gradient vanishes; projection undefined")
    return float((field * gv).sum()) / gv_norm_sq, gv


def project_volume_preserving(curve: DiscreteCurve, field) -> np.ndarray:
    """Remove the component of the field along the area gradient.

    The result w satisfies first_variation(curve, w, "volume") = 0 up to
    round-off.
    """
    v = np.asarray(field, dtype=float)
    c, gv = _along_volume_gradient(curve, v, (1e-14 * max(curve.diameter(), 1.0)) ** 2)
    return v - c * gv


def lagrange_kappa(curve: DiscreteCurve) -> float:
    """Least-squares kappa minimizing |grad L + kappa grad Vol|."""
    # kappa scales as 1/diameter, so a fixed floor would reject small curves; only 0 is rejected
    return -_along_volume_gradient(curve, length_gradients(curve), 0.0)[0]


def _rescaled_to_volume(points: np.ndarray, target: float, sigma: int) -> np.ndarray:
    """Homothety about the centroid of the trial points restoring the enclosed area."""
    current = _signed_area(points, sigma)
    if current == 0.0 or not target / current > 0:
        raise ValueError("enclosed area degenerated during the step")
    centroid = points.sum(axis=0) / len(points)
    return centroid + np.sqrt(target / current) * (points - centroid)


def flow_step(curve: DiscreteCurve, config: FlowConfig, target_volume: float | None = None):
    """One descent step; returns (new_curve, diagnostics dict).

    The projected gradient is evaluated at the input curve; the step is
    backtracked (up to 20 halvings) if it produces a zero edge, flips the
    enclosed area, or increases the length.  diagnostics carries the
    pre-step gradient norm and the accepted step size (None if converged or
    no acceptable step exists).
    """
    g = project_volume_preserving(curve, length_gradients(curve))
    gradnorm = float(np.hypot(g[:, 0], g[:, 1]).max())
    diagnostics = {
        "max_projected_gradient": gradnorm,
        "length": total_length(curve),
        "volume": enclosed_volume(curve),
        "step_size_used": None,
    }
    if gradnorm < config.grad_tolerance:
        return curve, diagnostics

    if target_volume is None:
        target_volume = diagnostics["volume"]
    g_norm_sq = float((g * g).sum())
    roundoff = 1e-14 * max(1.0, diagnostics["length"])
    h = config.step_size
    for _ in range(MAX_HALVINGS + 1):
        try:
            # a zero edge of the trial survives the homothety; non-finite points fail its area test
            trial = curve.points - h * g
            candidate = curve.with_points(_rescaled_to_volume(trial, target_volume, curve.sigma))
            # expected first-order decrease is h * |g|^2; demand a tenth of it,
            # up to the round-off resolution of the length itself
            if total_length(candidate) <= diagnostics["length"] - 0.1 * h * g_norm_sq + roundoff:
                diagnostics["step_size_used"] = h
                return candidate, diagnostics
        except (ZeroEdge, ValueError):
            pass
        h *= 0.5
    return curve, diagnostics


def run_flow(curve: DiscreteCurve, config: FlowConfig = FlowConfig()) -> FlowTrajectory:
    """Iterate flow_step until the projected gradient falls below tolerance.

    Convergence hands the limit to classify_equilibrium with the recovered
    Lagrange multiplier; a step with no acceptable size degenerates the run.
    """
    if not curve.closed:
        raise ValueError("the constrained flow is defined for closed curves")
    target_volume = enclosed_volume(curve)
    snapshots: list[FlowSnapshot] = []
    current, verdict = curve, None
    # an overflowing trial step fails the area test; its numpy warnings would only reach stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.max_steps + 1):
            new_curve, diag = flow_step(current, config, target_volume=target_volume)
            if diag["max_projected_gradient"] < config.grad_tolerance:
                verdict = "converged"
            elif diag["step_size_used"] is None:
                verdict = "degenerated"
            elif step == config.max_steps:
                verdict = "max_steps"
            if verdict or step % config.record_every == 0:
                snapshots.append(
                    FlowSnapshot(
                        step=step,
                        # a fresh curve, so that the kept snapshots do not hold cached arrays
                        curve=current.with_points(current.points),
                        length=diag["length"],
                        volume=diag["volume"],
                        max_projected_gradient=diag["max_projected_gradient"],
                    )
                )
            if verdict:
                break
            current = new_curve

    trajectory = FlowTrajectory(snapshots=snapshots, verdict=verdict, steps_taken=step)
    if verdict == "converged":
        kappa = lagrange_kappa(current)
        report = classify_equilibrium(current, kappa, tol=CLASSIFY_TOLERANCE)
        trajectory = replace(trajectory, report=report, kappa_estimate=kappa)
    elif verdict == "degenerated":
        reason = f"no acceptable step at step {step} (gradient {diag['max_projected_gradient']:.3e})"
        trajectory = replace(trajectory, reason=reason)
    return trajectory

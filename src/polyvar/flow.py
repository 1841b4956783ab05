"""Area-constrained descent of length on closed discrete curves, with momentum.

Each step projects the length gradient onto the volume-preserving subspace
(orthogonal complement of the area gradient in configuration space), moves
the vertices, and restores the enclosed area exactly by a homothety about the
vertex centroid (area is quadratic under scaling, so the correct factor is
sqrt(target / current)).

The step direction is the projected gradient g preconditioned along the
chords: d_k = g_k + (alpha - 1) (g_k . c_k) c_k, with c_k the unit direction
of the chord p_{k+1} - p_{k-1} (normal to the area gradient at vertex k) and
alpha = cot^2(pi / n).  At the regular n-gon, the constrained equilibrium
the flow converges to, the Hessian of L + kappa Vol is circulant in each
vertex's (radial, tangential) frame, and its tangential entries are
cot^2(pi / n) times softer than its radial ones (the 2 x 2 blocks of
variation._regular_hessian_blocks); scaling the chord component by alpha
lowers the condition number of the preconditioned blocks from 23, 345,
5,417 and 86,256 at n = 8, 16, 32 and 64 to csc^2(pi / n) = alpha + 1 for
even n (6.8, 26, 104 and 415; a little less for odd n).  The largest
eigenvalue does not move for even n, and grows by under 3 % for odd n, so
FlowConfig.step_size keeps its meaning.  d is area-preserving to first
order, since c_k is normal to the area gradient, and <g, d> > 0 wherever
g != 0.

The plain step moves along -d: a trial that collapses an edge or does not
decrease the length enough is retried with a halved step size.  run_flow
adds momentum with adaptive restart (O'Donoghue and Candes, "Adaptive
restart for accelerated gradient schemes", 2015): each step first tries
x + k/(k+3) (x - x_prev) - h d with the step size h the plain step last
accepted, under the same area homothety and the same length test; when that
trial fails, k restarts at 0 and the step is the plain one.  So the length
falls at every step, the area is restored exactly, and the step count drops
from about kappa to about sqrt(kappa), kappa the condition number of the
preconditioned problem near its minimum.  At convergence the Lagrange
multiplier is recovered by least squares and the limit is classified as an
equilibrium.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, _dot, _signed_area, enclosed_volume, rot90, total_length
from .errors import OpenCurve, ZeroEdge, ZeroVolumeGradient
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


def _along_volume_gradient(curve: DiscreteCurve, field: np.ndarray):
    """(field . u) / |u|^2, u and e, for u = gradVol / 2^e and 2^e > diameter >= 2^(e-1).

    Scaling by a power of two is exact, so (field . u) / |u|^2 * u is
    (field . gradVol) / |gradVol|^2 * gradVol bit for bit, without the
    overflow or underflow of |gradVol|^2 at the ends of the float range
    (|gradVol_k| = |p_{k+1} - p_{k-1}| / 2 <= diameter / 2).
    ZeroVolumeGradient if |gradVol| is at most 1e-14 of the curve's diameter.
    """
    diameter = curve.diameter()
    e = math.frexp(diameter)[1]
    u = np.ldexp(volume_gradients(curve), -e)
    u_norm_sq = float((u * u).sum())
    if not u_norm_sq > math.ldexp(1e-14 * diameter, -e) ** 2:
        raise ZeroVolumeGradient("area gradient vanishes; projection undefined")
    return float((field * u).sum()) / u_norm_sq, u, e


def project_volume_preserving(curve: DiscreteCurve, field) -> np.ndarray:
    """Remove the component of the field along the area gradient.

    The result w satisfies first_variation(curve, w, "volume") = 0 up to
    round-off.
    """
    v = np.asarray(field, dtype=float)
    c, u, _ = _along_volume_gradient(curve, v)
    return v - c * u


def lagrange_kappa(curve: DiscreteCurve) -> float:
    """Least-squares kappa minimizing |grad L + kappa grad Vol|."""
    c, _, e = _along_volume_gradient(curve, length_gradients(curve))
    try:
        return -math.ldexp(c, -e)
    except OverflowError:  # |kappa| ~ 1 / diameter, beyond the float range below about 1e-308
        raise ZeroVolumeGradient("area gradient too small: kappa overflows") from None


def _accepted(curve: DiscreteCurve, trial: np.ndarray, target_volume: float, bound: float):
    """The trial points, rescaled about their centroid to the target area, as a curve.

    None if the trial's area is zero, of the wrong sign or not finite, if an
    edge vanishes, or if the length exceeds the bound.
    """
    current = _signed_area(trial, curve.sigma)
    if current == 0.0 or not target_volume / current > 0:
        return None
    centroid = trial.sum(axis=0) / len(trial)
    try:  # a zero edge of the trial survives the homothety, and the homothety may overflow
        candidate = curve.with_points(centroid + np.sqrt(target_volume / current) * (trial - centroid))
    except (ZeroEdge, ValueError):
        return None
    return candidate if total_length(candidate) <= bound else None


def _along_chords(g: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """g_k + (alpha - 1) (g_k . c_k) c_k per vertex, c_k the unit vector normal to u_k; g_k where u_k = 0.

    With u the area gradient, c_k is the direction of the chord p_{k+1} - p_{k-1}.
    """
    norm = np.hypot(u[:, 0], u[:, 1])
    c = np.divide(rot90(u, 1), norm[:, None], out=np.zeros_like(u), where=norm[:, None] > 0)
    return g + ((alpha - 1.0) * _dot(g, c))[:, None] * c


def _trials(x: np.ndarray, d: np.ndarray, config: FlowConfig, momentum: dict | None):
    """(trial points, h, momentum count after acceptance), in the order flow_step tries them."""
    if momentum:
        k, h = momentum["k"], momentum["h"]
        yield x + (k / (k + 3)) * (x - momentum["points"]) - h * d, h, k + 1
    h = config.step_size
    for _ in range(MAX_HALVINGS + 1):
        yield x - h * d, h, 1  # a restart: this step is k = 0 of the new sequence
        h *= 0.5


def flow_step(
    curve: DiscreteCurve,
    config: FlowConfig,
    target_volume: float | None = None,
    momentum: dict | None = None,
):
    """One descent step; returns (new_curve, diagnostics dict).

    The projected gradient g is evaluated at the input curve, and so is the
    direction d, g with its component along each vertex's chord scaled by
    alpha = cot^2(pi / n) (see the module docstring: alpha is the ratio of
    the radial to the tangential stiffness at the regular n-gon, and the
    stiffest mode, hence the largest stable step size, is the same for d as
    for g).  The step is x - h d, backtracked (up to 20 halvings) if it
    produces a zero edge, flips the enclosed area, or does not decrease the
    length by a tenth of h <g, d>.  The convergence test and diagnostics
    read g: diagnostics carries the pre-step gradient norm and the accepted
    step size (None if converged or no acceptable step exists).

    momentum is the state run_flow threads from one step to the next, a dict
    updated in place (start with {}): the previous iterate's "points", the
    count "k" of steps since the last restart and the step size "h" the
    backtracking last accepted.  With it, the step first tries
    x + k/(k+3) (x - x_prev) - h d under the same area homothety and length
    test; if that trial fails, momentum restarts: the step is the
    backtracked one, and it is step k = 0 of the new sequence.  Without
    momentum, only the backtracked step is taken.
    """
    gradient = length_gradients(curve)
    c, u, _ = _along_volume_gradient(curve, gradient)
    g = gradient - c * u
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
    x, length = curve.points, diagnostics["length"]
    d = _along_chords(g, u, 1.0 / math.tan(math.pi / curve.n) ** 2)
    slope = float((g * d).sum())
    roundoff = 1e-14 * max(1.0, length)
    # expected first-order decrease is h <g, d>; demand a tenth of it,
    # up to the round-off resolution of the length itself
    for trial, h, k in _trials(x, d, config, momentum):
        candidate = _accepted(curve, trial, target_volume, length - 0.1 * h * slope + roundoff)
        if candidate is not None:
            if momentum is not None:
                momentum.update(points=x, k=k, h=h)
            diagnostics["step_size_used"] = h
            return candidate, diagnostics
    return curve, diagnostics


def run_flow(curve: DiscreteCurve, config: FlowConfig = FlowConfig()) -> FlowTrajectory:
    """Iterate flow_step, with momentum, until the projected gradient falls below tolerance.

    Convergence hands the limit to classify_equilibrium with the recovered
    Lagrange multiplier; a step with no acceptable size degenerates the run.
    """
    if not curve.closed:
        raise OpenCurve("the constrained flow is defined for closed curves")
    snapshots: list[FlowSnapshot] = []
    # a fresh curve, so that the flow caches no array on the caller's
    current, momentum = curve.with_points(curve.points), {}
    # an overflowing area or trial step fails the area test; its numpy warnings would only reach stderr
    with np.errstate(over="ignore", invalid="ignore"):
        target_volume = enclosed_volume(current)
        for step in range(config.max_steps + 1):
            new_curve, diag = flow_step(current, config, target_volume=target_volume, momentum=momentum)
            done = diag["step_size_used"] is None or step == config.max_steps  # None: converged or degenerated
            if done or step % config.record_every == 0:
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
            if done:
                break
            current = new_curve

    verdict, report, reason, kappa = "max_steps", None, None, None
    if diag["max_projected_gradient"] < config.grad_tolerance:
        verdict = "converged"
        kappa = lagrange_kappa(current)
        report = classify_equilibrium(current, kappa, tol=CLASSIFY_TOLERANCE)
    elif diag["step_size_used"] is None:
        verdict = "degenerated"
        reason = f"no acceptable step at step {step} (gradient {diag['max_projected_gradient']:.3e})"
    return FlowTrajectory(snapshots, verdict, step, report, reason, kappa)

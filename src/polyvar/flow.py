"""Area-constrained descent of length on closed discrete curves, with momentum.

Each step projects the length gradient onto the volume-preserving subspace
(orthogonal complement of the area gradient in configuration space), moves
the vertices, and restores the enclosed area exactly by a homothety about the
vertex centroid (area is quadratic under scaling, so the correct factor is
sqrt(target / current)).  The projection and the multiplier kappa are
variation's (project_volume_preserving, lagrange_kappa).

The step direction is d = P (g - lam u): g the projected gradient, u the area
gradient, lam the multiplier that makes <u, d> = 0 (so d preserves the area
to first order), and P the inverse of the second variation of the regular
polygon the curve's winding names: P = lambda_max |H_j|^-1 per harmonic j,
for the closed-form 2 x 2 blocks H_j of variation._regular_hessian_spectrum
(in each vertex's area-gradient, chord frame), lambda_max their largest
|eigenvalue|, and 0 on the three rigid motions that function marks: one FFT
of the frame components of g and u, a 2 x 2 product per harmonic, one
inverse FFT.  There every eigenvalue of P times the Hessian is +-lambda_max
but on the rigid motions; so the flow is Newton-like next to every regular
polygon, and the stiffest mode, hence the Newton step below, keeps its
size.  |H_j|, not H_j, as in saddle-free Newton (Dauphin et al., 2014): P
is positive, so <g, d> > 0 wherever Pg is not a multiple of Pu, and the
flow leaves the unstable stars along their negative modes.

The winding is w = sigma turning_number(curve), m = |w|; the off-diagonal
of H_j changes sign with w.  Far from the regular polygon, each |eigenvalue|
is floored at lambda_max / cap, with cap = max(csc^2(pi / n), 1 / delta^2)
rounded to a power of two and delta = (max l - min l) / mean l +
(max theta - min theta): a curve far from regular gets a step no more
aggressive than the chord scaling below, and one close to it the exact
inverse.  Where no regular polygon has the curve's winding (0 < 2m < n
fails), or the curve has a cusp or a non-integer turning, the direction
is g with its component along each vertex's chord p_{k+1} - p_{k-1} scaled
by cot^2(pi / n), the tangential-to-radial stiffness ratio of the regular
n-gon.

The plain step moves along -d, first by h0 = min(FlowConfig.step_size, L / (4n)),
L the current length: at the convex regular n-gon the stiffest |eigenvalue|
is 4 / l for even n (the zigzag harmonic j = n / 2) and within an eighth of
it for odd n, and P keeps it, so L / (4n) = l / 4 is the Newton step.  A
trial that collapses an edge or does not decrease the length enough is
retried with a halved step size.  run_flow adds momentum with adaptive
restart (O'Donoghue and Candes, "Adaptive restart for accelerated gradient
schemes", 2015): each step first tries x + k/(k+3) (x - x_prev) - h d with
the step size h the plain step last accepted, under the same area homothety
and the same length test; when that trial fails, k restarts at 0 and the
step is the plain one.  Near a regular polygon (the block inverse's cap
above the chord scaling's, i.e. delta < sin(pi / n)) with step_size not
clipping the Newton step, the plain Newton step is exact and momentum would
overshoot it: the step skips the momentum trial and restarts k.  So the
length falls at every step and the area is restored exactly.

_step is the one step, written on arrays: the points, their edges and their
lengths go in, and the accepted trial's come out.  flow_step and run_flow
share one start, _start: the closed curve's power of two e (curves._scale_of),
its points times 2^-e with their edges and lengths, and its own area, which
every step restores.  run_flow iterates _step and builds a curve only for
each snapshot; at convergence the last step's multiplier is kappa and the
last snapshot is classified as an equilibrium.  flow_step is its first step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import DiscreteCurve, _area, _at_scale, _chords, _dot, _edge_vectors, _norms, _scale_of, _signed_area
from .curves import _by_rows, _require_closed, _tangents, _turning_angles, _turning_number, rot90
from .errors import CuspPresent, NonIntegerTurning
from .variation import EquilibriumReport, _along, _kappa, _length_gradients, _names_regular_polygon
from .variation import _regular_hessian_spectrum, _volume_gradients, classify_equilibrium

MAX_HALVINGS = 20

# The block inverse floors |eigenvalue| at lambda_max 2^-cap_exp.  The smallest
# non-rigid |eigenvalue| of a regular polygon is lambda_max 2^-16.4 at n = 64
# and 2^-40.4 at n = 4096 (m = 1; it falls as n^-4), so at 2^-64 the floor
# bites on no polygon below about 200,000 vertices.
MAX_CAP_EXP = 64

# Tolerance handed to classify_equilibrium once the flow has converged.
CLASSIFY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FlowConfig:
    """step_size is the largest step the flow tries: each plain step starts at min(step_size, L / (4n)).

    The default step_size is no cap, so that every plain step starts at the
    Newton step L / (4n), which scales with the curve.
    """

    step_size: float = math.inf
    max_steps: int = 20000
    grad_tolerance: float = 1e-8
    record_every: int = 10

    def __post_init__(self):
        if not self.step_size > 0:  # NaN fails too
            raise ValueError("step_size must be positive")
        if not 0 < self.grad_tolerance < math.inf:
            raise ValueError("grad_tolerance must be finite and positive")
        for name, least in (("max_steps", 0), ("record_every", 1)):
            if operator.index(getattr(self, name)) < least:  # TypeError unless an integer
                raise ValueError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class FlowSnapshot:
    """The curve at a step, its length, its area (enclosed_volume) and its largest |g_k|."""

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
    trials: np.ndarray  # per step taken: the trial point sets evaluated
    step_sizes: np.ndarray  # per step taken: the accepted step size h
    report: EquilibriumReport | None = None
    reason: str | None = None
    kappa_estimate: float | None = None


def _accepted(trial: np.ndarray, sigma: int, target: float, bound: float):
    """(points, edges, lengths) of the trial points rescaled about their centroid to the target area.

    None if the trial's area is zero, of the wrong sign or not finite, if an
    edge vanishes, or if the length exceeds the bound, as a non-finite
    length does.
    """
    current = _signed_area(trial, sigma)
    if current == 0.0 or not target / current > 0:
        return None
    centroid = trial.sum(axis=0) / len(trial)
    points = centroid + math.sqrt(target / current) * (trial - centroid)
    edges = _edge_vectors(points, True)
    lengths = _norms(edges)  # a zero edge of the trial survives the homothety
    return (points, edges, lengths) if lengths.min() > 0 and lengths.sum() <= bound else None


def _along_chords(g: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """g_k + (alpha - 1) (g_k . c_k) c_k per vertex, c_k the unit vector normal to u_k; g_k where u_k = 0.

    With u the area gradient, c_k is the direction of the chord p_{k+1} - p_{k-1}.
    """
    norm = _norms(u)
    c = _by_rows(np.divide, rot90(u, 1), norm, out=np.zeros_like(u), where=norm > 0)
    return g + _by_rows(np.multiply, c, (alpha - 1.0) * _dot(g, c))


@lru_cache(maxsize=256)
def _block_inverse(n: int, w: int, cap_exp: int):
    """(alpha, beta, reversal) per harmonic j = 0 .. n-1: P applied to z = a + i c is ifft(alpha Z + beta conj(Z_{-j})).

    a and c are the components along each vertex's area gradient and chord,
    Z = fft(z), and conj(Z_{-j}) = conj(Z[reversal]); alpha and beta carry
    the 1 / n of the inverse transform.  P_j = lambda_max |H_j|^-1 for the
    blocks H_j = [[r, i b], [-i b, t]] of _regular_hessian_spectrum at
    m = |w|, with b negated where the winding w is negative: each eigenvalue
    mu gets the weight lambda_max / max(|mu|, lambda_max 2^-cap_exp), and its
    rigid motions 0.  With w_low, w_high the weights and mean, radius as
    there, P_j = (w_high + w_low) / 2 I + s (H_j - mean I),
    s = (w_high - w_low) / (2 radius), so alpha = (w_high + w_low) / 2 + s b
    and beta = s (r - t) / 2.
    """
    r, t, b, radius, eigenvalues, rigid = _regular_hessian_spectrum(n, abs(w))
    size = np.abs(eigenvalues)
    stiffest = size.max()
    weights = stiffest / np.maximum(size, math.ldexp(stiffest, -cap_exp))
    weights[rigid] = 0.0
    slope = 0.5 * (weights[1] - weights[0]) / radius
    alpha = 0.5 * (weights[1] + weights[0]) + math.copysign(1.0, w) * slope * b
    return alpha / n, slope * 0.5 * (r - t) / n, -np.arange(n) % n


def _along_blocks(
    g: np.ndarray, u: np.ndarray, lengths: np.ndarray, theta: np.ndarray, cusp: np.ndarray, sigma: int
) -> tuple[np.ndarray, bool] | None:
    """(P (g - lam u), near) with <u, P (g - lam u)> = 0, P the block inverse of the regular polygon of the curve's winding.

    lengths are the curve's edge lengths, and theta and cusp its turning
    angles and cusp mask, as curves._turning_angles gives them.

    P acts per harmonic on the components along n_k = u_k / |u_k| and
    c_k = rot90(n_k, +1), the frame of _block_inverse's blocks at the winding
    w = sigma turning_number; as complex numbers,
    g_k . n_k + i g_k . c_k = g_k conj(n_k).
    Its eigenvalues are floored at lambda_max / cap,
    cap = max(csc^2(pi / n), 1 / delta^2) rounded to a power of two,
    delta = (max l - min l) / mean l + (max theta - min theta); near says
    that the cap is above csc^2(pi / n), i.e. delta < sin(pi / n), where P
    is close enough to the exact inverse for the Newton step.  None where
    the curve has a cusp, a non-integer turning or a zero u_k, where no
    regular polygon has its winding, or where <u, P u> is not positive.
    """
    n = len(g)
    try:
        w = sigma * _turning_number(theta, cusp)
    except (CuspPresent, NonIntegerTurning):
        return None
    norm = _norms(u)
    if not _names_regular_polygon(n, abs(w)) or not norm.min() > 0:
        return None
    delta = (lengths.max() - lengths.min()) * n / lengths.sum() + (theta.max() - theta.min())
    cap_exp = chord_exp = round(-2 * math.log2(math.sin(math.pi / n)))
    if 0 < delta < 1:  # cap = 1 / delta^2; a NaN or infinite delta keeps csc^2(pi / n)
        cap_exp = min(max(cap_exp, round(-2 * math.log2(delta))), MAX_CAP_EXP)
    elif delta == 0:
        cap_exp = MAX_CAP_EXP
    alpha, beta, reversal = _block_inverse(n, w, cap_exp)
    normal = u.view(complex)[:, 0] / norm
    spectra = np.fft.fft(np.array([g.view(complex)[:, 0] * normal.conj(), norm]))
    pg, pu = np.fft.ifft(alpha * spectra + beta * spectra[:, reversal].conj(), norm="forward")
    u_pu = float(norm @ pu.real)
    if not u_pu > 0:
        return None
    lam = float(norm @ pg.real) / u_pu
    return ((pg - lam * pu) * normal).view(float).reshape(n, 2), cap_exp > chord_exp


def _trials(x: np.ndarray, d: np.ndarray, h0: float, momentum: dict | None):
    """(trial points, h, momentum count after acceptance), in the order _step tries them; h0 the first plain step."""
    if momentum:
        k, h = momentum["k"], momentum["h"]
        yield x + (k / (k + 3)) * (x - momentum["points"]) - h * d, h, k + 1
    h = h0
    for _ in range(MAX_HALVINGS + 1):
        yield x - h * d, h, 1  # a restart: this step is k = 0 of the new sequence
        h *= 0.5


def _step(x, edges, lengths, sigma, target, cap, tolerance, diameter, momentum):
    """One step from the points x of a closed curve and their edges and lengths: (c, gradnorm, h, trials, accepted).

    All at x's scale: target is the area, cap the step_size and diameter
    what ZeroVolumeGradient measures |u| against.  momentum is None for the
    plain step, or run_flow's dict, updated in place (start with {}): the
    previous "points", the count "k" since the last restart and the last
    accepted "h" (see the module docstring).  c is the coefficient of grad L along u = gradVol, so kappa
    is -c; gradnorm is max |g_k|.  accepted is the (points, edges, lengths)
    of the accepted trial and h its step size, both None where gradnorm is
    below tolerance or no trial is accepted.
    """
    tangents = _tangents(edges, lengths)
    gradient = _length_gradients(tangents, True)
    u = _volume_gradients(_chords(x, True), sigma)
    c = _along(gradient, u, diameter)
    g = gradient - c * u
    gradnorm = float(_norms(g).max())
    if gradnorm < tolerance:
        return c, gradnorm, None, 0, None
    n, length = len(x), float(lengths.sum())
    blocks = _along_blocks(g, u, lengths, *_turning_angles(tangents, sigma, True)[:2], sigma)
    d, near = blocks or (_along_chords(g, u, 1.0 / math.tan(math.pi / n) ** 2), False)
    slope = float((g * d).sum())
    roundoff = 1e-14 * length
    newton = length / (4 * n)
    # near a regular polygon the plain Newton step is exact and momentum would overshoot it
    exact = near and cap >= newton
    # expected first-order decrease is h <g, d>; demand a tenth of it,
    # up to the round-off resolution of the length itself
    for trials, (trial, h, k) in enumerate(_trials(x, d, min(cap, newton), None if exact else momentum), 1):
        accepted = _accepted(trial, sigma, target, length - 0.1 * h * slope + roundoff)
        if accepted is not None:
            if momentum is not None:
                momentum.update(points=x, k=k, h=h)
            return c, gradnorm, h, trials, accepted
    return c, gradnorm, None, trials, None


def _start(curve: DiscreteCurve, step_size: float):
    """(e, x, edges, lengths, target, cap, diameter) at x = points 2^-e, e the closed curve's power of two.

    target is the curve's own area and cap the step_size, at x's scale; under the flow's errstate.
    """
    _require_closed(curve, "the constrained flow")
    diameter, e = _scale_of(curve.points)
    x, edges, lengths = _at_scale(curve.points, True, e)
    return e, x, edges, lengths, _signed_area(x, curve.sigma), float(np.ldexp(step_size, -e)), diameter


def flow_step(curve: DiscreteCurve, config: FlowConfig):
    """run_flow's first step on a curve (see the module docstring); returns (new_curve, diagnostics dict).

    The step is x - h d from h = min(config.step_size, L / (4n)), backtracked
    (up to 20 halvings) if it produces a zero edge, flips the enclosed area,
    or does not decrease the length by a tenth of h <g, d>, up to a round-off
    slack of 1e-14 L, and restores the curve's own area.  diagnostics carries
    the curve's length and volume, the pre-step max |g_k| that the
    convergence test reads, the accepted step size (None if converged or no
    acceptable step exists) and the number of trial point sets evaluated,
    "trials".
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as in run_flow
        e, x, edges, lengths, target, cap, diameter = _start(curve, config.step_size)
        _, gradnorm, h, trials, accepted = _step(
            x, edges, lengths, curve.sigma, target, cap, config.grad_tolerance, diameter, None
        )
        length, volume = float(np.ldexp(lengths.sum(), e)), float(np.ldexp(target, 2 * e))
    diagnostics = {"max_projected_gradient": gradnorm, "length": length, "volume": volume}
    diagnostics.update(step_size_used=None if h is None else math.ldexp(h, e), trials=trials)
    if accepted is None:
        return curve, diagnostics
    return curve.with_points(np.ldexp(accepted[0], e)), diagnostics


def run_flow(curve: DiscreteCurve, config: FlowConfig = FlowConfig()) -> FlowTrajectory:
    """Iterate the flow step, with momentum, until the projected gradient falls below tolerance.

    Each step starts at min(config.step_size, L / (4n)), the regular polygon's
    Newton step, and tries momentum first except near a regular polygon,
    where that Newton step is exact; the steps run at the starting curve's
    own power of two (see the module docstring).  Convergence hands the last
    snapshot to classify_equilibrium with the last step's multiplier,
    lagrange_kappa to the bit; a step with no acceptable size degenerates the run.
    """
    snapshots: list[FlowSnapshot] = []
    sigma, trials, step_sizes, momentum = curve.sigma, [], [], {}
    # an overflowing trial step fails the area test; its numpy warnings would only reach stderr
    with np.errstate(over="ignore", invalid="ignore"):
        e, x, edges, lengths, target, cap, diameter = _start(curve, config.step_size)
        for step in range(config.max_steps + 1):
            c, gradnorm, h, count, accepted = _step(
                x, edges, lengths, sigma, target, cap, config.grad_tolerance, diameter, momentum
            )
            done = accepted is None or step == config.max_steps  # None: converged or degenerated
            if done or step % config.record_every == 0:
                length, volume = float(np.ldexp(lengths.sum(), e)), _area(x, sigma, e)
                snapshots.append(FlowSnapshot(step, curve.with_points(np.ldexp(x, e)), length, volume, gradnorm))
            if done:
                break
            x, edges, lengths = accepted
            trials.append(count)
            step_sizes.append(h)

    verdict, report, reason, kappa = "max_steps", None, None, None
    if gradnorm < config.grad_tolerance:
        verdict = "converged"
        kappa = _kappa(c, e)
        report = classify_equilibrium(snapshots[-1].curve, kappa, tol=CLASSIFY_TOLERANCE)
    elif accepted is None:
        verdict = "degenerated"
        reason = f"no acceptable step at step {step} (gradient {gradnorm:.3e})"
    return FlowTrajectory(
        snapshots, verdict, step, np.array(trials, dtype=int), np.ldexp(step_sizes, e), report, reason, kappa
    )

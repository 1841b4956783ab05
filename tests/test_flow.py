import hashlib
import warnings

import numpy as np
import pytest

import polyvar.flow
from polyvar import (
    DiscreteCurve,
    FlowConfig,
    edge_lengths,
    enclosed_volume,
    first_variation,
    flow_step,
    harmonic_field,
    lagrange_kappa,
    length_gradients,
    make_curve,
    project_volume_preserving,
    reconstruct_field,
    regular_polygon,
    run_flow,
    total_length,
    turning_angles,
    volume_gradients,
)
from polyvar.errors import OpenCurve, ZeroVolumeGradient
from polyvar.flow import _along_blocks, _along_chords, _start, _step
from polyvar.variation import _regular_hessian_spectrum, _scaled_volume_gradients

from helpers import random_star_polygon

SQRT2 = np.sqrt(2.0)


def test_project_idempotent_and_annihilating(sq, rng):
    v = rng.normal(size=(4, 2))
    w = project_volume_preserving(sq, v)
    assert abs(first_variation(sq, w, "volume")) < 1e-12
    assert np.max(np.abs(project_volume_preserving(sq, w) - w)) < 1e-13
    gv = volume_gradients(sq)
    assert np.max(np.abs(project_volume_preserving(sq, gv))) < 1e-13


def test_project_random_curves(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)))
        w = project_volume_preserving(curve, rng.normal(size=(curve.n, 2)))
        assert abs(first_variation(curve, w, "volume")) < 1e-12


def test_project_zero_volume_gradient():
    # a doubly-traversed segment has p_{k+1} = p_{k-1} at every vertex
    flat = make_curve([(0, 0), (1, 0), (0, 0), (1, 0.0)])
    with pytest.raises(ZeroVolumeGradient):
        project_volume_preserving(flat, np.ones((4, 2)))
    with pytest.raises(ZeroVolumeGradient):
        lagrange_kappa(flat)
    # opened by 1e-17 of its diameter, every chord is still below the relative floor
    nearly_flat = make_curve([(0, 0), (1, 0), (0, 1e-17), (1, 1e-17)])
    with pytest.raises(ZeroVolumeGradient):
        project_volume_preserving(nearly_flat, np.ones((4, 2)))
    tiny = make_curve([(0, 0), (1e-308, 0), (1e-308, 1e-308), (0, 1e-308)])  # kappa = -2e308
    with pytest.raises(ZeroVolumeGradient, match="overflows"):
        lagrange_kappa(tiny)


@pytest.mark.parametrize("side", [1e-300, 1e-15, 1e-6, 1.0, 1e6, 1e200])
def test_lagrange_kappa_square_any_scale(side):
    # A_k = (nu_k - nu_{k-1}) + (kappa/2) chord_k vanishes: sqrt(2) = (kappa/2) sqrt(2) side
    square = make_curve([(0, 0), (side, 0), (side, side), (0, side)])
    assert lagrange_kappa(square) == pytest.approx(-2.0 / side, rel=1e-14)
    # |gradVol|^2 underflows at 1e-300 and overflows at 1e200; the projection does not
    v = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    unit = make_curve([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.allclose(project_volume_preserving(square, v), project_volume_preserving(unit, v), atol=1e-15)


def test_flow_step_fixed_at_equilibrium(sq, pent52):
    for poly in (sq, pent52):  # convex and star equilibria alike are fixed
        g = project_volume_preserving(poly, length_gradients(poly))
        assert np.max(np.abs(g)) < 1e-12
        new_curve, diag = flow_step(poly, FlowConfig())
        assert diag["step_size_used"] is None
        assert np.allclose(new_curve.points, poly.points)


def test_flow_step_rectangle_descends():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    new_curve, diag = flow_step(rect, FlowConfig(step_size=0.01))
    assert total_length(new_curve) < total_length(rect)
    assert enclosed_volume(new_curve) == pytest.approx(2.0, abs=1e-10)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(step_size=0.0)
    for field, values in (("step_size", (-1.0, np.nan)), ("grad_tolerance", (-1.0, np.nan, np.inf))):
        for value in values:
            with pytest.raises(ValueError, match=field):
                FlowConfig(**{field: value})
    assert FlowConfig().step_size == FlowConfig(step_size=np.inf).step_size == np.inf  # no cap
    with pytest.raises(ValueError, match="max_steps"):
        FlowConfig(max_steps=-1)
    with pytest.raises(ValueError, match="record_every"):
        FlowConfig(record_every=0)
    with pytest.raises(TypeError):
        FlowConfig(max_steps=2.5)
    assert FlowConfig(max_steps=0, record_every=np.int64(1)).max_steps == 0


def test_accepted_flow_step_builds_one_curve(monkeypatch):
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    config = FlowConfig(step_size=0.01)
    built = []
    post_init = DiscreteCurve.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DiscreteCurve, "__post_init__", counted)
    new_curve, diag = flow_step(rect, config)
    assert diag["step_size_used"] == config.step_size  # the first trial was accepted
    assert built == [new_curve]


def test_run_flow_zero_steps():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    trajectory = run_flow(rect, FlowConfig(max_steps=0))
    assert trajectory.verdict == "max_steps"
    assert trajectory.steps_taken == 0
    assert [snap.step for snap in trajectory.snapshots] == [0]
    assert np.array_equal(trajectory.snapshots[0].curve.points, rect.points)


def test_run_flow_degenerates_without_an_acceptable_step(monkeypatch):
    monkeypatch.setattr(polyvar.flow, "_accepted", lambda *args: None)
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    trajectory = run_flow(rect, FlowConfig())
    assert trajectory.verdict == "degenerated"
    assert trajectory.reason.startswith("no acceptable step at step 0")
    assert trajectory.report is None and trajectory.kappa_estimate is None
    assert trajectory.steps_taken == 0 and [snap.step for snap in trajectory.snapshots] == [0]


def test_run_flow_square_converges_immediately(sq):
    trajectory = run_flow(sq, FlowConfig())
    assert trajectory.verdict == "converged"
    assert trajectory.steps_taken <= 1
    assert trajectory.report.is_equilibrium
    assert trajectory.kappa_estimate == pytest.approx(-SQRT2, abs=1e-12)


def test_run_flow_convex_pentagon_reaches_regular(rng):
    # random convex pentagon with the area of the unit regular pentagon
    target = enclosed_volume(regular_polygon(5, 1, 1.0))
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=5))
    while np.min(np.diff(np.append(angles, angles[0] + 2 * np.pi))) < 0.4:
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=5))
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    curve = make_curve(pts * np.sqrt(target / enclosed_volume(make_curve(pts))))
    assert enclosed_volume(curve) == pytest.approx(target, rel=1e-12)

    trajectory = run_flow(curve, FlowConfig(step_size=0.2, grad_tolerance=1e-9))
    assert trajectory.verdict == "converged"
    # snapshots are fresh curves, so a long run keeps the cached arrays of the last one only, which it classified
    assert all("edge_lengths" not in vars(snap.curve) for snap in trajectory.snapshots[:-1])
    final = trajectory.snapshots[-1].curve
    lens = edge_lengths(final)
    thetas = turning_angles(final)
    assert lens.max() - lens.min() < 1e-6
    assert thetas.max() - thetas.min() < 1e-6
    assert trajectory.report.winding == -1


def test_run_flow_descent_and_volume_invariants(rng):
    hexa = regular_polygon(6, 1, 1.0)
    pts = hexa.points + rng.normal(size=(6, 2)) * 0.05
    curve = make_curve(pts)
    v0 = enclosed_volume(curve)
    trajectory = run_flow(curve, FlowConfig(step_size=0.2, record_every=1))
    lengths = [snap.length for snap in trajectory.snapshots]
    for previous, current in zip(lengths, lengths[1:]):
        assert current <= previous * (1.0 + 1e-12)
    for snap in trajectory.snapshots:
        assert abs(snap.volume - v0) <= 1e-8 * abs(v0)
    assert trajectory.verdict == "converged"


def test_run_flow_clockwise_orientation(rng):
    # reversed vertex order flips the area sign; the flow is orientation-agnostic
    hexa = regular_polygon(6, 1, 1.0)
    pts = (hexa.points + rng.normal(size=(6, 2)) * 0.02)[::-1]
    curve = make_curve(pts)
    v0 = enclosed_volume(curve)
    assert v0 < 0
    trajectory = run_flow(curve, FlowConfig(step_size=0.2))
    assert trajectory.verdict == "converged"
    assert trajectory.report.is_equilibrium
    assert trajectory.report.winding == 1
    assert trajectory.kappa_estimate == pytest.approx(
        1.0 / (trajectory.report.l0 * np.cos(np.pi / 6)), rel=1e-6
    )
    assert abs(trajectory.snapshots[-1].volume - v0) < 1e-8 * abs(v0)


def test_run_flow_kappa_recovery(rng):
    hexa = regular_polygon(6, 1, 1.0)
    curve = make_curve(hexa.points + rng.normal(size=(6, 2)) * 0.02)
    config = FlowConfig(step_size=0.2, grad_tolerance=1e-8)
    trajectory = run_flow(curve, config)
    assert trajectory.verdict == "converged"
    a_fit = trajectory.report.l0 / (2 * np.sin(np.pi / 6))
    expected = -1.0 / (a_fit * np.cos(np.pi / 6))
    assert abs(trajectory.kappa_estimate - expected) < 10 * config.grad_tolerance


def test_pentagram_instability_witness():
    # push the pentagram along its negative mode: the projected gradient grows
    pent = regular_polygon(5, 2, 1.0)
    v = reconstruct_field(pent, harmonic_field(5, 1))
    curve = make_curve(pent.points + 1e-3 * v)
    config = FlowConfig(step_size=0.05, max_steps=100, record_every=1)
    trajectory = run_flow(curve, config)
    grads = [snap.max_projected_gradient for snap in trajectory.snapshots]
    assert max(grads) > 10 * grads[0]


def test_perturbed_pentagram_never_returns(rng):
    # observation per the instability theorem: the flow leaves G^{2,5}
    pent = regular_polygon(5, 2, 1.0)
    pent_l0 = float(edge_lengths(pent).mean())
    for _ in range(10):
        curve = make_curve(pent.points + rng.normal(size=(5, 2)) * 1e-3)
        trajectory = run_flow(curve, FlowConfig(step_size=0.05, max_steps=3000))
        if trajectory.verdict == "converged":
            report = trajectory.report
            came_back = report.winding == -2 and abs(report.l0 - pent_l0) < 1e-3
            assert not came_back
        else:
            assert trajectory.verdict in ("max_steps", "degenerated")


def test_lagrange_kappa_on_regular_polygons():
    for n, m, a in [(4, 1, 1.0), (5, 2, 1.0), (7, 3, 2.0)]:
        poly = regular_polygon(n, m, a)
        assert lagrange_kappa(poly) == pytest.approx(-1 / (a * np.cos(m * np.pi / n)), rel=1e-12)


def test_flow_rejects_open_curve():
    with pytest.raises(OpenCurve, match="the constrained flow requires a closed curve"):
        run_flow(make_curve([(0, 0), (1, 0), (1, 1)], closed=False), FlowConfig())


def test_flow_step_rejects_open_curve():
    with pytest.raises(OpenCurve, match="the constrained flow requires a closed curve"):
        flow_step(make_curve([(0, 0), (1, 0), (1, 1)], closed=False), FlowConfig())


def _perturbed_octagon(i, sigma=-1):
    """Instance i of the benchmark's n = 8 flows (seed 0)."""
    rng = np.random.default_rng([0, 8, i])
    return make_curve(regular_polygon(8).points + 0.05 * rng.standard_normal((8, 2)) / 8, sigma=sigma)


def test_run_flow_step_counts_pinned():
    # any change to the arithmetic of a step or to the momentum rule moves these counts
    runs = [run_flow(_perturbed_octagon(i), FlowConfig(step_size=0.2)) for i in range(5)]
    assert [t.verdict for t in runs] == ["converged"] * 5
    assert [t.steps_taken for t in runs] == [3, 3, 3, 3, 3]


def test_plain_flow_step_counts_pinned():
    """flow_step without momentum is plain backtracked descent along the block-preconditioned direction, the restart step of run_flow."""
    config = FlowConfig(step_size=0.2)
    counts = []
    for i in range(5):
        curve = _perturbed_octagon(i)
        for step in range(1000):
            curve, diag = flow_step(curve, config)
            if diag["step_size_used"] is None:
                break
        assert diag["max_projected_gradient"] < config.grad_tolerance
        counts.append(step)
    assert counts == [3, 3, 3, 3, 3]


def test_flow_step_momentum_state():
    """Each step either extends the momentum count or restarts it with exactly the plain step."""
    # far enough from the regular 16-gon that none of its first 10 steps is a Newton step
    # (delta >= sin^2(pi / 16)), so each tries momentum: they restart twice, then extend
    rng = np.random.default_rng([1, 16, 3])
    curve = make_curve(regular_polygon(16).points + 1.0 * rng.standard_normal((16, 2)) / 16)
    config = FlowConfig(step_size=0.2)
    _, x, edges, lengths, target, cap, diameter = _start(curve, config.step_size)  # one scale for all steps
    args = (curve.sigma, target, cap, config.grad_tolerance, diameter)
    momentum, kinds = {}, []
    for _ in range(10):
        plain = _step(x, edges, lengths, *args, None)
        k = momentum.get("k")
        c, gradnorm, h, trials, accepted = _step(x, edges, lengths, *args, momentum)
        assert momentum["points"] is x
        assert accepted[2].sum() < lengths.sum()
        if momentum["k"] == 1:  # a restart, the first step included
            # the same step as the plain one, after the failed momentum trial (none on the first step)
            assert np.array_equal(accepted[0], plain[4][0])
            assert (c, gradnorm, h, trials) == (*plain[:3], plain[3] + (k is not None))
            assert momentum["h"] == h
            kinds.append("restart")
        else:
            assert momentum["k"] == k + 1 and h == momentum["h"]
            kinds.append("momentum")
        x, edges, lengths = accepted
    assert kinds[:3] == ["restart", "restart", "momentum"] and "momentum" in kinds[3:]


def test_run_flow_large_step_converges():
    """h = 0.4 on an octagon: plain descent cycles for 100,000 steps; the restart does not."""
    rng = np.random.default_rng(1)
    curve = make_curve(regular_polygon(8).points + 0.05 * rng.standard_normal((8, 2)) / 8)
    trajectory = run_flow(curve, FlowConfig(step_size=0.4, max_steps=2000))
    assert trajectory.verdict == "converged"
    assert trajectory.report.is_equilibrium


def _assert_regular_limit(trajectory, n):
    """The bounds of acceptance criterion 9 on a converged flow."""
    assert trajectory.verdict == "converged"
    assert trajectory.report.is_equilibrium
    a_fit = trajectory.report.l0 / (2 * np.sin(np.pi / n))
    assert abs(trajectory.kappa_estimate + 1 / (a_fit * np.cos(np.pi / n))) < 1e-4


@pytest.mark.parametrize("n, seed, step_size", [(48, 0, 0.05), (64, [0, 64, 0], 0.2)])
def test_run_flow_classifies_large_n(n, seed, step_size):
    """The converged edge spread exceeds a fixed 10 tol at n = 48 and 64, but not the conditioning's slack.

    n = 64 with seed [0, 64, 0] is a benchmark instance.
    """
    rng = np.random.default_rng(seed)
    curve = make_curve(regular_polygon(n).points + 0.05 * rng.standard_normal((n, 2)) / n)
    _assert_regular_limit(run_flow(curve, FlowConfig(step_size=step_size, max_steps=20000)), n)


def test_projection_scaled_bit_for_bit(rng):
    """The power-of-two scaling of gradVol changes no bit of the projection or of kappa."""
    for _ in range(200):
        n = int(rng.integers(3, 40))
        scale = 10.0 ** rng.uniform(-12, 12)
        curve = make_curve(random_star_polygon(rng, n).points * scale, sigma=int(rng.choice([-1, 1])))
        v = rng.normal(size=(n, 2))
        gv = volume_gradients(curve)
        expected = v - float((v * gv).sum()) / float((gv * gv).sum()) * gv
        assert project_volume_preserving(curve, v).tobytes() == expected.tobytes()
        g = length_gradients(curve)
        assert lagrange_kappa(curve) == -(float((g * gv).sum()) / float((gv * gv).sum()))


def test_run_flow_sigma_mirror():
    """Flipping sigma negates the area and its gradient, and moves no vertex by a bit."""
    for i in range(2):
        down, up = (run_flow(_perturbed_octagon(i, sigma), FlowConfig(step_size=0.2)) for sigma in (-1, 1))
        assert down.verdict == up.verdict == "converged"
        assert down.steps_taken == up.steps_taken
        assert down.kappa_estimate == -up.kappa_estimate
        for a, b in zip(down.snapshots, up.snapshots, strict=True):
            assert a.step == b.step
            assert np.array_equal(a.curve.points, b.curve.points)
            assert a.length == b.length and a.volume == -b.volume != 0
            assert a.max_projected_gradient == b.max_projected_gradient


def test_chord_preconditioned_direction(rng):
    """d keeps g's component along the area gradient and scales its chord component by alpha."""
    for _ in range(200):
        n = int(rng.integers(3, 40))
        sigma = int(rng.choice([-1, 1]))
        curve = make_curve(random_star_polygon(rng, n).points * 10.0 ** rng.uniform(-6, 6), sigma=sigma)
        g = project_volume_preserving(curve, length_gradients(curve))
        u, _ = _scaled_volume_gradients(curve)
        alpha = 1.0 / np.tan(np.pi / n) ** 2
        d = _along_chords(g, u, alpha)
        unit_u = u / np.hypot(u[:, 0], u[:, 1])[:, None]
        unit_c = unit_u[:, ::-1] * [-1.0, 1.0]  # along the chord p_{k+1} - p_{k-1}
        atol = 1e-14 * max(1.0, alpha) * np.abs(g).max()
        assert np.allclose((d * unit_u).sum(axis=1), (g * unit_u).sum(axis=1), rtol=0, atol=atol)
        assert np.allclose((d * unit_c).sum(axis=1), alpha * (g * unit_c).sum(axis=1), rtol=0, atol=atol)
        # first-order area preserving, and a descent direction: <g, d> >= min(1, alpha) |g|^2
        gv = volume_gradients(curve)
        assert abs(float((d * gv).sum())) <= 10 * n * atol * np.abs(gv).max()
        g_sq = float((g * g).sum())
        assert float((g * d).sum()) >= min(1.0, alpha) * g_sq * (1 - 1e-12)
        if n >= 4:
            assert float((g * d).sum()) >= g_sq * (1 - 1e-12)


def test_chord_preconditioning_skips_a_zero_area_gradient():
    g = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
    u = np.array([[0.0, 0.5], [0.0, 0.0], [0.3, 0.0]])
    d = _along_chords(g, u, 4.0)
    assert d.tolist() == [[4.0, 2.0], [3.0, -1.0], [0.5, 1.0]]


def _blocks(curve, g, u):
    """_along_blocks on the curve's own edge lengths, turning angles and cusp mask."""
    return _along_blocks(g, u, curve.edge_lengths, *curve._snapped_angles[:2], curve.sigma)


def _preconditioned_blocks(n, alpha):
    """|eigenvalues| over j = 1..n-1 of the regular n-gon's (radial, tangential) blocks, tangential scaled by alpha.

    Scaling the tangential row and column of [[r, i b], [-i b, t]] by sqrt(alpha)
    gives [[r, i sqrt(alpha) b], [-i sqrt(alpha) b, alpha t]].  The two
    translations (j = 1 and n - 1) are dropped.
    """
    r, t, b = (part[1:] for part in _regular_hessian_spectrum(n, 1)[:3])
    mean = 0.5 * (r + alpha * t)
    radius = np.hypot(0.5 * (r - alpha * t), np.sqrt(alpha) * b)
    return np.sort(np.abs(np.concatenate([mean - radius, mean + radius])))[2:]


def test_chord_preconditioning_conditions_the_regular_polygon():
    """kappa of the preconditioned blocks is csc^2(pi/n) for even n, and not above it for odd n."""
    unscaled = _preconditioned_blocks(64, 1.0)
    assert unscaled[-1] / unscaled[0] == pytest.approx(86256, abs=1)
    for n in range(5, 4097):
        alpha = 1.0 / np.tan(np.pi / n) ** 2
        eigenvalues = _preconditioned_blocks(n, alpha)
        kappa, bound = eigenvalues[-1] / eigenvalues[0], 1.0 / np.sin(np.pi / n) ** 2
        stiffest = _preconditioned_blocks(n, 1.0)[-1]  # step_size keeps its meaning
        if n % 2 == 0:
            assert kappa == pytest.approx(bound, rel=1e-9)
            assert eigenvalues[-1] == pytest.approx(stiffest, rel=1e-12)
        else:
            assert kappa <= bound * (1 + 1e-9)
            assert stiffest <= eigenvalues[-1] < 1.03 * stiffest


def test_run_flow_benchmark_instance_n256():
    """Benchmark instance (256, 0) took 12,918 steps with the unpreconditioned step."""
    n = 256
    rng = np.random.default_rng([0, n, 0])
    curve = make_curve(regular_polygon(n).points + 0.05 * rng.standard_normal((n, 2)) / n)
    volume0 = enclosed_volume(curve)
    trajectory = run_flow(curve, FlowConfig(step_size=0.2, max_steps=2000))
    _assert_regular_limit(trajectory, n)
    assert all(abs(snap.volume - volume0) < 1e-8 * abs(volume0) for snap in trajectory.snapshots)


def test_run_flow_benchmark_instances_n4096():
    """Instances (4096, 1) and (4096, 2) degenerated within two steps when every step first tried step_size = 0.2.

    Once the first step leaves the curve rough, twenty halvings of 0.2 end at 1.9e-7, still
    too long a step; twenty halvings of the Newton step L / (4n) = 3.8e-4 reach 3.7e-10.
    """
    n = 4096
    for i in (1, 2):
        rng = np.random.default_rng([0, n, i])
        curve = make_curve(regular_polygon(n).points + 0.05 * rng.standard_normal((n, 2)) / n)
        volume0 = enclosed_volume(curve)
        trajectory = run_flow(curve, FlowConfig(step_size=0.2, max_steps=1000))
        _assert_regular_limit(trajectory, n)
        assert all(abs(snap.volume - volume0) < 1e-8 * abs(volume0) for snap in trajectory.snapshots)


def test_run_flow_scale_covariant_below_unit_size():
    """The flow runs at the curve's own power of two: one step count from 1e-300 to 1.7e308.

    The first trial L / (4n) and the round-off slack 1e-14 L scale with the
    curve, and the areas are taken on the points times 2^-e, so they neither
    underflow (below about 1e-162) nor overflow (above about 1e154); from
    1e308 the diameter overflows, but not e.  The default step_size caps no
    step, so above unit size the Newton step is not clipped either.
    pyproject.toml turns a RuntimeWarning into a test failure.
    """
    rng = np.random.default_rng(0)
    points = regular_polygon(7).points + 0.05 * rng.standard_normal((7, 2)) / 7
    steps = set()
    scales = (1e-300, 1e-162, 1e-100, 1e-12, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e100, 1e150, 1e154, 1e300, 1e308, 1.7e308)
    for scale in scales:
        curve = make_curve(points * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory = run_flow(curve, FlowConfig(max_steps=3000))
        assert trajectory.verdict == "converged" and trajectory.report.is_equilibrium
        steps.add(trajectory.steps_taken)
        assert trajectory.kappa_estimate == lagrange_kappa(trajectory.snapshots[-1].curve)
        assert trajectory.snapshots[0].volume == enclosed_volume(curve)
        assert trajectory.snapshots[0].length == total_length(curve)  # inf from 1e308, with no warning
    assert steps == {6}


def test_run_flow_edges_beyond_float_range():
    """Finite points whose edges overflow: kappa and the flow are taken at the curve's power of two, and l0 is inf."""
    points = np.array([(-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)])
    wide = make_curve(points)
    unit_kappa = lagrange_kappa(make_curve(np.ldexp(points, -1024)))
    assert lagrange_kappa(wide) == pytest.approx(np.ldexp(unit_kappa, -1024), rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = run_flow(wide)
    assert trajectory.verdict == "converged" and trajectory.steps_taken == 10
    assert trajectory.report.is_equilibrium and trajectory.report.l0 == np.inf


def test_run_flow_near_regular_takes_one_trial_per_step():
    """On the benchmark instances every step is the plain Newton step, accepted at its first trial."""
    for n in (8, 16, 32, 64):
        for i in range(3):
            rng = np.random.default_rng([0, n, i])
            curve = make_curve(regular_polygon(n).points + 0.05 * rng.standard_normal((n, 2)) / n)
            trajectory = run_flow(curve, FlowConfig(step_size=0.2))
            assert trajectory.verdict == "converged"
            assert trajectory.trials.tolist() == [1] * trajectory.steps_taken


def test_flow_step_replays_run_flow():
    """flow_step takes run_flow's first step bit for bit, in the caller's units."""
    curve = make_curve(dict(_far_from_regular())["(9, 4)/0"])
    config = FlowConfig(step_size=0.2)
    trajectory = run_flow(curve, FlowConfig(step_size=0.2, max_steps=1))
    new, diag = flow_step(curve, config)
    assert np.array_equal(new.points, trajectory.snapshots[-1].curve.points)
    assert [diag["trials"]] == trajectory.trials.tolist()
    assert [diag["step_size_used"]] == trajectory.step_sizes.tolist()


def test_run_flow_leaves_the_input_bare():
    curve = _perturbed_octagon(0)
    run_flow(curve, FlowConfig(step_size=0.2))
    flow_step(curve, FlowConfig(step_size=0.2))
    assert sorted(vars(curve)) == ["closed", "points", "sigma"]


def test_run_flow_builds_curves_only_for_snapshots(monkeypatch):
    """The steps run on arrays; a curve is built for each snapshot, and the last one is classified."""
    points = dict(_far_from_regular())["16/0.3/1"]
    curve = make_curve(points)
    built = []
    post_init = DiscreteCurve.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DiscreteCurve, "__post_init__", counted)
    trajectory = run_flow(curve, FlowConfig(step_size=0.2))
    assert trajectory.verdict == "converged" and len(trajectory.snapshots) == 13  # 116 steps
    assert built == [snap.curve for snap in trajectory.snapshots]


def _hessian(curve, kappa):
    """Central differences of grad L + kappa grad Vol over all 2n vertex coordinates."""
    x, eps = curve.points.ravel(), 1e-6 * curve.diameter()

    def gradient(y):
        moved = curve.with_points(y.reshape(-1, 2))
        return (length_gradients(moved) + kappa * volume_gradients(moved)).ravel()

    columns = []
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = eps
        columns.append((gradient(x + step) - gradient(x - step)) / (2 * eps))
    hessian = np.column_stack(columns)
    return 0.5 * (hessian + hessian.T)


@pytest.mark.parametrize("n, m", [(5, 2), (7, 3), (8, 1), (9, 2), (16, 1)])
@pytest.mark.parametrize("sigma", [-1, 1])
@pytest.mark.parametrize("reverse", [False, True])
def test_block_preconditioner_inverts_the_regular_hessian(n, m, sigma, reverse):
    """At the regular (n, m) polygon, the map g -> d times the Hessian has eigenvalues 0 and +-lambda_max / a.

    d = P (g - lam u) is linear in g; P = lambda_max |H|^-1 leaves the three
    rigid motions at 0 and every other mode at +-lambda_max / a (a the
    radius), and the multiplier removes the area mode u.  The sign is - on
    the star's unstable modes.
    """
    a = 1.7
    curve = regular_polygon(n, m, a, sigma=sigma)
    if reverse:
        curve = curve.with_points(curve.points[::-1])
    hessian = _hessian(curve, lagrange_kappa(curve))
    u, _ = _scaled_volume_gradients(curve)
    unit = np.eye(2 * n)
    columns = [_blocks(curve, unit[i].reshape(n, 2), u) for i in range(2 * n)]
    assert all(near for _, near in columns)  # delta = 0
    step_map = np.column_stack([d.ravel() for d, _ in columns])
    assert np.allclose(step_map, step_map.T, rtol=0, atol=1e-12 * np.abs(step_map).max())
    low, high = _regular_hessian_spectrum(n, m)[4]
    stiffest = max(np.abs(low).max(), np.abs(high).max()) / a
    eigenvalues = np.sort(np.linalg.eigvals(step_map @ hessian).real)
    nonzero = eigenvalues[np.abs(eigenvalues) > 0.5 * stiffest]
    assert len(nonzero) == 2 * n - 4  # three rigid motions and the area mode
    assert np.allclose(np.abs(nonzero), stiffest, rtol=1e-6)
    # unstable modes: the Hessian's negative eigenvalues other than the area mode's
    unstable = int((np.linalg.eigvalsh(hessian) < -1e-6 * stiffest).sum()) - 1
    assert int((nonzero < 0).sum()) == unstable
    assert (unstable > 0) == (m > 1)


def test_block_preconditioned_direction(rng):
    """d = P (g - lam u) preserves the area to first order and descends, on any winding."""
    used = 0
    for i in range(200):
        sigma = int(rng.choice([-1, 1]))
        if i % 2:
            curve = random_star_polygon(rng, int(rng.integers(3, 40)), sigma=sigma)
        else:
            n = int(rng.integers(5, 30))
            m = int(rng.integers(1, (n - 1) // 2 + 1))
            points = regular_polygon(n, m).points
            curve = make_curve(points + 0.02 * rng.standard_normal(points.shape), sigma=sigma)
        if rng.random() < 0.5:
            curve = curve.with_points(curve.points[::-1])
        g = project_volume_preserving(curve, length_gradients(curve))
        u, _ = _scaled_volume_gradients(curve)
        blocks = _blocks(curve, g, u)
        if blocks is None:
            continue
        d, _ = blocks
        used += 1
        assert abs(float((d * u).sum())) <= 1e-12 * np.abs(d).max() * np.abs(u).sum()
        assert float((g * d).sum()) > 0
    assert used > 150


def test_block_preconditioner_falls_back_without_a_regular_winding():
    """A turning number 0 names no regular polygon, and a cusp no turning number: the chord step stands in."""
    bowtie = make_curve([(0, 0), (1, 1), (1, 0), (0, 1)])
    cusp = make_curve([(0, 0), (2, 0), (1, 0), (1, 1)])
    for curve in (bowtie, cusp):
        g = project_volume_preserving(curve, length_gradients(curve))
        u, _ = _scaled_volume_gradients(curve)
        assert _blocks(curve, g, u) is None


def _far_from_regular():
    """(name, points) of curves far from any regular polygon, drawn from one generator.

    Radii 1 + noise U(-1, 1) with angles 2 pi k / n + noise U(-1, 1) pi / n
    (noise 0.1) or sorted U(0, 2 pi) (noise 0.3), three of each for six n;
    then the stars (5, 2), (7, 2), (7, 3) and (9, 4), twice each, moved by
    0.02 N(0, 1).
    """
    rng = np.random.default_rng(7)
    curves = []
    for n in (6, 8, 12, 16, 32, 64):
        for noise in (0.1, 0.3):
            for i in range(3):
                radii = 1 + noise * rng.uniform(-1, 1, n)
                if noise == 0.1:
                    angles = 2 * np.pi * np.arange(n) / n + noise * rng.uniform(-1, 1, n) * np.pi / n
                else:
                    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
                curves.append((f"{n}/{noise}/{i}", radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])))
    for n, m in ((5, 2), (7, 2), (7, 3), (9, 4)):
        for i in range(2):
            curves.append((f"({n}, {m})/{i}", regular_polygon(n, m).points + 0.02 * rng.standard_normal((n, 2))))
    return curves


# steps of the curves with n <= 16 and of the stars: 720 in all (864 with every first trial at
# step_size and momentum tried at every step, 2,179 with the chord scaling alone)
FAR_STEPS = {
    "6/0.1/0": 26, "6/0.1/1": 26, "6/0.1/2": 29, "6/0.3/0": 8, "6/0.3/1": 14, "6/0.3/2": 14,
    "8/0.1/0": 4, "8/0.1/1": 4, "8/0.1/2": 4, "8/0.3/0": 12, "8/0.3/1": 10, "8/0.3/2": 10,
    "12/0.1/0": 5, "12/0.1/1": 5, "12/0.1/2": 5, "12/0.3/0": 27, "12/0.3/1": 18, "12/0.3/2": 31,
    "16/0.1/0": 5, "16/0.1/1": 10, "16/0.1/2": 6, "16/0.3/0": 34, "16/0.3/1": 116, "16/0.3/2": 52,
    "(5, 2)/0": 35, "(5, 2)/1": 32, "(7, 2)/0": 38, "(7, 2)/1": 35, "(7, 3)/0": 24, "(7, 3)/1": 20,
    "(9, 4)/0": 27, "(9, 4)/1": 34,
}


def test_far_from_regular_step_counts_pinned():
    """Far from a regular polygon the capped block step still takes every curve to the convex polygon."""
    curves = [(name, points) for name, points in _far_from_regular() if name in FAR_STEPS]
    assert len(curves) == len(FAR_STEPS)
    steps = {}
    for name, points in curves:
        trajectory = run_flow(make_curve(points), FlowConfig(step_size=0.2))
        assert trajectory.verdict == "converged" and trajectory.report.is_equilibrium
        assert trajectory.report.winding == -1
        steps[name] = trajectory.steps_taken
    assert steps == FAR_STEPS


# (final points' SHA-256, steps, kappa) at step_size = 0.2: benchmark instances (n, 0) and two far curves
BIT_FOR_BIT = {
    8: ("3b282974fcc9a2a9152b4d6753649a96faebcb7322fd73ec42e8e9e058b8fc88", 3, -1.081977830412924),
    16: ("574b9f2fbf4bf9916eb6d0f5d148ea14603ded3349d188c93e33ea51d5e5bcdb", 3, -1.0199902722651615),
    32: ("2c04f655aa9075c6e45e9325c8be5555bbb4b7a91f028cc229e22026d025e65e", 3, -1.0049045879259595),
    64: ("893c227a839f1a5c54be9ed08555850e189c9d682b30c7e32a3859792c18a370", 4, -1.0011369769116278),
    "16/0.3/1": ("fa346d30413ffa94c733970482514bd5d470667085bb0b03770ad90ad7c62ba9", 116, -1.1129131101810184),
    "(7, 3)/0": ("2be11061db50b7e88c37ee935f2791c342b63e61df3a74ae46391588681819cf", 24, -1.502490155056205),
}


def test_run_flow_bit_for_bit_pinned():
    """Any change to the arithmetic of a step, or to the scale it runs at, moves these bits."""
    far = dict(_far_from_regular())
    runs = {}
    for key in BIT_FOR_BIT:
        if isinstance(key, int):
            rng = np.random.default_rng([0, key, 0])
            points = regular_polygon(key).points + 0.05 * rng.standard_normal((key, 2)) / key
        else:
            points = far[key]
        trajectory = run_flow(make_curve(points), FlowConfig(step_size=0.2))
        final = trajectory.snapshots[-1].curve.points
        runs[key] = (hashlib.sha256(final.tobytes()).hexdigest(), trajectory.steps_taken, trajectory.kappa_estimate)
    assert runs == BIT_FOR_BIT


def test_run_flow_calls_no_linear_algebra(monkeypatch):
    """The block inverse is closed-form and applied by FFT: run_flow needs no LAPACK routine."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    for n in (8, 64):
        rng = np.random.default_rng([0, n, 0])
        curve = make_curve(regular_polygon(n).points + 0.05 * rng.standard_normal((n, 2)) / n)
        assert run_flow(curve, FlowConfig(step_size=0.2)).verdict == "converged"

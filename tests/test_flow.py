import numpy as np
import pytest

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
from polyvar.errors import ZeroVolumeGradient

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


def test_flow_step_fixed_at_equilibrium(sq, pent52):
    for poly in (sq, pent52):  # convex and star equilibria alike are fixed
        g = project_volume_preserving(poly, length_gradients(poly))
        assert np.max(np.abs(g)) < 1e-12
        new_curve, diag = flow_step(poly, FlowConfig())
        assert diag["step_size_used"] is None
        assert np.allclose(new_curve.points, poly.points)


def test_flow_step_rectangle_descends():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    new_curve, diag = flow_step(rect, FlowConfig(step_size=0.01), target_volume=2.0)
    assert total_length(new_curve) < total_length(rect)
    assert enclosed_volume(new_curve) == pytest.approx(2.0, abs=1e-10)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(step_size=0.0)
    for field in ("step_size", "grad_tolerance"):
        for value in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                FlowConfig(**{field: value})
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
    # snapshots are fresh curves, so a long run does not keep their cached arrays
    assert all("edge_lengths" not in vars(snap.curve) for snap in trajectory.snapshots)
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
    with pytest.raises(ValueError):
        run_flow(make_curve([(0, 0), (1, 0), (1, 1)], closed=False), FlowConfig())

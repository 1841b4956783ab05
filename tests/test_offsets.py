import warnings

import numpy as np
import pytest

import polyvar.offsets
from polyvar import (
    classify_equilibrium,
    edge_curvatures,
    edge_lengths,
    edge_normals,
    frenet_edge_residual,
    frenet_edge_residuals,
    make_curve,
    offset_length,
    offset_polygon,
    parallel_curve,
    regular_polygon,
    steiner_report,
    total_length,
    vertex_normal,
    vertex_normals,
    vertex_tangent,
    vertex_tangents,
    weighted_vertex_normal,
    weighted_vertex_normals,
)
from polyvar.errors import CuspAdjacent, CuspVertex, CuspWarning, EdgeCollapse, OpenCurve
from polyvar.stability import regular_polygon_kappa

from helpers import random_equilateral_polygon, random_star_polygon

SQRT2 = np.sqrt(2.0)


def test_vertex_normal_square(sq):
    assert np.allclose(vertex_normal(sq, 0), [SQRT2, 0.0], atol=1e-14)
    # |N_k| = 1/cos(theta_k/2)
    norms = np.hypot(*vertex_normals(sq).T)
    assert np.allclose(norms, 1.0 / np.cos(np.pi / 4), atol=1e-13)


def test_vertex_normal_collinear():
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    n1 = vertex_normal(path, 1)
    assert np.allclose(n1, [0.0, -1.0], atol=1e-15)  # sigma=-1 edge normal
    assert np.hypot(*n1) == pytest.approx(1.0)


def test_vertex_normal_cusp():
    path = make_curve([(0, 0), (1, 0), (0.25, 0)], closed=False)
    with pytest.warns(Warning):
        with pytest.raises(CuspVertex):
            vertex_normal(path, 1)


def test_vertex_normal_is_scaled_length_gradient(rng):
    # N_k = -grad L / sin(theta_k) wherever sin(theta_k) != 0
    from polyvar import length_gradients, turning_angles

    for _ in range(20):
        curve = random_star_polygon(rng, 9, sigma=int(rng.choice([-1, 1])))
        theta = turning_angles(curve)
        grads = length_gradients(curve)
        keep = np.abs(np.sin(theta)) > 1e-6
        expected = -grads[keep] / np.sin(theta[keep])[:, None]
        assert np.max(np.abs(vertex_normals(curve)[keep] - expected)) < 1e-10


def test_vertex_tangent_square(sq):
    assert np.allclose(vertex_tangent(sq, 0), [0.0, SQRT2], atol=1e-14)


def test_vertex_tangent_orthogonal(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, 8)
        N = vertex_normals(curve)
        T = vertex_tangents(curve)
        assert np.max(np.abs(np.sum(N * T, axis=1))) < 1e-12
        assert np.max(np.abs(np.hypot(*N.T) - np.hypot(*T.T))) < 1e-12


def test_weighted_vertex_normal(sq):
    assert np.allclose(weighted_vertex_normal(sq, 0), [SQRT2 / 2, 0.0], atol=1e-14)
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    assert np.allclose(weighted_vertex_normals(path)[1], [0.0, -1.0], atol=1e-15)


def test_weighted_normal_parallel_on_equilateral(rng):
    for _ in range(10):
        curve = random_equilateral_polygon(rng, 8)
        N = vertex_normals(curve)
        NV = weighted_vertex_normals(curve)
        cross = N[:, 0] * NV[:, 1] - N[:, 1] * NV[:, 0]
        assert np.max(np.abs(cross)) < 1e-10


def test_parallel_curve_square(sq):
    off = parallel_curve(sq, 0.5)
    assert np.allclose(off.points[0], [1 + SQRT2 / 2, 0.0], atol=1e-14)
    assert np.allclose(edge_lengths(off), SQRT2 * (1 + SQRT2 * 0.5), atol=1e-13)
    same = parallel_curve(sq, 0.0)
    assert np.allclose(same.points, sq.points)


def test_parallel_curve_edge_collapse(sq):
    t_collapse = 1.0 / edge_curvatures(sq)[0]  # = -1/sqrt(2)
    assert t_collapse == pytest.approx(-1 / SQRT2)
    with pytest.raises(EdgeCollapse):
        parallel_curve(sq, t_collapse)


def test_parallel_curve_requires_closed():
    with pytest.raises(OpenCurve):
        parallel_curve(make_curve([(0, 0), (1, 0), (1, 1)], closed=False), 0.1)


def test_parallelism_lemma(rng):
    # <p_{k+1}(t) - p_k(t), nu_k> = 0 exactly, any t
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)))
        nu = edge_normals(curve)
        kappa_e = edge_curvatures(curve)
        safe = 0.45 / max(np.abs(kappa_e).max(), 1e-9)
        for t in (-safe, 0.3 * safe, safe):
            off = parallel_curve(curve, t)
            e = np.roll(off.points, -1, axis=0) - off.points
            assert np.max(np.abs(np.sum(e * nu, axis=1))) < 1e-12 * max(abs(t), 1.0) * curve.diameter()


def test_steiner_report_square(sq):
    report = steiner_report(sq, 0.3)
    assert report.max_abs_error < 1e-14
    assert np.allclose(report.predicted_lengths, SQRT2 * (1 + SQRT2 * 0.3), atol=1e-13)
    identity = steiner_report(sq, 0.0)
    assert np.allclose(identity.predicted_lengths, identity.actual_lengths)
    assert np.allclose(identity.actual_lengths, edge_lengths(sq))


def test_steiner_rejects_collapse_range(sq):
    with pytest.raises(EdgeCollapse):
        steiner_report(sq, -1.0)  # factor 1 - t*kappa goes negative on the square


def test_steiner_report_checks_once_in_order(monkeypatch, sq):
    calls = []

    def counted(curve):
        calls.append(curve)
        return edge_curvatures(curve)

    monkeypatch.setattr(polyvar.offsets, "edge_curvatures", counted)
    steiner_report(sq, 0.1)
    assert len(calls) == 1
    # an open cusp curve is rejected as open; a closed one as a cusp, before
    # the offset distance is looked at
    with pytest.raises(OpenCurve):
        steiner_report(make_curve([(0, 0), (1, 0), (0.5, 0)], closed=False), 100.0)
    with pytest.raises(CuspVertex):
        steiner_report(make_curve([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)]), 100.0)


def test_steiner_exactness_random(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)))
        kappa_e = edge_curvatures(curve)
        t_max = 0.9 / max(np.abs(kappa_e).max(), 1e-9)
        for t in np.linspace(-t_max, t_max, 7):
            report = steiner_report(curve, float(t))
            scale = np.abs(report.predicted_lengths).max()
            assert report.max_abs_error < 1e-12 * max(scale, 1.0)


def test_offset_length_square(sq):
    L = 4 * SQRT2
    assert offset_length(sq, 1.0, "arc") == pytest.approx(L + 2 * np.pi, abs=1e-13)
    assert offset_length(sq, 1.0, "segment") == pytest.approx(L + 4 * SQRT2, abs=1e-13)
    assert offset_length(sq, 1.0, "wedge") == pytest.approx(L + 8.0, abs=1e-13)


def test_offset_length_wedge_equals_steiner_sum(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)))
        kappa_e = edge_curvatures(curve)
        t = 0.5 / max(np.abs(kappa_e).max(), 1e-9)
        report = steiner_report(curve, t)
        assert offset_length(curve, t, "wedge") == pytest.approx(
            float(report.predicted_lengths.sum()), abs=1e-12 * total_length(curve)
        )


def test_offset_length_wedge_rejects_cusp_without_warning():
    cusp = make_curve([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", CuspWarning)
        with pytest.raises(CuspVertex):
            offset_length(cusp, 0.1, "wedge")


def test_offset_length_unknown_variant(sq):
    with pytest.raises(ValueError):
        offset_length(sq, 0.1, "bevel")


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_offsets_reject_distance_not_finite(sq, t):
    for call in (
        lambda: parallel_curve(sq, t),
        lambda: steiner_report(sq, t),
        lambda: offset_length(sq, t, "arc"),
        lambda: offset_length(sq, t, "segment"),
        lambda: offset_polygon(sq, t, "segment"),
        lambda: offset_polygon(sq, t, "wedge"),
    ):
        with pytest.raises(ValueError, match="distance t"):
            call()


def test_offset_polygon_wedge_is_parallel_curve(sq):
    assert np.allclose(offset_polygon(sq, 0.4, "wedge").points, parallel_curve(sq, 0.4).points)


def test_offset_polygon_segment_doubles_vertices(sq):
    off = offset_polygon(sq, 0.5, "segment")
    assert off.n == 8
    assert total_length(off) == pytest.approx(offset_length(sq, 0.5, "segment"), abs=1e-13)


def test_offset_polygon_segment_drops_straight_corners():
    # a hexagon with two collinear vertices: those corners add no chord
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1.5), (0, 1)]
    curve = make_curve(pts)
    off = offset_polygon(curve, 0.2, "segment")
    assert off.n == 2 * curve.n - 1
    assert total_length(off) == pytest.approx(offset_length(curve, 0.2, "segment"), abs=1e-13)


def test_offset_polygon_arc_not_materializable(sq):
    with pytest.raises(ValueError):
        offset_polygon(sq, 0.5, "arc")


def test_offset_of_regular_polygon_stays_regular():
    for n, m, a in [(5, 1, 1.0), (6, 1, 2.0), (5, 2, 1.0)]:
        poly = regular_polygon(n, m, a)
        kappa = regular_polygon_kappa(n, m, a)
        t = 0.25 if m == 1 else -0.1  # stay below edge collapse
        off = parallel_curve(poly, t)
        l0 = float(edge_lengths(off).mean())
        a_new = l0 / (2 * np.sin(m * np.pi / n))
        report = classify_equilibrium(off, regular_polygon_kappa(n, m, a_new), tol=1e-10)
        assert report.is_equilibrium
        assert report.winding == -m


def test_frenet_residual_square(sq):
    assert np.max(np.abs(frenet_edge_residuals(sq))) < 1e-14
    assert np.allclose(frenet_edge_residual(sq, 2), 0.0, atol=1e-14)


def test_frenet_residual_random(rng):
    for _ in range(100):
        curve = random_star_polygon(rng, int(rng.integers(4, 14)))
        assert np.max(np.abs(frenet_edge_residuals(curve))) < 1e-12


def test_frenet_residual_collinear_polyline():
    path = make_curve([(0, 0), (1, 0), (2, 0), (3, 0)], closed=False)
    res = frenet_edge_residuals(path)
    assert np.allclose(res[1], 0.0, atol=1e-15)  # the one interior edge
    assert np.all(np.isnan(res[[0, 2]]))


def test_frenet_residual_blames_the_cusp_edges():
    curve = make_curve([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)])  # cusp at vertex 2
    with pytest.warns(CuspWarning):
        for k in (1, 2):
            with pytest.raises(CuspAdjacent) as info:
                frenet_edge_residual(curve, k)
            assert info.value.k == k
    assert np.allclose(frenet_edge_residual(curve, 3), 0.0, atol=1e-14)

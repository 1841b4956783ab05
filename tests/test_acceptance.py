"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import polyvar as pv
from polyvar.stability import certificate_coefficient

from helpers import (
    brute_length,
    central_gradient,
    jacobi_eigenvalues,
    oracle_volume,
    random_equilateral_polygon,
    random_star_polygon,
    second_derivative,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SQ_POINTS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
KAPPA_SQ = -np.sqrt(2.0)
KAPPA_PENT = -1.0 / np.cos(2 * np.pi / 5)


def _announce(number, name, started):
    print(f"PASS criterion {number} ({name}) in {time.perf_counter() - started:.2f}s")


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        curve = random_star_polygon(rng, int(rng.integers(5, 31)))
        h = 1e-6 * curve.diameter()
        fd_length = central_gradient(brute_length, curve.points, h)
        assert np.max(np.abs(fd_length - pv.length_gradients(curve))) < 1e-7
        fd_volume = central_gradient(lambda p: oracle_volume(p, curve.sigma), curve.points, h)
        assert np.max(np.abs(fd_volume - pv.volume_gradients(curve))) < 1e-7
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _announce(1, "gradient oracle", started)


def test_criterion_02_curvature_unification():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for i in range(100):
        if i % 2 == 0:
            curve = random_star_polygon(rng, int(rng.integers(4, 16)))
        else:
            curve = random_equilateral_polygon(rng, int(rng.integers(5, 12)))
        theta = pv.turning_angles(curve)
        l = pv.edge_lengths(curve)
        chord = np.hypot(*(np.roll(curve.points, -1, axis=0) - np.roll(curve.points, 1, axis=0)).T)
        assert np.max(np.abs(
            pv.vertex_curvatures(curve, "vertex_osculating") - 2.0 * np.sin(theta) / chord
        )) < 1e-10
        assert np.max(np.abs(
            pv.vertex_curvatures(curve, "hatakeyama") - 2.0 * np.sin(0.5 * theta) / np.roll(l, 1)
        )) < 1e-10
        if i % 2 == 1:
            l0 = float(l.mean())
            assert np.max(np.abs(
                pv.vertex_curvatures(curve, "arclength") - (2.0 / l0) * np.tan(0.5 * theta)
            )) < 1e-10
        assert np.max(np.abs(
            pv.edge_curvatures(curve) - (np.tan(0.5 * theta) + np.tan(0.5 * np.roll(theta, -1))) / l
        )) < 1e-10
    _announce(2, "curvature unification", started)


def test_criterion_03_laplacian_calculus():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(4, 16))
        curve = random_star_polygon(rng, n)
        psi = rng.normal(size=n)
        phi = rng.normal(size=n)
        l = pv.edge_lengths(curve)
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            L = pv.line_elements(curve, scheme)
            lap_psi = pv.discrete_laplacian(curve, scheme, psi)
            lap_phi = pv.discrete_laplacian(curve, scheme, phi)
            assert abs(np.sum(psi * lap_phi * L) - np.sum(lap_psi * phi * L)) < 1e-10
            assert abs(
                -np.sum(psi * lap_phi * L)
                - np.sum(pv.discrete_gradient(curve, psi) * pv.discrete_gradient(curve, phi) * l)
            ) < 1e-10
    # mean-value fields (affine in arclength on a path) are harmonic under all schemes
    for _ in range(20):
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.4, 2.0, size=9))])
        path = pv.make_curve(np.column_stack([xs, np.zeros(10)]), closed=False)
        l = pv.edge_lengths(path)
        psi = np.empty(10)
        psi[0], psi[1] = rng.normal(size=2)
        for k in range(1, 9):
            psi[k + 1] = psi[k] + l[k] * (psi[k] - psi[k - 1]) / l[k - 1]
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            assert np.max(np.abs(pv.discrete_laplacian(path, scheme, psi)[1:-1])) < 1e-10
    _announce(3, "Laplacian calculus", started)


def test_criterion_04_equilibrium_theorem():
    started = time.perf_counter()
    for n in range(3, 13):
        for m in range(1, n):
            if 2 * m == n:
                continue
            poly = pv.regular_polygon(n, m, 1.0)
            kappa = -1.0 / np.cos(m * np.pi / n)
            residual = pv.equilibrium_residual(poly, kappa)
            assert np.max(np.hypot(*residual.T)) < 1e-12
            for k in range(n):
                pts = poly.points.copy()
                pts[k] += (1e-3, 0.0)
                moved = pv.equilibrium_residual(poly.with_points(pts), kappa)
                assert np.max(np.hypot(*moved.T)) > 1e-4
            c = pv.conservation_vectors(poly, kappa)
            assert np.max(np.hypot(*(c - c.mean(axis=0)).T)) < 1e-12
            mids = 0.5 * (np.roll(poly.points, -1, axis=0) + poly.points)
            assert np.max(np.abs(np.hypot(*mids.T) - 1.0 / abs(kappa))) < 1e-10
    _announce(4, "equilibrium theorem", started)


def test_criterion_05_steiner_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 14)))
        kappa_e = pv.edge_curvatures(curve)
        t_pos = 0.9 / max(kappa_e.max(), 1e-9) if kappa_e.max() > 0 else 0.9 / np.abs(kappa_e).max()
        t_neg = 0.9 / min(kappa_e.min(), -1e-9) if kappa_e.min() < 0 else -0.9 / np.abs(kappa_e).max()
        for t in np.linspace(t_neg, t_pos, 10):
            report = pv.steiner_report(curve, float(t))
            scale = max(1.0, float(np.abs(report.predicted_lengths).max()))
            assert report.max_abs_error < 1e-12 * scale
            wedge = pv.offset_length(curve, float(t), "wedge")
            assert abs(wedge - float(report.predicted_lengths.sum())) < 1e-12 * scale * curve.n
        assert np.max(np.abs(pv.frenet_edge_residuals(curve))) < 1e-12
    _announce(5, "Steiner exactness", started)


def test_criterion_06_second_variation_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    fixtures = [
        (pv.make_curve(SQ_POINTS), 4, 1, 1.0, KAPPA_SQ),
        (pv.regular_polygon(5, 2, 1.0), 5, 2, 1.0, KAPPA_PENT),
    ]
    for curve, n, m, a, kappa in fixtures:
        for _ in range(20):
            v = rng.normal(size=(n, 2))

            def functional(t):
                pts = curve.points + t * v
                return brute_length(pts) + kappa * oracle_volume(pts, curve.sigma)

            exact = pv.second_variation(curve, kappa, v)
            fd = second_derivative(functional, 1e-3)
            assert abs(fd - exact) < 1e-5 * abs(exact)

            psi, eta = pv.decompose_field(curve, v)
            closed_form = pv.second_variation_regular(n, m, a, psi, eta)
            assert abs(closed_form - exact) < 1e-10 * max(1.0, abs(exact))

        const = np.tile(rng.normal(size=2), (n, 1))
        assert abs(pv.second_variation(curve, kappa, const)) < 1e-10
        rotation = pv.rot90(curve.points, curve.sigma)
        assert abs(pv.second_variation(curve, kappa, rotation)) < 1e-10
    _announce(6, "second variation consistency", started)


def test_criterion_07_wirtinger():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    for n in range(3, 41):
        fields = rng.normal(size=(1000, n))
        fields -= fields.mean(axis=1, keepdims=True)
        for row in fields:
            gap, _ = pv.wirtinger_gap(row)
            assert gap >= -1e-12
        gap, equality = pv.wirtinger_gap(pv.harmonic_field(n, 1, float(rng.normal()), float(rng.normal())))
        assert equality and abs(gap) < 1e-10
        if n >= 5:
            gap, equality = pv.wirtinger_gap(pv.harmonic_field(n, 2))
            assert not equality and gap > 0
    _announce(7, "Wirtinger inequality", started)


def test_criterion_08_instability_table():
    started = time.perf_counter()
    # certificate coefficients negative for every star polygon
    for n in range(5, 41):
        for m in range(2, n - 1):
            if 2 * m == n:
                continue
            assert certificate_coefficient(n, m) < 0, (n, m)
    cert = pv.instability_certificate(5, 2, 1.0)
    assert abs(cert.delta2_length / float(np.sum(cert.psi**2)) - (-5.4288)) < 1e-3

    # closed-form spectrum against the in-repo dense eigensolver, n <= 64:
    # every m for n <= 24, three representative m (including the extreme-alpha
    # winding just below n/2) for larger n
    for n in range(3, 65):
        if n <= 24:
            m_values = [m for m in range(1, n) if 2 * m != n]
        else:
            m_values = sorted({1, n // 3, (n - 1) // 2} - {n / 2})
        closed_form = []
        for m in m_values:
            spectrum = pv.jacobi_spectrum(n, m)
            closed_form.append(np.sort(np.append(spectrum.eigenvalues, 2.0 - 2.0 * spectrum.alpha)))
        dense = jacobi_eigenvalues(np.stack([pv.jacobi_matrix(n, m) for m in m_values]))
        errors = np.max(np.abs(np.array(closed_form) - dense), axis=1)
        assert np.all(errors < 1e-10), (n, [m for m, e in zip(m_values, errors) if not e < 1e-10])

    # sign bands and Morse bounds, exhaustively for n <= 40; the negative
    # bands use m* = min(m, n-m), the symmetry H(n, m) = H(n, n-m) built
    # into the paper's proof
    for n in range(3, 41):
        for m in range(1, n):
            if 2 * m == n:
                continue
            spectrum = pv.jacobi_spectrum(n, m)
            lam = spectrum.eigenvalues  # lambda_j at index j-1
            for j in range(m, n - m + 1):
                if 1 <= j <= n - 1:
                    assert lam[j - 1] > 0, (n, m, j)
            m_star = min(m, n - m)
            if m_star >= 2:
                for j in range(1, n):
                    if j <= m_star / 2 or j >= n - m_star / 2:
                        assert lam[j - 1] < 0, (n, m, j)
                assert spectrum.morse_index >= m_star // 2, (n, m)
            if m in (1, n - 1):
                assert spectrum.morse_index == 0, (n, m)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(8, "instability table", started)


def test_criterion_09_flow_convergence():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    hexagon = pv.regular_polygon(6, 1, 1.0)
    config = pv.FlowConfig(step_size=0.2, grad_tolerance=1e-8, record_every=1)
    done = 0
    while done < 10:
        pts = hexagon.points + rng.normal(size=(6, 2)) * 0.03
        e = np.roll(pts, -1, axis=0) - pts
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if not (np.all(cross > 0) or np.all(cross < 0)):
            continue  # keep only convex perturbations
        done += 1
        curve = pv.make_curve(pts)
        volume0 = pv.enclosed_volume(curve)
        trajectory = pv.run_flow(curve, config)
        assert trajectory.verdict == "converged"
        assert trajectory.snapshots[-1].max_projected_gradient < 1e-8
        report = trajectory.report
        assert report.is_equilibrium
        final = trajectory.snapshots[-1].curve
        lens = pv.edge_lengths(final)
        assert lens.max() - lens.min() < 1e-6
        a_fit = report.l0 / (2.0 * np.sin(np.pi / 6))
        assert abs(trajectory.kappa_estimate - (-1.0 / (a_fit * np.cos(np.pi / 6)))) < 1e-4
        for snap in trajectory.snapshots:
            assert abs(snap.volume - volume0) < 1e-8 * abs(volume0)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(9, "flow convergence", started)


def _run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    source_dir = str(Path(pv.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [source_dir, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "polyvar.cli", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result


def _golden_pipelines(workdir: Path):
    """generate -> analyze -> offset -> stability on the SQ and PENT52 fixtures."""
    _run_cli(["generate", "--n", "4", "--m", "1", "--a", "1", "--out", "sq.json"], workdir)
    _run_cli(["generate", "--n", "5", "--m", "2", "--a", "1", "--out", "pent52.json"], workdir)
    _run_cli(
        ["analyze", "--in", "sq.json", "--kappa", "-1.4142135623730951", "--out", "sq_analyze"],
        workdir,
    )
    _run_cli(
        ["analyze", "--in", "pent52.json", "--kappa", "-3.2360679774997894", "--out", "pent52_analyze"],
        workdir,
    )
    _run_cli(
        ["offset", "--in", "sq.json", "--t", "0.2,0.4,0.6", "--variant", "wedge", "--out", "sq_offset"],
        workdir,
    )
    _run_cli(
        ["offset", "--in", "pent52.json", "--t", "0.1,0.2", "--variant", "wedge", "--out", "pent52_offset"],
        workdir,
    )
    _run_cli(["stability", "--n", "5..8", "--out", "stability_5_8.csv"], workdir)
    return [
        "sq.json",
        "pent52.json",
        "sq_analyze.csv",
        "sq_analyze.json",
        "pent52_analyze.csv",
        "pent52_analyze.json",
        "sq_offset.csv",
        "sq_offset.svg",
        "pent52_offset.csv",
        "pent52_offset.svg",
        "stability_5_8.csv",
    ]


def test_criterion_10_cli_golden_files(tmp_path):
    started = time.perf_counter()
    assert GOLDEN_DIR.is_dir(), "golden files not committed"
    for run in ("first", "second"):
        workdir = tmp_path / run
        workdir.mkdir()
        names = _golden_pipelines(workdir)
        for name in names:
            produced = (workdir / name).read_bytes()
            expected = (GOLDEN_DIR / name).read_bytes()
            assert produced == expected, f"{name} differs from golden on {run} run"
    _announce(10, "CLI golden files", started)

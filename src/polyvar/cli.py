"""Command-line interface: generate, analyze, offset, stability, flow.

Exit codes: 0 success, 2 input or validation error, 3 numerical degeneracy;
a library error exits with its class's exit_code (see polyvar.errors).
Each cmd_* returns its outputs as {suffix: text} and writes nothing itself:
main alone writes each text to --out + suffix and, under --stdout, the first
one to stdout.  stderr carries human-readable diagnostics.  No CuspWarning
reaches it: the CLI reports cusps through its outputs (cusp_vertices in the
analyze report) and its errors (exit 3 with CuspVertex).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import io as pio
from . import svg
from .curvature import SCHEMES
from .curves import regular_polygon, total_length
from .errors import CurveError, CuspWarning, EdgeCollapse
from .flow import FlowConfig, lagrange_kappa, run_flow
from .offsets import offset_length, offset_polygon
from .stability import certificate_coefficient, jacobi_spectrum
from .variation import classify_equilibrium


def _fail(message: str, code: int) -> int:
    print(f"polyvar: error: {message}", file=sys.stderr)
    return code


def _write(path: str, text: str):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _parse_int_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


def cmd_generate(args) -> dict[str, str]:
    curve = regular_polygon(args.n, args.m, a=args.a, phase=args.phase, sigma=args.sigma)
    print(f"generated regular polygon n={args.n} m={args.m} a={args.a}", file=sys.stderr)
    return {"": pio.curve_to_json(curve)}


def cmd_analyze(args) -> dict[str, str]:
    curve = pio.read_curve(args.input)
    schemes = SCHEMES if args.scheme == "all" else tuple(args.scheme.split(","))
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {', '.join(SCHEMES)}")
    table = pio.analyze_table(curve, schemes)

    equilibrium = None
    if curve.closed:
        if args.kappa is not None:
            kappa, source = args.kappa, "given"
        else:
            kappa, source = lagrange_kappa(curve), "estimated"
        report = classify_equilibrium(curve, kappa, tol=args.tol)
        equilibrium = pio.equilibrium_to_dict(report, source)
        print(
            f"equilibrium: {'yes' if report.is_equilibrium else 'no'} "
            f"(kappa={kappa:.12g} [{source}], max residual {report.max_residual:.6e})",
            file=sys.stderr,
        )
    name = args.input.rsplit("/", 1)[-1]
    return {".csv": table, ".json": pio.analyze_report(curve, name, equilibrium)}


def cmd_offset(args) -> dict[str, str]:
    curve = pio.read_curve(args.input)
    t_values = [float(v) for v in args.t.split(",")]
    rows = []
    layers = [svg.SvgLayer(curve.points, closed=curve.closed, color=svg.PALETTE[0], markers=True)]
    note = None
    for i, t in enumerate(t_values):
        predicted = offset_length(curve, t, args.variant)
        if args.variant == "arc":
            rows.append((t, predicted, None, "ok"))
            note = "arc offsets are not polygonal; lengths reported in the CSV only"
            continue
        try:
            polygon = offset_polygon(curve, t, args.variant)
        except EdgeCollapse as exc:
            rows.append((t, predicted, None, "edge_collapse"))
            print(f"t={t:g}: {exc}", file=sys.stderr)
            continue
        rows.append((t, predicted, total_length(polygon), "ok"))
        layers.append(
            svg.SvgLayer(polygon.points, closed=True, color=svg.PALETTE[1 + i % (len(svg.PALETTE) - 1)])
        )
    return {".csv": pio.offset_table(rows), ".svg": svg.render(layers, comment=note)}


def cmd_stability(args) -> dict[str, str]:
    entries = []
    for n in _parse_int_range(args.n):
        m_values = range(1, n) if args.m == "all" else [int(args.m)]
        for m in m_values:
            if 2 * m == n:
                print(f"skipping n={n} m={m}: m/n = 1/2", file=sys.stderr)
                continue
            spectrum = jacobi_spectrum(n, m)
            entries.append(
                (
                    n,
                    m,
                    spectrum.alpha,
                    float(np.min(spectrum.eigenvalues)),
                    spectrum.morse_index,
                    certificate_coefficient(n, m, a=args.a),
                )
            )
    return {"": pio.stability_table(entries)}


def cmd_flow(args) -> dict[str, str]:
    curve = pio.read_curve(args.input)
    config = FlowConfig(
        step_size=args.step,
        max_steps=args.max_steps,
        grad_tolerance=args.tol,
    )
    trajectory = run_flow(curve, config)
    layers = []
    count = len(trajectory.snapshots)
    for i, snap in enumerate(trajectory.snapshots):
        last = i == count - 1
        layers.append(
            svg.SvgLayer(
                snap.curve.points,
                closed=True,
                color="#000000" if last else "#1f77b4",
                opacity=1.0 if last else 0.15 + 0.55 * (i / max(1, count - 1)),
                markers=last,
            )
        )

    if trajectory.verdict == "converged":
        report = trajectory.report
        print(
            f"converged after {trajectory.steps_taken} steps: "
            f"equilibrium={'yes' if report.is_equilibrium else 'no'} "
            f"kappa={trajectory.kappa_estimate:.12g} l0={report.l0:.12g} "
            f"winding={report.winding}",
            file=sys.stderr,
        )
    elif trajectory.verdict == "degenerated":
        print(f"degenerated: {trajectory.reason}", file=sys.stderr)
    else:
        print(f"not converged after {trajectory.steps_taken} steps", file=sys.stderr)
    return {".csv": pio.flow_table(trajectory), ".svg": svg.render(layers)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvar",
        description="Variational analysis of discrete (polygonal) planar curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a regular (star) polygon curve file")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m", type=int, default=1, help="winding parameter (default 1)")
    p.add_argument("--a", type=float, default=1.0, help="circumradius (default 1)")
    p.add_argument("--phase", type=float, default=0.0, help="phase angle in radians")
    p.add_argument("--sigma", type=int, default=-1, choices=(-1, 1), help="normal sign")
    p.add_argument("--out", help="output curve file")
    p.add_argument("--stdout", action="store_true", help="write the curve file to stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="per-vertex/per-edge table and equilibrium verdict")
    p.add_argument("--in", dest="input", required=True, help="input curve file")
    p.add_argument("--scheme", default="all", help="comma-separated line-element schemes or 'all'")
    p.add_argument("--kappa", type=float, default=None, help="Lagrange multiplier (default: estimate)")
    p.add_argument("--tol", type=float, default=1e-10, help="equilibrium tolerance")
    p.add_argument("--out", help="output prefix (.csv and .json appended)")
    p.add_argument("--stdout", action="store_true", help="write the CSV to stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("offset", help="offset family lengths, Steiner check, SVG overlay")
    p.add_argument("--in", dest="input", required=True, help="input curve file")
    p.add_argument("--t", required=True, help="comma-separated offset distances")
    p.add_argument("--variant", default="wedge", choices=("segment", "arc", "wedge"))
    p.add_argument("--out", help="output prefix (.csv and .svg appended)")
    p.add_argument("--stdout", action="store_true", help="write the CSV to stdout")
    p.set_defaults(func=cmd_offset)

    p = sub.add_parser("stability", help="spectral stability sweep over regular polygons")
    p.add_argument("--n", required=True, help="vertex count or range, e.g. 5..8")
    p.add_argument("--m", default="all", help="winding or 'all' (default)")
    p.add_argument("--a", type=float, default=1.0, help="circumradius (default 1)")
    p.add_argument("--out", help="output CSV file")
    p.add_argument("--stdout", action="store_true", help="write the CSV to stdout")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("flow", help="area-constrained length descent")
    p.add_argument("--in", dest="input", required=True, help="input curve file")
    p.add_argument("--step", type=float, default=0.1, help="base step size")
    p.add_argument("--max-steps", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-8, help="gradient tolerance")
    p.add_argument("--out", help="output prefix (.csv and .svg appended)")
    p.add_argument("--stdout", action="store_true", help="write the trajectory CSV to stdout")
    p.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.out and not args.stdout:
        return _fail("nothing to do: pass --out and/or --stdout", 2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CuspWarning)
            outputs = args.func(args)
        if args.out:
            for suffix, text in outputs.items():
                _write(args.out + suffix, text)
        if args.stdout:
            sys.stdout.write(next(iter(outputs.values())))
    except CurveError as exc:
        return _fail(str(exc), exc.exit_code)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Curve files, report documents, and CSV tables for the command line.

The curve file is a small JSON document so that the closedness flag and the
normal-sign convention travel with the points instead of being implied:

    {"version": 1, "closed": true, "sigma": -1, "points": [[x, y], ...]}

All numeric output is formatted at 17 significant digits, which round-trips
double precision exactly and keeps repeated runs byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .curvature import SCHEMES, edge_curvatures, vertex_curvatures
from .curves import (
    DiscreteCurve,
    cusp_vertices,
    edge_lengths,
    enclosed_volume,
    total_length,
    turning_angles,
    turning_number,
)
from .errors import CuspPresent, SchemeInapplicable
from .flow import FlowTrajectory
from .variation import EquilibriumReport

CURVE_FILE_VERSION = 1


def fmt17(x) -> str:
    """17-significant-digit decimal; exact double round-trip."""
    return format(float(x), ".17g")


def curve_to_json(curve: DiscreteCurve) -> str:
    doc = {
        "version": CURVE_FILE_VERSION,
        "closed": bool(curve.closed),
        "sigma": int(curve.sigma),
        "points": [[float(x), float(y)] for x, y in curve.points],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def curve_from_json(text: str) -> DiscreteCurve:
    doc = json.loads(text)  # JSONDecodeError carries line/column
    if not isinstance(doc, dict):
        raise ValueError("curve file must be a JSON object")
    for name in ("version", "closed", "sigma", "points"):
        if name not in doc:
            raise ValueError(f"curve file missing field '{name}'")
    if doc["version"] != CURVE_FILE_VERSION:
        raise ValueError(f"field 'version': unsupported value {doc['version']!r}")
    if not isinstance(doc["closed"], bool):
        raise ValueError("field 'closed': expected true or false")
    if doc["sigma"] not in (-1, 1):
        raise ValueError("field 'sigma': expected +1 or -1")
    points = doc["points"]
    if not isinstance(points, list):
        raise ValueError("field 'points': expected an array of [x, y] pairs")
    for i, pair in enumerate(points):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"field 'points[{i}]': expected an [x, y] number pair")
    return DiscreteCurve(np.array(points, dtype=float), closed=doc["closed"], sigma=doc["sigma"])


def write_curve(curve: DiscreteCurve, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(curve_to_json(curve))


def read_curve(path) -> DiscreteCurve:
    with open(path) as f:
        return curve_from_json(f.read())


def _csv(rows) -> str:
    return "\n".join(",".join(cells) for cells in rows) + "\n"


def _cell(value) -> str:
    return "" if value is None or not np.isfinite(value) else fmt17(value)


def analyze_table(curve: DiscreteCurve, schemes=SCHEMES) -> str:
    """Per-vertex / per-edge CSV: k, l_k, theta_k, kappa per scheme, kappa_edge.

    Cells are left empty where a quantity is undefined (open-curve boundary,
    cusp vertices, arclength scheme on a non-uniform curve).
    """
    n = curve.n
    l = edge_lengths(curve)
    theta = turning_angles(curve)
    kappa_cols = {}
    for scheme in schemes:
        try:
            kappa_cols[scheme] = vertex_curvatures(curve, scheme)
        except SchemeInapplicable:
            kappa_cols[scheme] = np.full(n, np.nan)
    kappa_edge = edge_curvatures(curve)

    rows = [["k", "l_k", "theta_k"] + [f"kappa_{s}" for s in schemes] + ["kappa_edge"]]
    for k in range(n):
        has_edge = k < curve.edge_count
        rows.append(
            [str(k), _cell(l[k] if has_edge else None), _cell(theta[k])]
            + [_cell(kappa_cols[s][k]) for s in schemes]
            + [_cell(kappa_edge[k] if has_edge else None)]
        )
    return _csv(rows)


def equilibrium_to_dict(report: EquilibriumReport, source: str) -> dict:
    return {
        "kappa": float(report.kappa),
        "kappa_source": source,
        "is_equilibrium": bool(report.is_equilibrium),
        "max_residual": float(report.max_residual),
        "l0": float(report.l0),
        "theta0": float(report.theta0),
        "winding": report.winding,
        "sigma": int(report.sigma),
        "tolerance": float(report.tolerance_used),
    }


def analyze_report(curve: DiscreteCurve, name: str, equilibrium: dict | None) -> str:
    doc = {
        "input": name,
        "n": curve.n,
        "closed": bool(curve.closed),
        "sigma": int(curve.sigma),
        "total_length": float(total_length(curve)),
        "cusp_vertices": [int(k) for k in cusp_vertices(curve)],
    }
    if curve.closed:
        doc["enclosed_volume"] = float(enclosed_volume(curve))
        try:
            doc["turning_number"] = turning_number(curve)
        except CuspPresent:
            doc["turning_number"] = None
    if equilibrium is not None:
        doc["equilibrium"] = equilibrium
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def offset_table(rows) -> str:
    """CSV of (t, predicted_length, actual_length, abs_error, status) rows."""
    out = [["t", "predicted_length", "actual_length", "abs_error", "status"]]
    for t, predicted, actual, status in rows:
        err = None if (predicted is None or actual is None) else abs(predicted - actual)
        out.append(
            [
                fmt17(t),
                _cell(predicted),
                _cell(actual),
                _cell(err),
                status,
            ]
        )
    return _csv(out)


def stability_table(entries) -> str:
    """CSV of (n, m, alpha, min_lambda, morse_index, certificate_coefficient)."""
    out = [["n", "m", "alpha", "min_lambda", "morse_index", "certificate_coefficient"]]
    for n, m, alpha, min_lambda, index, coeff in entries:
        out.append([str(n), str(m), fmt17(alpha), fmt17(min_lambda), str(index), fmt17(coeff)])
    return _csv(out)


def flow_table(trajectory: FlowTrajectory) -> str:
    out = [["step", "length", "volume", "max_projected_gradient"]]
    for snap in trajectory.snapshots:
        out.append(
            [str(snap.step), fmt17(snap.length), fmt17(snap.volume), fmt17(snap.max_projected_gradient)]
        )
    return _csv(out)

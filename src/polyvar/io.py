"""Curve files, report documents, and CSV tables for the command line.

The curve file is a small JSON document so that the closedness flag and the
normal-sign convention travel with the points instead of being implied:

    {"version": 1, "closed": true, "sigma": -1, "points": [[x, y], ...]}

All numeric output is formatted at 17 significant digits, which round-trips
double precision exactly and keeps repeated runs byte-identical.  A number
that is not finite is written as an empty CSV cell or a JSON null.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

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

if TYPE_CHECKING:
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
        "points": curve.points.tolist(),
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
    # json.loads makes a JSON number an int or a float, never a subclass; true and false are bools
    number = (int, float)
    valid = [type(p) is list and len(p) == 2 and type(p[0]) in number and type(p[1]) in number for p in points]
    if not all(valid):
        raise ValueError(f"field 'points[{valid.index(False)}]': expected an [x, y] number pair")
    return DiscreteCurve(np.array(points, dtype=float), closed=doc["closed"], sigma=doc["sigma"])


def write_text(path, text: str) -> None:
    """Write text with "\n" line ends on every platform, so the bytes do not depend on it."""
    with open(path, "w", newline="\n") as f:
        f.write(text)


def write_curve(curve: DiscreteCurve, path) -> None:
    write_text(path, curve_to_json(curve))


def read_curve(path) -> DiscreteCurve:
    with open(path) as f:
        return curve_from_json(f.read())


def _number(value) -> float | None:
    """value as a float; None where it is None or not finite: an empty CSV cell, a JSON null."""
    return None if value is None or not math.isfinite(value) else float(value)


def _cell(value) -> str:
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    number = _number(value)
    return "" if number is None else fmt17(number)


def csv_table(header, rows) -> str:
    """CSV text: the header line, then one line per row of cells.

    A str or integer cell is written with str().  Any other cell is a number
    at 17 significant digits, or empty when it is None or not finite.
    """
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def analyze_table(curve: DiscreteCurve, schemes=None) -> str:
    """Per-vertex / per-edge CSV: k, l_k, theta_k, kappa per scheme, kappa_edge.

    schemes defaults to every scheme in curvature.SCHEMES.  Cells are left
    empty where a quantity is undefined (open-curve boundary, cusp vertices,
    arclength scheme on a non-uniform curve).
    """
    from .curvature import SCHEMES, edge_curvatures, vertex_curvatures

    schemes = SCHEMES if schemes is None else schemes
    no_edge = [None] * (curve.n - curve.edge_count)  # the last vertex of an open curve
    columns = [range(curve.n), edge_lengths(curve).tolist() + no_edge, turning_angles(curve).tolist()]
    for scheme in schemes:
        try:
            columns.append(vertex_curvatures(curve, scheme).tolist())
        except SchemeInapplicable:
            columns.append([None] * curve.n)
    columns.append(edge_curvatures(curve).tolist() + no_edge)
    header = ["k", "l_k", "theta_k", *(f"kappa_{s}" for s in schemes), "kappa_edge"]
    return csv_table(header, zip(*columns))


def equilibrium_to_dict(report: EquilibriumReport, source: str) -> dict:
    return {
        "kappa": _number(report.kappa),
        "kappa_source": source,
        "is_equilibrium": bool(report.is_equilibrium),
        "max_residual": _number(report.max_residual),
        "l0": _number(report.l0),
        "theta0": _number(report.theta0),
        "winding": report.winding,
        "sigma": int(report.sigma),
        "tolerance": _number(report.tolerance_used),
    }


def analyze_report(curve: DiscreteCurve, name: str, equilibrium: dict | None) -> str:
    doc = {
        "input": name,
        "n": curve.n,
        "closed": bool(curve.closed),
        "sigma": int(curve.sigma),
        "total_length": _number(total_length(curve)),
        "cusp_vertices": cusp_vertices(curve).tolist(),
    }
    if curve.closed:
        doc["enclosed_volume"] = _number(enclosed_volume(curve))  # null where it overflows
        try:
            doc["turning_number"] = turning_number(curve)
        except CuspPresent:
            doc["turning_number"] = None
    if equilibrium is not None:
        doc["equilibrium"] = equilibrium
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

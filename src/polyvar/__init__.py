"""Variational analysis of discrete (polygonal) planar curves.

Core objects are immutable curves; every operation is a pure function.

``import polyvar`` is lazy: it loads no submodule and not numpy.  A public name
is imported from its module on first access (PEP 562), so a caller pays only
for the modules it uses.
"""

import importlib

_EXPORTS = {
    "curves": (
        "DiscreteCurve",
        "cusp_vertices",
        "edge_lengths",
        "edge_normal",
        "edge_normals",
        "edge_vectors",
        "enclosed_volume",
        "make_curve",
        "regular_polygon",
        "rot90",
        "total_length",
        "turning_angle",
        "turning_angles",
        "turning_number",
    ),
    "curvature": (
        "SCHEMES",
        "curvature_vector",
        "curvature_vectors",
        "dirichlet_energy",
        "discrete_gradient",
        "discrete_laplacian",
        "edge_curvature",
        "edge_curvatures",
        "edge_line_element",
        "edge_line_elements",
        "line_element",
        "line_elements",
        "vertex_curvature",
        "vertex_curvatures",
    ),
    "variation": (
        "EquilibriumReport",
        "classify_equilibrium",
        "conservation_vectors",
        "equilibrium_residual",
        "first_variation",
        "lagrange_kappa",
        "length_gradient",
        "length_gradients",
        "project_volume_preserving",
        "volume_gradient",
        "volume_gradients",
    ),
    "offsets": (
        "OFFSET_VARIANTS",
        "SteinerReport",
        "frenet_edge_residual",
        "frenet_edge_residuals",
        "offset_length",
        "offset_polygon",
        "parallel_curve",
        "steiner_report",
        "vertex_normal",
        "vertex_normals",
        "vertex_tangent",
        "vertex_tangents",
        "weighted_vertex_normal",
        "weighted_vertex_normals",
    ),
    "stability": (
        "CertificateResult",
        "NormalTangentField",
        "SpectrumReport",
        "certificate_coefficient",
        "decompose_field",
        "fourier_decompose",
        "fourier_reconstruct",
        "harmonic_field",
        "instability_certificate",
        "jacobi_matrix",
        "jacobi_spectrum",
        "morse_index",
        "ql_form",
        "qv_form",
        "reconstruct_field",
        "regular_polygon_kappa",
        "second_variation",
        "second_variation_regular",
        "wirtinger_gap",
    ),
    "flow": (
        "FlowConfig",
        "FlowSnapshot",
        "FlowTrajectory",
        "flow_step",
        "run_flow",
    ),
    "errors": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # bound in the package from now on, as an eager import binds it
    return value


def __dir__():
    return sorted({*globals(), *__all__})

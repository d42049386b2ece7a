"""Exact scattering diagrams, toric mutation calculus, and ellipsoid-embedding
staircases over the rationals.

The public names below are resolved on each access from the layer that
defines them (PEP 562), so ``import scatstair`` loads no layer and a command
loads only the layers it uses.
"""

import importlib

# Layer -> the public names it defines.
_LAYERS = {
    "lattice": (
        "is_primitive",
        "primitive_part",
        "rot90",
        "wedge",
    ),
    "series": (
        "TruncatedSeries",
        "TruncationMismatch",
    ),
    "scattering": (
        "ConventionError",
        "ScatteringDiagram",
        "TermCapExceeded",
        "TruncationTooLow",
        "Wall",
        "apply_wall",
        "change_of_lattice",
        "diagram_from_json",
        "diagram_to_json",
        "diagram_to_svg",
        "initial_diagram",
        "ks_complete",
        "log_coefficient",
        "ray_spectrum",
        "total_monodromy",
    ),
    "toric": (
        "OrbitNode",
        "ToricModel",
        "elementary_transform_fan",
        "gl2z_equivalent",
        "half_shear",
        "mutate",
        "mutation_orbit",
        "parse_model",
        "w_t0",
        "w_t0_inverse",
    ),
    "curves": (
        "Classification",
        "CrossCheckReport",
        "classify_pair",
        "curve_index",
        "curve_obstruction",
        "degeneration_admissible",
        "diophantine_value",
        "double_point_count",
        "pair_to_ray",
        "phi_map",
        "psi_map",
        "ray_to_pair",
        "reflect_r",
        "scattering_cross_check",
        "shift_decomposition_index",
        "shift_s",
        "unicuspidal_families",
    ),
    "staircase": (
        "ExceptionalClass",
        "SqrtValue",
        "UNSPECIFIED",
        "WeightSequence",
        "ball_embedding_value",
        "enumerate_exceptional_classes",
        "exceeds_tau4",
        "fib",
        "folding_bound",
        "inner_corner",
        "is_exceptional_class",
        "obstruction_sup",
        "outer_corner",
        "stabilized_value",
        "step_height",
        "weight_sequence",
    ),
}

# Public name -> the layer that defines it.
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in this module, so a name replaced in its layer (by a test or
    # a tracer) reads the same here, and reads the original once restored.
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())

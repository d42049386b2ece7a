"""The package's public names and the layers that each command loads.

``scatstair`` resolves its public names from their layers on access, and the
CLI imports a layer only in the subcommand that uses it.  The loading checks
run in a fresh interpreter each and read its ``sys.modules``.
"""

import importlib
import subprocess
import sys

import pytest

import scatstair
from scatstair import scattering

# The public names, by the layer the package used to import them from eagerly.
PUBLIC = {
    "series": (
        "TruncatedSeries", "TruncationMismatch", "is_primitive", "primitive_part", "rot90",
        "wedge",
    ),
    "scattering": (
        "ConventionError", "ScatteringDiagram", "TermCapExceeded", "TruncationTooLow", "Wall",
        "apply_wall", "canonicalize", "change_of_lattice", "diagram_from_json",
        "diagram_to_json", "diagram_to_svg", "initial_diagram", "ks_complete",
        "log_coefficient", "ray_spectrum", "total_monodromy",
    ),
    "toric": (
        "OrbitNode", "ToricModel", "elementary_transform_fan", "gl2z_equivalent", "half_shear",
        "mutate", "mutation_orbit", "parse_model", "w_t0", "w_t0_inverse",
    ),
    "curves": (
        "Classification", "CrossCheckReport", "classify_pair", "curve_index",
        "degeneration_admissible", "diophantine_value", "double_point_count", "exceeds_tau4",
        "inflation_upper_bound", "obstruction_lower_bound", "pair_to_ray", "phi_map",
        "psi_map", "ray_to_pair", "reflect_r", "scattering_cross_check",
        "shift_decomposition_index", "shift_s", "unicuspidal_families", "visible_area",
    ),
    "staircase": (
        "ExceptionalClass", "SqrtValue", "UNSPECIFIED", "WeightSequence",
        "ball_embedding_value", "enumerate_exceptional_classes", "fib", "folding_bound",
        "inner_corner", "is_exceptional_class", "obstruction_sup", "outer_corner",
        "stabilized_value", "step_height", "weight_sequence",
    ),
}

LAYERS = ("series", "scattering", "toric", "curves", "staircase")


def test_public_names_resolve_to_their_layers():
    names = [name for group in PUBLIC.values() for name in group]
    assert sorted(scatstair.__all__) == sorted(names)
    for layer, group in PUBLIC.items():
        module = importlib.import_module(f"scatstair.{layer}")
        for name in group:
            value = getattr(scatstair, name)
            assert value is getattr(module, name), name
            # the object of the layer that defines it (exceeds_tau4 is
            # defined in staircase and imported into curves)
            assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec(f"from scatstair import {', '.join(names)}", namespace)
    assert all(namespace[name] is getattr(scatstair, name) for name in names)
    assert set(names) <= set(dir(scatstair))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scatstair.no_such_name
    assert not hasattr(scatstair, "_fibonacci_steps")
    with pytest.raises(ImportError):
        exec("from scatstair import no_such_name", {})


def test_public_names_are_resolved_on_each_access(monkeypatch):
    original = scattering.ks_complete
    replacement = object()
    monkeypatch.setattr(scattering, "ks_complete", replacement)
    assert scatstair.ks_complete is replacement
    monkeypatch.undo()
    assert scatstair.ks_complete is original
    assert "ks_complete" not in vars(scatstair)


def loaded_layers(code: str, *argv: str):
    """The exit code that ``code`` leaves in ``exit_code`` (0 if it sets
    none) and the layers in ``sys.modules`` after it ran in a fresh
    interpreter."""
    probe = (
        "import sys\nexit_code = 0\n" + code + "\n"
        "print(exit_code, *sorted(m for m in sys.modules if m.startswith('scatstair.')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True
    )
    exit_code, *modules = completed.stdout.split()
    return int(exit_code), [m.split(".", 1)[1] for m in modules if m.split(".", 1)[1] in LAYERS]


RUN_CLI = """
import contextlib, io
from scatstair.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(sys.argv[1:])
"""


@pytest.mark.parametrize("code", ["import scatstair", "import scatstair.cli"])
def test_import_loads_no_layer(code):
    assert loaded_layers(code) == (0, [])


ALL_BUT_TORIC = ["curves", "scattering", "series", "staircase"]


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("mutate --model -1,-3;1,0 --orbit-depth 3 --format json", 0, ["series", "toric"]),
        ("mutate --model -1,-3;1,0 --word 1,2 --compare-original", 0, ["series", "toric"]),
        ("staircase --range 1 9 --samples 40 --format csv", 0, ["staircase"]),
        ("staircase --a 34/5 --format json", 0, ["staircase"]),
        ("staircase --a -1/2", 2, ["staircase"]),
        ("scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format json", 0, ["scattering", "series"]),
        ("scatter --m 1,0 --m 0,1 --k 3 --k 3 --order 8 --term-cap 10", 3, ["scattering", "series"]),
        ("classify --p 2 --q 1", 0, ALL_BUT_TORIC),
        ("verify --order 5 --format json", 0, ALL_BUT_TORIC),
    ],
)
def test_subcommand_loads_only_its_layers(argv, code, layers):
    assert loaded_layers(RUN_CLI, *argv.split()) == (code, layers)

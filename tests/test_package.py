"""The package's public names, the layers that each command loads, and the
records that replaced the layers' frozen dataclasses.

``scatstair`` resolves its public names from their layers on access, and the
CLI imports a layer only in the subcommand that uses it.  The loading checks
run in a fresh interpreter each and read its ``sys.modules``.
"""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import scatstair
from scatstair import scattering
from scatstair._record import Record
from scatstair.scattering import ScatteringDiagram, Wall
from scatstair.series import TruncatedSeries
from scatstair.staircase import ExceptionalClass, SqrtValue, WeightSequence
from scatstair.toric import OrbitNode, ToricModel

# The public names, by the layer the package used to import them from eagerly;
# the lattice helpers by the one layer that has them.
PUBLIC = {
    "lattice": ("is_primitive", "primitive_part", "rot90", "wedge"),
    "series": ("TruncatedSeries", "TruncationMismatch"),
    "scattering": (
        "ConventionError", "ScatteringDiagram", "TermCapExceeded", "TruncationTooLow", "Wall",
        "apply_wall", "change_of_lattice", "diagram_from_json",
        "diagram_to_json", "diagram_to_svg", "initial_diagram", "ks_complete",
        "log_coefficient", "ray_spectrum", "total_monodromy",
    ),
    "toric": (
        "OrbitNode", "ToricModel", "elementary_transform_fan", "gl2z_equivalent", "half_shear",
        "mutate", "mutation_orbit", "parse_model", "w_t0", "w_t0_inverse",
    ),
    "curves": (
        "Classification", "CrossCheckReport", "classify_pair", "curve_index",
        "curve_obstruction", "degeneration_admissible", "diophantine_value",
        "double_point_count", "exceeds_tau4", "pair_to_ray", "phi_map", "psi_map",
        "ray_to_pair", "reflect_r", "scattering_cross_check", "shift_decomposition_index",
        "shift_s", "unicuspidal_families",
    ),
    "staircase": (
        "ExceptionalClass", "SqrtValue", "UNSPECIFIED", "WeightSequence",
        "ball_embedding_value", "enumerate_exceptional_classes", "fib", "folding_bound",
        "inner_corner", "is_exceptional_class", "obstruction_sup", "outer_corner",
        "stabilized_value", "step_height", "weight_sequence",
    ),
}

LAYERS = ("lattice", "series", "scattering", "toric", "curves", "staircase")


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


def loaded_modules(code: str, *argv: str):
    """The exit code that ``code`` leaves in ``exit_code`` (0 if it sets
    none) and the names in ``sys.modules`` after it ran in a fresh
    interpreter."""
    probe = (
        "import sys\nexit_code = 0\n" + code + "\n"
        "print(exit_code, *sorted(sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True
    )
    exit_code, *modules = completed.stdout.split()
    return int(exit_code), modules


def loaded_layers(code: str, *argv: str):
    """The exit code of ``code`` and the layers it loaded (see loaded_modules)."""
    exit_code, modules = loaded_modules(code, *argv)
    return exit_code, [m for m in (n.partition("scatstair.")[2] for n in modules) if m in LAYERS]


RUN_CLI = """
import contextlib, io
from scatstair.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    exit_code = main(sys.argv[1:])
"""


@pytest.mark.parametrize("code", ["import scatstair", "import scatstair.cli"])
def test_import_loads_no_layer(code):
    assert loaded_layers(code) == (0, [])


SCATTER = ["lattice", "scattering", "series"]
# the staircase layer takes its number checks from the lattice layer
STAIRCASE = ["lattice", "staircase"]


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("mutate --model -1,-3;1,0 --orbit-depth 3 --format json", 0, ["lattice", "toric"]),
        ("mutate --model -1,-3;1,0 --word 1,2 --compare-original", 0, ["lattice", "toric"]),
        ("staircase --range 1 9 --samples 40 --format csv", 0, STAIRCASE),
        ("staircase --a 34/5 --format json", 0, STAIRCASE),
        ("staircase --a -1/2", 2, STAIRCASE),
        ("scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format json", 0, SCATTER),
        ("scatter --m 1,0 --m 0,1 --k 3 --k 3 --order 8 --term-cap 10", 3, SCATTER),
        ("classify --p 2 --q 1", 0, ["curves", "lattice", "staircase"]),
        ("verify --order 5 --format json", 0, ["curves", "lattice", "scattering", "series", "staircase"]),
    ],
)
def test_subcommand_loads_only_its_layers(argv, code, layers):
    assert loaded_layers(RUN_CLI, *argv.split()) == (code, layers)


# Standard-library modules that a command has no use for.  Only the curve
# layer's records are dataclasses, so only classify and verify load it.
@pytest.mark.parametrize(
    "argv, unused",
    [
        ("scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format json", ["dataclasses"]),
        ("staircase --range 1 9 --samples 40 --format csv", ["dataclasses", "json"]),
        ("staircase --a 34/5 --format json", ["dataclasses"]),
        ("mutate --model -1,-3;1,0 --orbit-depth 3 --format json", ["dataclasses", "fractions"]),
        ("mutate --model -1,-3;1,0 --word 1,2 --compare-original", ["dataclasses", "fractions", "json"]),
    ],
)
def test_subcommand_skips_unused_stdlib_modules(argv, unused):
    code, modules = loaded_modules(RUN_CLI, *argv.split())
    assert code == 0
    assert not set(unused) & set(modules)


# ---------------------------------------------------------------------------
# records
#
# Each record class, its field values and its repr, which were recorded while
# the records were frozen dataclasses.

X = TruncatedSeries(3, {(0, 0, 0): 1, (1, 0, 1): 1})
Y = TruncatedSeries(3, {(0, 0, 0): 1, (0, 1, 1): 1})
MODEL = ToricModel(((-1, -3), (1, 0)))
MODEL_TEXT = "ToricModel(vectors=((-1, -3), (1, 0)))"
X_WALL_TEXT = "Wall(direction=(-1, 0), incoming=True, label=TruncatedSeries(order=3, '1 + t*x'))"
Y_WALL_TEXT = "Wall(direction=(0, -1), incoming=True, label=TruncatedSeries(order=3, '1 + t*y'))"

RECORDS = [
    (
        WeightSequence,
        (Fraction(17, 5), (Fraction(1),) * 3 + (Fraction(2, 5),) * 2 + (Fraction(1, 5),) * 2, (3, 2, 2)),
        "WeightSequence(target=Fraction(17, 5), weights=(Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(2, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5)), "
        "multiplicities=(3, 2, 2))",
    ),
    (
        ExceptionalClass,
        (3, (2, 1, 1, 1, 1, 1, 1)),
        "ExceptionalClass(degree=3, multiplicities=(2, 1, 1, 1, 1, 1, 1))",
    ),
    (SqrtValue, (Fraction(10),), "SqrtValue(radicand=Fraction(10, 1))"),
    (ToricModel, (((1, 0),),), "ToricModel(vectors=((1, 0),))"),
    (OrbitNode, (MODEL, (1, 2)), f"OrbitNode(model={MODEL_TEXT}, word=(1, 2))"),
    (Wall, ((-1, 0), True, X), X_WALL_TEXT),
    (
        ScatteringDiagram,
        (3, (Wall((-1, 0), True, X), Wall((0, -1), True, Y))),
        f"ScatteringDiagram(order=3, walls=({X_WALL_TEXT}, {Y_WALL_TEXT}))",
    ),
]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_like_its_frozen_dataclass(cls, values, text):
    fields = dict(zip(cls.__slots__, values))
    record = cls(*values)
    assert cls(**fields) == record == cls(values[0], **dict(list(fields.items())[1:]))
    assert not record != cls(*values)
    assert hash(cls(**fields)) == hash(record)
    assert {record: 1}[cls(*values)] == 1
    assert repr(record) == text
    assert [getattr(record, name) for name in cls.__slots__] == list(values)
    # unequal to a tuple of its fields and to another record type with them
    # (SqrtValue compares itself with numbers instead)
    twin = type("Twin", (Record,), {"__slots__": cls.__slots__})(*values)
    if cls is not SqrtValue:
        assert record != values and values != record
        assert record != twin and twin != record
        with pytest.raises(TypeError):
            record < twin
    for name in (cls.__slots__[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == text


def test_record_defaults():
    # no record has a field default: a toric model is its vectors, and an
    # orbit node needs its word
    assert ToricModel.__slots__ == ("vectors",)
    assert repr(ToricModel(vectors=((-1, -3), (1, 0)))) == MODEL_TEXT
    assert not hasattr(Record, "_defaults")
    with pytest.raises(TypeError):
        OrbitNode(MODEL)
    # a diagram's grading is derived from its walls, not a field
    assert ScatteringDiagram.__slots__ == ("order", "walls")
    assert ScatteringDiagram(2, ()).grading is None
    assert repr(ScatteringDiagram(2, ())) == "ScatteringDiagram(order=2, walls=())"
    with pytest.raises(TypeError):
        ScatteringDiagram(2, (), ((1, 0), (0, 1)))
    with pytest.raises(TypeError):
        ScatteringDiagram(2, (), grading=None)


def test_record_rejects_bad_arguments():
    for build in (
        lambda: ExceptionalClass(3),
        lambda: ExceptionalClass(3, (1,), 4),
        lambda: ExceptionalClass(3, (1,), degree=3),
        lambda: ExceptionalClass(degree=3, multiplicities=(1,), weight=1),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ToricModel(()), "a toric model needs at least one blowup vector"),
        (lambda: ToricModel(((2, 0),)), "blowup vector must be a primitive vector (coprime integer entries), not (2, 0)"),
        (
            lambda: Wall((2, 0), False, TruncatedSeries.one(3)),
            "wall direction must be a primitive vector (coprime integer entries), not (2, 0)",
        ),
        (
            lambda: Wall((1, 0), False, TruncatedSeries(3, {(0, 0, 0): 2})),
            "wall label must have constant term 1",
        ),
        (
            lambda: Wall((1, 0), False, TruncatedSeries(3, {(0, 0, 0): 1, (1, 0, 0): 1})),
            "wall label must be congruent to 1 mod t",
        ),
        (
            lambda: Wall((1, 0), False, Y),
            "label term z^(0,1) is not a positive multiple of z^(1, 0)",
        ),
        (
            lambda: ScatteringDiagram(4, (Wall((-1, 0), True, X),)),
            "all wall labels must share the diagram truncation order",
        ),
    ],
)
def test_record_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message

"""The exact-input contract of every public callable, generated from
``scatstair.__all__`` and the annotations of each signature.

A number parameter takes an ``int`` (not a ``bool``) where it is annotated
``int`` and an ``int`` or a ``Fraction`` where it is annotated ``Fraction``;
``lattice.integers`` and ``lattice.rational`` own the two checks,
``lattice.at_least`` the lower bound of an integer parameter (BOUNDED lists
every such parameter), ``lattice.nonzero_nonnegative`` the vectors that must
be nonzero with nonnegative entries (NONNEGATIVE lists them), and
``lattice.primitive`` the directions and pairs that must be primitive vectors
(PRIMITIVE lists them).  TYPES maps each annotation that a public callable
uses to a seeded generator of valid values and to the wrong numbers that must
be refused in it.  A callable is called on valid arguments, drawn until the
call returns, and then once for each number inside each argument (vector
entries, seed exponents, series terms and JSON fields included) replaced by
each wrong number in turn; every such call must raise ValueError.  No call,
valid or refused, may add, remove or rebind a name of the staircase module,
and the module holds no list, dict or set, so no call can leave state behind
for the next.  A public callable with an annotation that TYPES does not know
fails the test.

The contract is about numbers: a wrong object type (a string for a diagram,
say) may still raise TypeError or AttributeError.  Exception classes are not
called with input, and the records without a ``__post_init__`` check
(``ExceptionalClass``, ``WeightSequence``, ``OrbitNode``, ``Classification``
and ``CrossCheckReport``) store what they are given: the test checks that they
do, field by field.

The infinite cases of the staircase layer run in a child process whose
address space is capped, so that a call that computes without end fails the
test there instead of exhausting the machine's memory.
"""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import scatstair
from scatstair import staircase
from scatstair._record import Record
from scatstair.curves import (
    classify_pair,
    curve_index,
    curve_obstruction,
    degeneration_admissible,
    diophantine_value,
    double_point_count,
    pair_to_ray,
    phi_map,
    psi_map,
    ray_to_pair,
    scattering_cross_check,
    unicuspidal_families,
)
from scatstair.scattering import (
    ScatteringDiagram,
    TermCapExceeded,
    Wall,
    change_of_lattice,
    diagram_to_json,
    initial_diagram,
    ks_complete,
    log_coefficient,
)
from scatstair.series import TruncatedSeries
from scatstair.staircase import ExceptionalClass
from scatstair.toric import ToricModel, elementary_transform_fan, half_shear, mutation_orbit, w_t0

WRONG = (2.5, 5.0, True, "3", math.inf)

# Entry points that the CLI or another layer calls but that are not in
# ``__all__``.
EXTRA = {
    "fibonacci_outer_index": staircase.fibonacci_outer_index,
    "fibonacci_step": staircase.fibonacci_step,
    "staircase_row": staircase.staircase_row,
    "staircase_samples": staircase.staircase_samples,
    "volume_bound": staircase.volume_bound,
}

# Completed or seed diagrams small enough to call anything on.
DIAGRAMS = (
    initial_diagram([((1, 0), 1), ((0, 1), 1)], 4),
    ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 5)),
    ks_complete(initial_diagram([((1, 0), 1), ((1, 1), 1), ((0, 1), 1)], 4)),
)

# Valid calls drawn per callable and seed before the test gives up.
TRIES = 500

# Cap on the address space of the child that runs the infinite cases.
CHILD_MIB = 256


def _int(rng):
    return rng.randint(-1, 6)


def _primitive(rng):
    while True:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if math.gcd(*v) == 1:
            return v


def _positive_pair(rng):
    return (rng.randint(1, 9), rng.randint(1, 9))


def _fraction(rng):
    """A positive rational, given as an int one time in four."""
    a = Fraction(rng.randint(1, 60), rng.randint(1, 12))
    return a.numerator if rng.random() < 0.25 else a


def _vectors(rng):
    return tuple(_primitive(rng) for _ in range(rng.randint(1, 3)))


def _fan(rng):
    """Primitive vectors with their negatives, in random order."""
    vs = [_primitive(rng) for _ in range(rng.randint(1, 2))]
    fan = vs + [(-a, -b) for a, b in vs]
    rng.shuffle(fan)
    return fan


def _terms(rng):
    keys = {(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 3)) for _ in range(3)}
    return {key: _fraction(rng) for key in sorted(keys)}


def _series(rng):
    """A series of order 4 or 5: the constant 1 half the time."""
    order = rng.choice((4, 5))
    return TruncatedSeries.one(order) if rng.random() < 0.5 else TruncatedSeries(order, _terms(rng))


# annotation -> (generator of a valid value from a seeded Random, the wrong
# numbers that must be refused in place of each number inside the value)
TYPES = {
    "int": (_int, WRONG),
    "Optional[int]": (lambda rng: None if rng.random() < 0.5 else rng.randint(10**4, 10**6), WRONG),
    "Fraction": (_fraction, WRONG),
    "Vec": (_primitive, WRONG),
    "Tuple[int, int]": (_positive_pair, WRONG),
    "Sequence[Tuple[int, int]]": (lambda rng: [_positive_pair(rng) for _ in range(rng.randint(1, 3))], WRONG),
    "Sequence[Vec]": (_fan, WRONG),
    "Sequence[Tuple[Vec, int]]": (
        lambda rng: [(_primitive(rng), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))],
        WRONG,
    ),
    "Tuple[Vec, ...]": (_vectors, WRONG),
    "Tuple[int, ...]": (lambda rng: tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 4))), WRONG),
    "Tuple[Fraction, ...]": (lambda rng: tuple(_fraction(rng) for _ in range(rng.randint(0, 3))), WRONG),
    "Tuple[Tuple[Vec, int, Fraction], ...]": (
        lambda rng: tuple((_primitive(rng), _int(rng), _fraction(rng)) for _ in range(rng.randint(0, 2))),
        WRONG,
    ),
    "Optional[Mapping[TermKey, Fraction]]": (lambda rng: None if rng.random() < 0.2 else _terms(rng), WRONG),
    "dict": (lambda rng: diagram_to_json(rng.choice(DIAGRAMS)), WRONG),
    # no numbers of their own: checked objects, flags, text and callables
    "bool": (lambda rng: rng.random() < 0.5, ()),
    "str": (lambda rng: ";".join(f"{a},{b}" for a, b in _vectors(rng)), ()),
    "ScatteringDiagram": (lambda rng: rng.choice(DIAGRAMS), ()),
    "Tuple[Wall, ...]": (lambda rng: rng.choice(DIAGRAMS).walls, ()),
    "Wall": (lambda rng: rng.choice(rng.choice(DIAGRAMS).walls), ()),
    "TruncatedSeries": (_series, ()),
    "ToricModel": (lambda rng: ToricModel(_vectors(rng)), ()),
    "ExceptionalClass": (lambda rng: ExceptionalClass(_int(rng), (1,) * rng.randint(0, 3)), ()),
    "Tuple[CrossCheckRow, ...]": (lambda rng: (), ()),
    "Callable[[int, int], Classification]": (lambda rng: classify_pair, ()),
}


def public_callables():
    """name -> callable for every public callable but the exception classes."""
    found = {name: getattr(scatstair, name) for name in scatstair.__all__}
    found.update(EXTRA)
    return {
        name: obj
        for name, obj in sorted(found.items())
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }


def parameters(obj):
    """(name, annotation) of each parameter of ``obj``, in order; a record's
    parameters are its fields."""
    if isinstance(obj, type) and issubclass(obj, Record):
        return [(name, obj.__annotations__[name]) for name in obj.__slots__]
    return [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]


def unknown_annotations(obj):
    """The annotations of ``obj``'s parameters that TYPES does not know."""
    return [annotation for _, annotation in parameters(obj) if annotation not in TYPES]


def stores_what_it_is_given(obj) -> bool:
    """Whether ``obj`` is a record class without a ``__post_init__`` check."""
    if not (isinstance(obj, type) and (issubclass(obj, Record) or dataclasses.is_dataclass(obj))):
        return False
    return getattr(obj, "__post_init__", Record.__post_init__) is Record.__post_init__


def swaps(value, wrong):
    """Copies of ``value`` with one number in it replaced by ``wrong``, one copy
    per number, looking into tuples, lists and dicts (keys included)."""
    if type(value) is int or isinstance(value, Fraction):
        yield wrong
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            for new in swaps(item, wrong):
                yield value[:i] + type(value)([new]) + value[i + 1:]
    elif isinstance(value, dict):
        items = list(value.items())
        for i, item in enumerate(items):
            for new in swaps(item, wrong):
                swapped = dict(items[:i] + [new] + items[i + 1:])
                if len(swapped) == len(value):  # True or 5.0 in a key can equal another key
                    yield swapped


def call(obj, args):
    result = obj(*args)
    return list(result) if inspect.isgenerator(result) else result


def changed_names(before):
    """The names of the staircase module added, removed or rebound since
    ``before``, a copy of its namespace."""
    now = vars(staircase)
    return sorted(now.keys() ^ before.keys() | {n for n in now.keys() & before.keys() if now[n] is not before[n]})


def draw(name, obj, params, seed):
    """Valid arguments for ``obj`` from the TYPES generators, drawn until the
    call returns, with the result.  Each parameter draws from its own stream,
    so adding, removing or reordering one leaves the others' draws as they
    were."""
    rngs = [random.Random(f"{name}:{seed}:{param}") for param, _ in params]
    for _ in range(TRIES):
        args = [TYPES[annotation][0](rng) for (_, annotation), rng in zip(params, rngs)]
        try:
            return args, call(obj, args)
        except ValueError:
            continue
    raise AssertionError(f"no valid call of {name} in {TRIES} draws")


def numbers_refused(seeds, inf_only=False):
    """Call each public callable on one valid draw per seed, then with each
    number in each argument replaced by each wrong number in turn.  The
    infinite cases of the staircase layer are left out, or, with ``inf_only``,
    are the only cases run.  Returns the valid results, the number of refused
    calls and the leaks: unknown annotations, wrong calls that did not raise
    ValueError (or, for a record that stores what it is given, did not store
    it), calls that changed the staircase module's names, and a list, dict or
    set held by that module."""
    results, refused, leaks = [], 0, []
    namespace = dict(vars(staircase))
    leaks += [f"staircase.{n} is a {type(v).__name__}" for n, v in namespace.items()
              if not n.startswith("__") and isinstance(v, (list, dict, set))]
    for name, obj in public_callables().items():
        in_staircase = getattr(obj, "__module__", None) == staircase.__name__
        if inf_only and not in_staircase:
            continue
        if unknown_annotations(obj):
            leaks.append(f"{name}: no TYPES entry for {unknown_annotations(obj)}")
            continue
        params = parameters(obj)
        wrong_numbers = [w for w in WRONG if (w == math.inf) == inf_only or not in_staircase]
        stores = stores_what_it_is_given(obj)
        for seed in seeds:
            args, result = draw(name, obj, params, seed)
            results.append((name, result))
            if changed_names(namespace):
                leaks.append(f"valid calls of {name} (seed {seed}) changed staircase.{changed_names(namespace)}")
            for i, (param, annotation) in enumerate(params):
                for bad in wrong_numbers if TYPES[annotation][1] else ():
                    for new in swaps(args[i], bad):
                        wrong_args = args[:i] + [new] + args[i + 1:]
                        case = f"{name} with {param}={repr(new)[:60]} (seed {seed})"
                        try:
                            got = call(obj, wrong_args)
                        except ValueError:
                            refused += 1
                        except Exception as exc:
                            leaks.append(f"{case} raised {type(exc).__name__}: {exc}")
                        else:
                            fields = zip(params, wrong_args)
                            if not (stores and all(getattr(got, f) is a for (f, _), a in fields)):
                                leaks.append(f"{case} returned {repr(got)[:60]}")
                        if changed_names(namespace):
                            leaks.append(f"{case} changed staircase.{changed_names(namespace)}")
    return results, refused, leaks


# Runs the infinite cases of the staircase layer with the address space capped.
CHILD = """
import json, resource, sys
cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path[:0] = sys.argv[2:4]
from test_contract import numbers_refused
_, refused, leaks = numbers_refused(json.loads(sys.argv[4]), inf_only=True)
print(json.dumps([refused, leaks]))
"""


def assert_numbers_refused(seeds):
    """Run every wrong-number case for ``seeds``, the staircase layer's
    infinite ones in a capped child, assert that none leaks, and return the
    valid results and the number of calls refused."""
    seeds = list(seeds)
    results, refused, leaks = numbers_refused(seeds)
    src = os.path.dirname(os.path.dirname(scatstair.__file__))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(CHILD_MIB), os.path.dirname(__file__), src, json.dumps(seeds)],
        capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    child_refused, child_leaks = json.loads(child.stdout)
    leaks += child_leaks
    assert not leaks, "\n".join(leaks[:20]) + f"\n({len(leaks)} leaks)"
    return results, refused + child_refused


# sha256 of the repr of the valid results for seeds 0..2, recorded at the
# commit before the staircase and rational parameters were checked, where 411
# of the wrong calls leak, re-recorded when the curves records dropped their
# derived fields (CHANGES.md lists the 12 results that changed), again
# when each parameter got its own stream of draws, and again when
# curve_obstruction and volume_bound replaced three deleted bounds, and again
# when staircase_row joined EXTRA, and again when rot90 was deleted (every
# other callable's results and refusals are unchanged)
RESULTS_DIGEST = "7d7a670dbb34c16f6a257829c645fc052c52031dee774cc975eca3efa48e95bd"


def test_public_callables_refuse_wrong_numbers():
    """Every numeric parameter of every public callable refuses 2.5, 5.0,
    True, "3" and inf with ValueError, and the valid calls give the results
    recorded before the checks existed."""
    results, refused = assert_numbers_refused(range(3))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == RESULTS_DIGEST
    assert refused == 3200


def test_every_annotation_has_a_generator():
    """Every public callable is covered: a parameter annotation that TYPES
    does not know, or none, would be reported as a leak."""
    names = public_callables()
    assert set(EXTRA) | {"ball_embedding_value", "reflect_r", "wedge", "TruncatedSeries"} <= set(names)
    assert not {name: unknown_annotations(obj) for name, obj in names.items() if unknown_annotations(obj)}

    def unannotated(x, y: "complex"):
        return x

    assert unknown_annotations(unannotated) == [inspect.Parameter.empty, "complex"]


# Every integer parameter with a lower bound, checked by lattice.at_least:
# (callable, parameter name in the message, bound, the call with a value for
# the parameter).  The corners and step_height read fibonacci_step's check.
BOUNDED = (
    ("TruncatedSeries", "truncation order", 1, TruncatedSeries),
    ("ScatteringDiagram", "diagram truncation order", 1, lambda v: ScatteringDiagram(v, ())),
    ("initial_diagram", "the order of seed labels 1 + t*z^m", 2, lambda v: initial_diagram([((1, 0), 1)], v)),
    ("initial_diagram", "seed exponent", 1, lambda v: initial_diagram([((1, 0), v), ((0, 1), 1)], 3)),
    ("ks_complete", "term cap", 0, lambda v: ks_complete(initial_diagram([((1, 0), 1), ((0, 1), 1)], 4), term_cap=v)),
    ("fib", "index", -1, staircase.fib),
    ("fibonacci_step", "step", -1, staircase.fibonacci_step),
    ("outer_corner", "step", -1, staircase.outer_corner),
    ("inner_corner", "step", -1, staircase.inner_corner),
    ("step_height", "step", -1, staircase.step_height),
    ("obstruction_sup", "d_max", 1, lambda v: staircase.obstruction_sup(5, 1, v)),
    ("staircase_samples", "count", 2, lambda v: staircase.staircase_samples(1, 2, v)),
    ("exceeds_tau4", "p", 1, lambda v: staircase.exceeds_tau4(v, 1)),
    ("exceeds_tau4", "q", 1, lambda v: staircase.exceeds_tau4(1, v)),
    ("unicuspidal_families", "d_max", 3, unicuspidal_families),
    ("curve_index", "d", 1, lambda v: curve_index(v, 1, 1)),
    ("curve_index", "p", 1, lambda v: curve_index(1, v, 1)),
    ("curve_index", "q", 1, lambda v: curve_index(1, 1, v)),
    ("double_point_count", "d", 1, lambda v: double_point_count(v, 1, 1)),
    ("double_point_count", "p", 1, lambda v: double_point_count(1, v, 1)),
    ("double_point_count", "q", 1, lambda v: double_point_count(1, 1, v)),
    ("diophantine_value", "p", 1, lambda v: diophantine_value(v, 1)),
    ("diophantine_value", "q", 1, lambda v: diophantine_value(1, v)),
    ("curve_obstruction", "p", 1, lambda v: curve_obstruction(v, 1, 1)),
    ("curve_obstruction", "q", 1, lambda v: curve_obstruction(1, v, 1)),
    ("classify_pair", "q", 1, lambda v: classify_pair(5, v)),
    ("classify_pair", "p", 1, lambda v: classify_pair(v, 1)),
    ("pair_to_ray", "q", 1, lambda v: pair_to_ray(5, v)),
    ("pair_to_ray", "p", 1, lambda v: pair_to_ray(v, 1)),
    ("weight_sequence", "q", 1, lambda v: staircase.weight_sequence(5, v)),
    ("weight_sequence", "p", 2, lambda v: staircase.weight_sequence(v, 1)),
    ("degeneration_admissible", "target p", 1, lambda v: degeneration_admissible((v, 1), [(1, 1)])),
    ("degeneration_admissible", "target q", 1, lambda v: degeneration_admissible((1, v), [(1, 1)])),
    ("degeneration_admissible", "part p", 1, lambda v: degeneration_admissible((1, 1), [(1, 1), (v, 1)])),
    ("degeneration_admissible", "part q", 1, lambda v: degeneration_admissible((1, 1), [(1, 1), (1, v)])),
    ("scattering_cross_check", "order", 3, scattering_cross_check),
    ("mutation_orbit", "depth", 0, lambda v: mutation_orbit(ToricModel(((1, 0), (0, 1))), v)),
)


@pytest.mark.parametrize("name, low, run", [row[1:] for row in BOUNDED], ids=[f"{row[0]}-{row[1]}" for row in BOUNDED])
def test_bounded_integers_are_refused_by_name_and_value(name, low, run):
    """A value one below the bound and a float are refused with one message
    that names the parameter and echoes the value; the bound itself passes."""
    for value in (low - 1, 2.5):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer >= {low}, not {value!r}$"):
            run(value)
    try:
        run(low)
    except TermCapExceeded:  # a cap of 0 is valid, and reached at once
        pass


# Every vector parameter that must be nonzero with nonnegative entries,
# checked by lattice.nonzero_nonnegative: (callable, the parameters in the
# message, the call with a vector for them).
NONNEGATIVE = (
    ("phi_map", "(p, q)", lambda v: phi_map(*v)),
    ("psi_map", "(p, q)", lambda v: psi_map(*v)),
    ("ray_to_pair", "(a, b)", lambda v: ray_to_pair(*v)),
    ("w_t0", "(p, q)", lambda v: w_t0(*v)),
)


@pytest.mark.parametrize("name, run", [row[1:] for row in NONNEGATIVE], ids=[row[0] for row in NONNEGATIVE])
def test_nonnegative_vectors_are_refused_by_name_and_value(name, run):
    """The zero vector and a negative entry on either side are refused with
    one message that names the parameters and echoes the vector; a vector on
    either axis passes."""
    for value in ((0, 0), (-1, 2), (3, -1)):
        message = f"{name} must be a nonzero vector with nonnegative entries, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(value)
    run((0, 1))
    run((1, 0))


# Every vector parameter that must be primitive, checked by lattice.primitive:
# (callable, the parameter in the message, the call with a vector for it).
# The "(p, q)" rows are sorted pairs.
PRIMITIVE = (
    ("Wall", "wall direction", lambda v: Wall(v, False, TruncatedSeries.one(4))),
    ("initial_diagram", "seed direction", lambda v: initial_diagram([(v, 1)], 3)),
    ("change_of_lattice", "m1", lambda v: change_of_lattice(DIAGRAMS[0], v, (0, 1))),
    ("change_of_lattice", "m2", lambda v: change_of_lattice(DIAGRAMS[0], (1, 0), v)),
    ("log_coefficient", "direction", lambda v: log_coefficient(DIAGRAMS[1], v)),
    ("half_shear", "half-shear direction", lambda v: half_shear(v, (1, 0))),
    ("elementary_transform_fan", "fan ray", lambda v: elementary_transform_fan([(1, 0), (-1, 0), v], 0)),
    ("ToricModel", "blowup vector", lambda v: ToricModel(((1, 0), v))),
    ("classify_pair", "(p, q)", lambda v: classify_pair(*v)),
    ("pair_to_ray", "(p, q)", lambda v: pair_to_ray(*v)),
    ("weight_sequence", "(p, q)", lambda v: staircase.weight_sequence(*v)),
)


@pytest.mark.parametrize("name, run", [row[1:] for row in PRIMITIVE], ids=[f"{row[0]}-{row[1]}" for row in PRIMITIVE])
def test_primitive_vectors_are_refused_by_name_and_value(name, run):
    """A direction refuses the zero vector and two vectors with a common
    factor, a sorted pair two non-coprime pairs, each with one message that
    names the parameter and echoes the vector; a primitive vector passes."""
    pair = name == "(p, q)"
    for value in ((4, 2), (9, 3)) if pair else ((0, 0), (2, 2), (-4, 6)):
        message = f"{name} must be a primitive vector (coprime integer entries), not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(value)
    run((5, 2) if pair else (-3, 2))

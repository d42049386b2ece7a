"""The exact-input contract of every public callable, generated from
``scatstair.__all__`` and the annotations of each signature.

A number parameter takes an ``int`` (not a ``bool``) where it is annotated
``int`` and an ``int`` or a ``Fraction`` where it is annotated ``Fraction``;
``lattice.integers`` and ``lattice.rational`` own the two checks.  TYPES maps
each annotation that a public callable uses to a seeded generator of valid
values and to the wrong numbers that must be refused in it.  A callable is
called on valid arguments, drawn until the call returns, and then once for
each number inside each argument (vector entries, seed exponents, series terms
and JSON fields included) replaced by each wrong number in turn; every such
call must raise ValueError and leave the staircase's step table as it was.  A
public callable with an annotation that TYPES does not know fails the test.

The contract is about numbers: a wrong object type (a string for a diagram,
say) may still raise TypeError or AttributeError.  Exception classes are not
called with input, and the records without a ``__post_init__`` check
(``ExceptionalClass``, ``WeightSequence``, ``OrbitNode``, ``Classification``
and ``CrossCheckReport``) store what they are given: the test checks that they
do, field by field.

The infinite cases of the staircase layer run in a child process whose
address space is capped, so that a call that grows the step table without end
fails the test there instead of exhausting the machine's memory.
"""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import scatstair
from scatstair import staircase
from scatstair._record import Record
from scatstair.curves import classify_pair
from scatstair.scattering import diagram_to_json, initial_diagram, ks_complete
from scatstair.series import TruncatedSeries
from scatstair.staircase import ExceptionalClass
from scatstair.toric import ToricModel

WRONG = (2.5, 5.0, True, "3", math.inf)

# Entry points that the CLI or another layer calls but that are not in
# ``__all__``.
EXTRA = {
    "fibonacci_outer_index": staircase.fibonacci_outer_index,
    "fibonacci_step": staircase.fibonacci_step,
    "staircase_samples": staircase.staircase_samples,
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


def draw(name, obj, params, rng):
    """Valid arguments for ``obj`` from the TYPES generators, drawn until the
    call returns, with the result."""
    for _ in range(TRIES):
        args = [TYPES[annotation][0](rng) for _, annotation in params]
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
    calls and the leaks: unknown annotations, and wrong calls that did not
    raise ValueError (or, for a record that stores what it is given, did not
    store it) or that changed the length of the step table."""
    results, refused, leaks = [], 0, []
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
            rng = random.Random(f"{name}:{seed}")
            args, result = draw(name, obj, params, rng)
            results.append((name, result))
            for i, (param, annotation) in enumerate(params):
                for bad in wrong_numbers if TYPES[annotation][1] else ():
                    for new in swaps(args[i], bad):
                        wrong_args = args[:i] + [new] + args[i + 1:]
                        case = f"{name} with {param}={repr(new)[:60]} (seed {seed})"
                        steps = len(staircase._STEPS)
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
                        if len(staircase._STEPS) != steps:
                            leaks.append(f"{case} grew the step table to {len(staircase._STEPS)}")
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
# of the wrong calls leak, and re-recorded when the curves records dropped
# their derived fields (CHANGES.md lists the 12 results that changed)
RESULTS_DIGEST = "54356501348f396bc450307db224668d5884ccf55ec41532ef94a20eb94a86e8"


def test_public_callables_refuse_wrong_numbers():
    """Every numeric parameter of every public callable refuses 2.5, 5.0,
    True, "3" and inf with ValueError, and the valid calls give the results
    recorded before the checks existed."""
    results, refused = assert_numbers_refused(range(3))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == RESULTS_DIGEST
    assert refused == 3010


def test_every_annotation_has_a_generator():
    """Every public callable is covered: a parameter annotation that TYPES
    does not know, or none, would be reported as a leak."""
    names = public_callables()
    assert set(EXTRA) | {"ball_embedding_value", "reflect_r", "rot90", "TruncatedSeries"} <= set(names)
    assert not {name: unknown_annotations(obj) for name, obj in names.items() if unknown_annotations(obj)}

    def unannotated(x, y: "complex"):
        return x

    assert unknown_annotations(unannotated) == [inspect.Parameter.empty, "complex"]

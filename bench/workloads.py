"""Workloads of the scatstair benchmark: their tasks, seeded inputs and oracles.

A task is a unit of work timed as one piece.  It is made of operations, each
of which passes or fails on its own; the error rate counts operations.  CLI
tasks run a ``scatstair`` subcommand through an executor (a subprocess, or
``scatstair.cli.main`` in-process for the traced run) and compare its stdout
with a golden sha256 digest.  In-process tasks call the library directly and
check each result against an oracle computed here, independently of the
library where that is practical.

Library functions are always looked up through their module at call time
(``scattering.ks_complete``, never a name imported into this file), so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import scatstair.cli
from scatstair import curves, scattering, staircase

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Failure kinds that mean a wrong answer and make the run incorrect: a digest
# or oracle mismatch, or a CLI task exiting with another code than 0 (verify
# exits with 1 on a disagreement).  The remaining kind, "exception", is an
# operation that raised and produced no answer; it counts as failed only.
WRONG_KINDS = ("digest", "oracle", "exit_code")


@dataclass
class Failure:
    task: str
    kind: str
    detail: str


@dataclass
class TaskResult:
    attempted: int = 0
    failures: List[Failure] = field(default_factory=list)


# ---------------------------------------------------------------------------
# executors for CLI tasks


@dataclass
class CliRun:
    code: int
    stdout: bytes


class SubprocessExecutor:
    """Runs ``python -m scatstair ARGV`` from the checkout, one child at a time."""

    def __init__(self, src_dir: Path):
        self.src_dir = src_dir
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(src_dir) + (os.pathsep + old if old else "")
        self.env = env

    def run(self, argv: Sequence[str]) -> CliRun:
        proc = subprocess.run(
            [sys.executable, "-m", "scatstair", *argv],
            cwd=self.src_dir.parent,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=False,
        )
        return CliRun(proc.returncode, proc.stdout)


class InProcessExecutor:
    """Calls ``scatstair.cli.main(argv)`` with stdout captured."""

    def run(self, argv: Sequence[str]) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = scatstair.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        return CliRun(code, out.getvalue().encode("utf-8"))


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def argv_key(argv: Sequence[str]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# tasks


@dataclass
class CliTask:
    """One CLI invocation whose stdout must match its golden digest."""

    name: str
    argv: Tuple[str, ...]
    oracle: Optional[Callable[[bytes], Optional[str]]] = None

    @property
    def group(self) -> str:
        if self.argv[0] == "staircase":
            return "staircase_range_s"
        return f"{self.argv[0]}_s"

    def run(self, executor, golden: Dict[str, str]) -> TaskResult:
        res = TaskResult(attempted=1)
        out = executor.run(self.argv)
        expected = golden.get(argv_key(self.argv))
        digest = hashlib.sha256(out.stdout).hexdigest()
        if out.code != 0:
            res.failures.append(Failure(self.name, "exit_code", f"exit code {out.code}"))
        elif digest != expected:
            res.failures.append(Failure(self.name, "digest", f"sha256 {digest} != {expected}"))
        elif self.oracle is not None:
            problem = self.oracle(out.stdout)
            if problem:
                res.failures.append(Failure(self.name, "oracle", problem))
        return res


@dataclass
class FnTask:
    """In-process library calls, one operation per item.

    ``check(item)`` makes the calls and returns None when the result is
    right, or a (kind, detail) pair naming what was wrong.
    """

    name: str
    group: Optional[str]
    items: list
    check: Callable

    def run(self, executor, golden) -> TaskResult:
        res = TaskResult()
        for item in self.items:
            res.attempted += 1
            try:
                problem = self.check(item)
            except Exception as exc:  # each input is one operation; keep going
                problem = ("exception", f"{item!r}: {type(exc).__name__}: {exc}")
            if problem:
                res.failures.append(Failure(self.name, *problem))
        return res


# ---------------------------------------------------------------------------
# independent oracles


def fib(i: int) -> int:
    """Fibonacci numbers with fib(-1) = 1, fib(0) = 0 (the library's indexing)."""
    a, b = 1, 0  # fib(-1), fib(0)
    for _ in range(i + 1):
        a, b = b, a + b
    return a


def above_tau4(a: Fraction) -> bool:
    """a > tau^4 = (7 + 3*sqrt(5))/2, i.e. 2a - 7 > 3*sqrt(5)."""
    n, d = a.numerator, a.denominator
    return 2 * n - 7 * d > 0 and (2 * n - 7 * d) ** 2 > 45 * d * d


def ball_value(a: Fraction) -> Fraction:
    """The Fibonacci staircase on [1, tau^4) as a minimum of two pieces.

    On [g(k), g(k+1)] with inner corners g(k) = fib(2k+3)^2/fib(2k+1)^2 the
    function is min(a*fib(2k+1)/fib(2k+3), fib(2k+5)/fib(2k+3)).
    """
    if a < 1 or above_tau4(a):
        raise ValueError(f"{a} is outside [1, tau^4)")
    k = -1
    while Fraction(fib(2 * k + 5) ** 2, fib(2 * k + 3) ** 2) < a:
        k += 1
    return min(a * Fraction(fib(2 * k + 1), fib(2 * k + 3)), Fraction(fib(2 * k + 5), fib(2 * k + 3)))


def reineke_diagonal(m: int, order: int) -> Dict[int, Fraction]:
    """Coefficients c_j of (t^2 xy)^j in the (1,1) label for seeds (1+tx)^m, (1+ty)^m.

    Gross-Pandharipande-Siebert conjecture, proved by Reineke:
    f = (sum_j C((m-1)^2 j, j) / ((m^2 - 2m) j + 1) * u^j)^(m^2), u = t^2 xy.
    """
    top = (order - 1) // 2
    base = [Fraction(comb((m - 1) ** 2 * j, j), (m * m - 2 * m) * j + 1) for j in range(top + 1)]
    power = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(m * m):
        power = [sum(power[i] * base[j - i] for i in range(j + 1)) for j in range(top + 1)]
    return {j: c for j, c in enumerate(power) if c != 0}


def check_reineke(m: int, order: int) -> Callable[[bytes], Optional[str]]:
    def oracle(stdout: bytes) -> Optional[str]:
        walls = json.loads(stdout)["walls"]
        label = next(
            (w["label"] for w in walls if w["dir"] == [1, 1] and w["orientation"] == "out"), None
        )
        if label is None:
            return "no outgoing wall on the ray (1,1)"
        got = {}
        for rec in label:
            if not (rec["a"] == rec["b"] and rec["k"] == 2 * rec["a"]):
                return f"term off the diagonal grading: {rec}"
            got[rec["a"]] = Fraction(rec["num"], rec["den"])
        want = reineke_diagonal(m, order)
        if got != want:
            return f"(1,1) label {got} != closed form {want}"
        return None

    return oracle


def check_verify_agreement(stdout: bytes) -> Optional[str]:
    report = json.loads(stdout)
    if report["agreement"] is not True or report["mismatches"]:
        return f"verify reports mismatches {report['mismatches']}"
    return None


def graded_sums(seeds: Sequence[Tuple[int, int]], order: int) -> List[set]:
    """sums[k] = every sum of k seed vectors, repetition allowed."""
    sums = [{(0, 0)}]
    for _ in range(1, order):
        sums.append({(a + m[0], b + m[1]) for (a, b) in sums[-1] for m in seeds})
    return sums


# ---------------------------------------------------------------------------
# workload definitions


@dataclass
class Workload:
    timed: List  # tasks of one timed pass
    probe: List  # tasks run once per run, outside the timed passes
    warmup_argv: Tuple[str, ...]

    @property
    def tasks(self) -> List:
        return self.timed + self.probe


def _cli(name: str, text: str, oracle=None) -> CliTask:
    return CliTask(name, tuple(text.split()), oracle)


def _primitive(rng: random.Random) -> Tuple[int, int]:
    while True:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if v != (0, 0) and gcd(v[0], v[1]) == 1:
            return v


FUZZ_INPUTS = 24
FUZZ_ORDER = 6


def fuzz_inputs(rng: random.Random) -> List[List[Tuple[int, int]]]:
    """2-3 primitive seed vectors with entries in [-3, 3], unit multiplicity."""
    return [[_primitive(rng) for _ in range(rng.randint(2, 3))] for _ in range(FUZZ_INPUTS)]


def fuzz_task(inputs) -> FnTask:
    def check(seeds):
        diagram = scattering.ks_complete(
            scattering.initial_diagram([(m, 1) for m in seeds], FUZZ_ORDER)
        )
        sums = graded_sums(seeds, FUZZ_ORDER)
        for wall in diagram.walls:
            for (a, b, k) in wall.label.terms:
                if (a, b) not in sums[k]:
                    return ("oracle", f"{seeds}: z^({a},{b}) t^{k} is not a sum of {k} seeds")
        scattering.ray_spectrum(diagram)
        return None

    return FnTask("fuzz", None, inputs, check)


def scatter_deep(rng: random.Random) -> Workload:
    timed = [
        _cli("verify_20", "verify --order 20 --format json", check_verify_agreement),
        _cli("scatter_native_18", "scatter --m -1,-3 --m 1,0 --k 1 --k 1 --order 18 --format json"),
    ]
    rng.shuffle(timed)
    return Workload(timed, [], tuple("verify --order 4 --format json".split()))


def scatter_wide(rng: random.Random) -> Workload:
    timed = [
        _cli(
            "scatter_3seeds_14",
            "scatter --m 1,0 --m 0,1 --m 1,1 --k 1 --k 1 --k 1 --order 14 --format json",
        ),
        _cli(
            "scatter_4seeds_10",
            "scatter --m 1,0 --m 0,1 --m 1,1 --m -1,1 --k 1 --k 1 --k 1 --k 1 --order 10 --format json",
        ),
        _cli(
            "scatter_44_14",
            "scatter --m 1,0 --m 0,1 --k 4 --k 4 --order 14 --format json",
            check_reineke(4, 14),
        ),
    ]
    rng.shuffle(timed)
    warmup = "scatter --m 1,0 --m 0,1 --m 1,1 --k 1 --k 1 --k 1 --order 4 --format json"
    return Workload(timed, [fuzz_task(fuzz_inputs(rng))], tuple(warmup.split()))


OBSTRUCTIONS = ((34, 5, 13), (34, 5, 21), (89, 13, 21))
CORNER_STEPS = range(-1, 200)
PAIRS = 300
RATIOS = 300


def obstruction_task() -> FnTask:
    def check(args):
        p, q, d_max = args
        value, cls = staircase.obstruction_sup(p, q, d_max)
        bound = ball_value(Fraction(p, q))
        if cls is None or cls.degree ** 2 - sum(m * m for m in cls.multiplicities) != -1 \
                or 3 * cls.degree - sum(cls.multiplicities) != 1:
            return ("oracle", f"{args}: certificate {cls} is not an exceptional class")
        if value > bound:
            return ("oracle", f"{args}: obstruction {value} exceeds the staircase {bound}")
        # the step at outer corner fib(2k+5)/fib(2k+1) is certified in degree fib(2k+3)
        k = next(k for k in range(-1, 30) if fib(2 * k + 5) == p)
        if d_max >= fib(2 * k + 3) and value != bound:
            return ("oracle", f"{args}: obstruction {value} != staircase {bound}")
        if (p, q) == (34, 5) and not value == staircase.ball_embedding_value(Fraction(34, 5)) == Fraction(34, 13):
            return ("oracle", f"{args}: obstruction {value} != ball value 34/13")
        return None

    return FnTask("obstruction", "obstruction_s", list(OBSTRUCTIONS), check)


def corners_task() -> FnTask:
    """Outer corner k has value step(k); inner corner k has value step(k-1)."""
    points = []
    for k in CORNER_STEPS:
        points.append((Fraction(fib(2 * k + 5), fib(2 * k + 1)), Fraction(fib(2 * k + 5), fib(2 * k + 3))))
        points.append((Fraction(fib(2 * k + 3) ** 2, fib(2 * k + 1) ** 2), Fraction(fib(2 * k + 3), fib(2 * k + 1))))

    def check(point):
        a, want = point
        got = staircase.ball_embedding_value(a)
        return None if got == want else ("oracle", f"ball({a}) = {got}, expected {want}")

    return FnTask("corners", None, points, check)


def classify_task(rng: random.Random) -> FnTask:
    pairs = []
    while len(pairs) < PAIRS:
        if rng.random() < 0.1:
            k = rng.randint(-1, 10)
            pairs.append((fib(2 * k + 5), fib(2 * k + 1)))
            continue
        q = rng.randint(1, 300)
        p = rng.randint(q, 2000)
        if gcd(p, q) == 1:
            pairs.append((p, q))
    outer = {(fib(2 * k + 5), fib(2 * k + 1)): k for k in range(-1, 40)}

    def check(pair):
        p, q = pair
        got = curves.classify_pair(p, q)
        if pair in outer:
            want, index = "fibonacci_outer", outer[pair]
        else:
            want, index = ("supercritical" if above_tau4(Fraction(p, q)) else "not_realizable"), None
        if (got.verdict, got.fibonacci_index) != (want, index):
            return ("oracle", f"{pair}: {got.verdict}/{got.fibonacci_index}, expected {want}/{index}")
        return None

    return FnTask("classify", None, pairs, check)


def ratios_task(rng: random.Random) -> FnTask:
    ratios = []
    while len(ratios) < RATIOS:
        d = rng.randint(1, 1000)
        a = Fraction(rng.randint(d, 7 * d), d)
        if not above_tau4(a):
            ratios.append(a)

    def check(a):
        got = staircase.ball_embedding_value(a)
        want = ball_value(a)
        if got != want:
            return ("oracle", f"ball({a}) = {got}, expected {want}")
        if got * got < a:
            return ("oracle", f"ball({a}) = {got} is below the volume bound")
        return None

    return FnTask("ratios", None, ratios, check)


def staircase_wl(rng: random.Random) -> Workload:
    timed = [
        obstruction_task(),
        corners_task(),
        _cli("staircase_range", "staircase --range 1/1 9/1 --samples 2000 --format csv"),
        classify_task(rng),
        ratios_task(rng),
        _cli("mutate_orbit", "mutate --model -1,-3;1,0 --orbit-depth 8 --format json"),
    ]
    rng.shuffle(timed)
    return Workload(timed, [], tuple("staircase --a 34/5 --format json".split()))


WORKLOADS = {"scatter_deep": scatter_deep, "scatter_wide": scatter_wide, "staircase": staircase_wl}


def build(name: str, seed: int) -> Workload:
    """The workload's tasks and inputs; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

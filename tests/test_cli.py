"""End-to-end command-line checks, including byte determinism and exit codes."""

import contextlib
import functools
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scatstair import cli, scattering, staircase
from scatstair.curves import Classification


def run_cli(*args, expect: int = 0):
    completed = subprocess.run(
        [sys.executable, "-m", "scatstair", *args],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == expect, completed.stderr or completed.stdout
    return completed


def test_scatter_pentagon_json():
    out = run_cli(
        "scatter", "--m", "1,0", "--m", "0,1", "--k", "1", "--k", "1",
        "--order", "8", "--format", "json",
    )
    payload = json.loads(out.stdout)
    assert payload["K"] == 8
    dirs = [tuple(w["dir"]) for w in payload["walls"]]
    assert dirs == [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)]
    diag = next(w for w in payload["walls"] if tuple(w["dir"]) == (1, 1))
    assert diag["label"] == [
        {"a": 0, "b": 0, "k": 0, "num": 1, "den": 1},
        {"a": 1, "b": 1, "k": 2, "num": 1, "den": 1},
    ]
    # the added "spectrum" key aside, the payload loads back as the completion
    seeds = scattering.initial_diagram([((1, 0), 1), ((0, 1), 1)], 8)
    assert scattering.diagram_from_json(payload) == scattering.ks_complete(seeds)


def test_scatter_double_seed_text():
    out = run_cli(
        "scatter", "--m", "1,0", "--m", "0,1", "--k", "2", "--k", "2",
        "--order", "6",
    )
    assert "(1,1)" in out.stdout and "4*t^2*x*y" in out.stdout


def test_scatter_native_seeds():
    out = run_cli(
        "scatter", "--m", "-1,-3", "--m", "1,0", "--k", "1", "--k", "1",
        "--order", "5", "--format", "json",
    )
    payload = json.loads(out.stdout)
    dirs = {tuple(w["dir"]) for w in payload["walls"]}
    assert {(-1, -3), (1, 0), (0, -1)} <= dirs


def test_scatter_rejects_non_primitive():
    out = run_cli(
        "scatter", "--m", "2,2", "--k", "1", "--order", "5", expect=2,
    )
    assert out.stderr == "error: seed direction must be a primitive vector (coprime integer entries), not (2, 2)\n"


def test_scatter_term_cap_exit():
    run_cli(
        "scatter", "--m", "1,0", "--m", "0,1", "--k", "3", "--k", "3",
        "--order", "10", "--term-cap", "10", expect=3,
    )


def test_scatter_ambiguous_lowest_terms(capsys):
    # an ungraded diagram: ray (-1,0) carries z^(-4,0) t^3 and z^(-7,0) t^3
    argv = "scatter --m -3,1 --k 1 --m 0,1 --k 1 --m -1,-2 --k 1 --order 6".split()
    assert cli.main(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "(-1,0)  t^3" in line]
    assert rows == ["  (-1,0)  t^3  112", "  (-1,0)  t^3  147"]


def test_scatter_byte_determinism():
    args = (
        "scatter", "--m", "1,0", "--m", "0,1", "--k", "2", "--k", "2",
        "--order", "7", "--format", "json",
    )
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_scatter_svg_output(tmp_path: Path):
    target = tmp_path / "diagram.svg"
    run_cli(
        "scatter", "--m", "1,0", "--m", "0,1", "--k", "1", "--k", "1",
        "--order", "6", "--format", "svg", "--out", str(target),
    )
    text = target.read_text()
    assert text.startswith("<svg") and "order: 6" in text
    # a seed direction beyond float range is drawn, scaled down by a power of two
    far = 2 * 10 ** 400
    out = run_cli("scatter", "--m", f"{far},1", "--k", "1", "--order", "3", "--format", "svg")
    assert out.stdout.endswith("</svg>\n") and f"t*x^{far}*y" in out.stdout


def test_staircase_point_values():
    out = run_cli("staircase", "--a", "5/1", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["ball"] == "5/2"
    assert payload["stabilized"] == "5/2"
    assert payload["folding"] == "5/2"
    out = run_cli("staircase", "--a", "9/1", "--format", "json")
    assert json.loads(out.stdout)["ball"] == "3"


def test_staircase_window_behavior():
    out = run_cli("staircase", "--a", "8/1", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["ball"] == "unspecified"
    assert payload["stabilized"] == "8/3"
    assert payload["volume"] == "sqrt(8)"
    run_cli("staircase", "--a", "8/1", "--value", "ball", expect=2)


def test_staircase_computes_only_the_value_it_prints(monkeypatch, capsys):
    """--value ball at the outer corner of step 10,000 computes the ball value
    once and none of the values it does not print."""
    f1, f2 = staircase.fib(20001), staircase.fib(20002)
    f3, f5 = f1 + f2, 2 * f1 + 3 * f2
    calls = []

    def counted(name, real):
        def value(a):
            calls.append(name)
            return real(a)
        return value

    for name in ("ball_embedding_value", "stabilized_value", "folding_bound", "volume_bound"):
        monkeypatch.setattr(staircase, name, counted(name, getattr(staircase, name)))
    assert cli.main(["staircase", "--a", f"{f5}/{f1}", "--value", "ball"]) == 0
    assert calls == ["ball_embedding_value"]
    assert capsys.readouterr().out == f"a: {f5}/{f1}\nball: {f5}/{f3}\n"


@pytest.mark.parametrize("k", [10000, 2])
def test_staircase_reads_all_values_from_one_step_search(k, monkeypatch, capsys):
    """The default --value all at the outer corner of step k searches for a's
    step once: the ball, stabilized and folding values come from one row.
    Beyond tau^4 no step is searched."""
    steps = []

    def counted(n, d):
        steps.append((n, d))
        return step_of(n, d)

    step_of = staircase._step_of
    monkeypatch.setattr(staircase, "_step_of", counted)
    f1, f3, f5 = odd_fibonacci(k)
    assert cli.main(["staircase", "--a", f"{f5}/{f1}"]) == 0
    assert steps == [(f5, f1)]
    fold = Fraction(3 * f5, f5 + f1)
    assert capsys.readouterr().out == (
        f"a: {f5}/{f1}\nball: {f5}/{f3}\nstabilized: {f5}/{f3}\nfolding: {fold}\nvolume: sqrt({f5}/{f1})\n"
    )
    assert cli.main(["staircase", "--a", "15/2"]) == 0
    assert len(steps) == 1
    assert capsys.readouterr().out == "a: 15/2\nball: unspecified\nstabilized: 45/17\nfolding: 45/17\nvolume: sqrt(15/2)\n"


@pytest.mark.parametrize("value", ["all", "ball", "stabilized", "folding", "volume"])
def test_staircase_refuses_an_aspect_below_one_for_every_value(value, capsys):
    assert cli.main(["staircase", "--a", "1/2", "--value", value]) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: aspect ratio must be >= 1\n")


def test_staircase_answers_beyond_the_int_str_digit_limit(capsys):
    """A 2,600-digit a in the linear branch of step 6,000, a = f5/f1 - 1/(f1 q)
    for (f1, f3, f5) = fibonacci_step(6000), has an exact value of 5,108/5,107
    digits, more than CPython's default int/str limit of 4,300.  The CLI prints
    it with exit 0 and restores the caller's limit on return."""
    f1, f3, f5 = staircase.fibonacci_step(6000)
    q = pow(f5, -1, f1) + (10 ** 2599 // f1 + 1) * f1
    p = (f5 * q - 1) // f1
    assert len(str(p)) == len(str(q)) == 2600
    getter = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = getter()
    assert cli.main(["staircase", "--a", f"{p}/{q}", "--value", "ball"]) == 0
    assert getter() == limit
    value = staircase.ball_embedding_value(Fraction(p, q))
    assert value == Fraction(p * f1, q * f3)
    out = capsys.readouterr().out
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"a: {p}/{q}\nball: {value}\n"
        assert [len(part) for part in str(value).split("/")] == [5108, 5107]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# Forks the CLI given by argv[2:] with its address space capped at argv[1]
# MiB, waits for it and prints its exit code and peak RSS in KiB, read through
# os.wait4 on it.  A child's peak RSS starts at the peak of the process it
# was forked from, so the CLI is forked from this small process, not from the
# test process.
MEASURE = """
import os, resource, sys
cap = int(sys.argv[1]) << 20
pid = os.fork()
if pid == 0:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    os.execv(sys.executable, [sys.executable, "-m", "scatstair", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_measured(*args):
    """Run the CLI in a child whose address space is capped at 512 MiB, and
    return its exit code, its stdout and stderr and its peak RSS in KiB."""
    lines = subprocess.run(
        [sys.executable, "-c", MEASURE, "512", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, check=True,
    ).stdout.splitlines(keepends=True)
    code, peak_kib = map(int, lines.pop().split())
    return code, "".join(lines), peak_kib


def test_out_of_memory_is_exit_3():
    """A completion that outgrows a 64 MiB address space ends with exit 3, an
    empty stdout and one line on stderr naming the subcommand, not with a
    MemoryError traceback and exit 1."""
    child = subprocess.run(
        [sys.executable, "-c", MEASURE, "64", "verify", "--order", "160"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert child.stdout.split()[:-1] == ["3"], child.stderr[-2000:]  # nothing before the code
    assert child.stderr == "error: verify ran out of memory\n"


@pytest.fixture
def unlimited_digits():
    """CPython's int<->str digit limit lifted while the test runs, where there
    is one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)


@functools.cache
def odd_fibonacci(k):
    """(fib(2k+1), fib(2k+3), fib(2k+5)) of step k, from the plain loop of fib."""
    f1, f2 = staircase.fib(2 * k + 1), staircase.fib(2 * k + 2)
    return f1, f1 + f2, 2 * f1 + 3 * f2


@pytest.mark.parametrize("k", [10000, 20000, 100000])
def test_staircase_deep_outer_corners_in_bounded_memory(k, unlimited_digits):
    """The outer corner fib(2k+5)/fib(2k+1) of step k gets its value
    fib(2k+5)/fib(2k+3) from a fresh interpreter with a peak RSS under 32 MiB;
    at step 100,000 the argument has 83,598 characters."""
    f1, f3, f5 = odd_fibonacci(k)
    code, out, peak_kib = run_measured("staircase", "--a", f"{f5}/{f1}", "--value", "ball")
    assert code == 0, out[-2000:]
    assert out == f"a: {f5}/{f1}\nball: {f5}/{f3}\n"
    assert peak_kib < 32 * 1024


@pytest.mark.parametrize(
    "pair, verdict",
    [  # a step k stands for its outer pair (fib(2k+5), fib(2k+1))
        (10000, "fibonacci_outer(k=10000)"),
        (20000, "fibonacci_outer(k=20000)"),
        (100000, "fibonacci_outer(k=100000)"),
        (("1" + "0" * 47999 + "1", "1"), "supercritical"),  # 10^48000 + 1, beyond tau^4
        (("5" + "0" * 47999 + "1", "2" + "0" * 48000), "not_realizable"),  # near 5/2, step -1
    ],
    ids=["step-10000", "step-20000", "step-100000", "48000-digits-supercritical", "48000-digits-near-5/2"],
)
def test_classify_in_bounded_memory(pair, verdict, unlimited_digits):
    """The outer pairs of steps 10,000, 20,000 and 100,000, and 48,000-digit
    pairs decided at step -1 or beyond tau^4, are classified by a fresh
    interpreter with a peak RSS under 32 MiB."""
    if isinstance(pair, int):
        f1, _, f5 = odd_fibonacci(pair)
        pair = (str(f5), str(f1))
    code, out, peak_kib = run_measured("classify", "--p", pair[0], "--q", pair[1])
    assert code == 0, out[-2000:]
    assert f"verdict: {verdict}\n" in out
    assert peak_kib < 32 * 1024


def test_staircase_csv_range(tmp_path: Path):
    target = tmp_path / "samples.csv"
    run_cli(
        "staircase", "--range", "1/1", "9/1", "--samples", "17",
        "--format", "csv", "--out", str(target),
    )
    lines = target.read_text().splitlines()
    assert lines[0] == "a,ball,stabilized,folding"
    assert len(lines) == 18
    # --samples defaults to 200
    assert run_cli("staircase", "--range", "1", "9", "--format", "csv").stdout.count("\n") == 201
    # a range that ends beyond the largest float has exact rows but no plot
    far = str(2 * 10 ** 400)
    assert run_cli("staircase", "--range", "1", far, "--samples", "2", "--format", "csv").stdout.count("\n") == 3
    out = run_cli("staircase", "--range", "1", far, "--samples", "2", "--format", "svg", expect=2)
    assert out.stderr.startswith("error: range end ") and out.stdout == ""
    # nor has one whose ends round to the same float
    near = f"{10 ** 30 + 1}/{10 ** 30}"
    out = run_cli("staircase", "--range", "1", near, "--samples", "2", "--format", "svg", expect=2)
    assert out.stderr.startswith("error: ") and out.stdout == ""


def test_classify_examples():
    payload = json.loads(run_cli("classify", "--p", "13", "--q", "2", "--format", "json").stdout)
    assert payload["verdict"] == "fibonacci_outer"
    assert payload["fibonacci_index"] == 1
    assert payload["diophantine"] == 0
    payload = json.loads(run_cli("classify", "--p", "8", "--q", "1", "--format", "json").stdout)
    assert payload["verdict"] == "supercritical"
    assert payload["diophantine"] == 18
    payload = json.loads(run_cli("classify", "--p", "3", "--q", "1", "--format", "json").stdout)
    assert payload["verdict"] == "not_realizable"


def test_classify_non_coprime_exit():
    out = run_cli("classify", "--p", "4", "--q", "2", expect=2)
    assert out.stderr == "error: (p, q) must be a primitive vector (coprime integer entries), not (4, 2)\n"


def test_mutate_word():
    out = run_cli("mutate", "--model", "-1,-3;1,0", "--word", "1")
    assert out.stdout.strip() == "1,3;1,0"


def test_mutate_compare_original():
    out = run_cli(
        "mutate", "--model", "-1,-3;1,0", "--word", "1,2", "--compare-original",
        "--format", "json",
    )
    payload = json.loads(out.stdout)
    assert payload["equivalent_to_original"] is True
    assert payload["matrix"] == [[-1, 0], [0, -1]]


def test_mutate_single_not_equivalent():
    out = run_cli(
        "mutate", "--model", "-1,-3;1,0", "--word", "1", "--compare-original",
    )
    assert "not GL(2,Z)-equivalent" in out.stdout


def test_mutate_orbit_depth_zero():
    out = run_cli("mutate", "--model", "-1,-3;1,0", "--orbit-depth", "0")
    assert out.stdout.strip().startswith("-1,-3;1,0")


def test_mutate_orbit_dot(tmp_path: Path):
    target = tmp_path / "orbit.dot"
    run_cli(
        "mutate", "--model", "-1,-3;1,0", "--orbit-depth", "1",
        "--format", "dot", "--out", str(target),
    )
    assert target.read_text().startswith("digraph")


def test_mutate_bad_index_exit():
    out = run_cli("mutate", "--model", "-1,-3;1,0", "--word", "5", expect=2)
    assert out.stderr == "error: mutation index 5 out of range 1..2\n"


@pytest.mark.parametrize("args", [
    ("scatter", "--m", "1,2,3", "--k", "1", "--order", "4"),
    ("mutate", "--model", "1,2,3"),
])
def test_bad_vector_exit(args):
    out = run_cli(*args, expect=2)
    assert out.stderr == "error: bad vector '1,2,3'; expected 'a,b'\n"


def test_verify_agreement():
    out = run_cli("verify", "--order", "6", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["agreement"] is True
    assert [2, 1] in payload["detected"]


def test_verify_order_twelve():
    out = run_cli("verify", "--order", "12", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["agreement"] is True
    detected = [tuple(p) for p in payload["detected"]]
    assert (2, 1) in detected
    assert (8, 1) in detected  # a ratio beyond the accumulation point


def test_verify_vacuous_small_order():
    out = run_cli("verify", "--order", "3", "--format", "json")
    payload = json.loads(out.stdout)
    assert payload["agreement"] is True


def test_verify_negative_control(monkeypatch, capsys):
    real = cli.classify_pair

    def flipped(p, q):
        return Classification(p, q, "not_realizable", None) if (p, q) == (2, 1) else real(p, q)

    monkeypatch.setattr(cli, "classify_pair", flipped)
    assert cli.main(["verify", "--order", "5"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, formats",
    [
        ("scatter", "text,json,svg"),
        ("staircase", "text,json,csv,svg"),
        ("classify", "text,json"),
        ("mutate", "text,json,dot"),
        ("verify", "text,json"),
    ],
)
def test_subcommand_help_lists_its_formats(command, formats, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: scatstair {command} ")
    assert set(re.findall(r"--format \{([a-z,]+)\}", out)) == {formats}
    assert "--out OUT" in out


def test_convention_error_propagates(monkeypatch):
    """An internal consistency failure is a bug, not an exit code."""

    def broken(diagram, term_cap=None):
        raise scattering.ConventionError("inconsistent defect readouts")

    monkeypatch.setattr(scattering, "ks_complete", broken)
    with pytest.raises(scattering.ConventionError):
        cli.main(["scatter", "--m", "1,0", "--m", "0,1", "--k", "1", "--k", "1", "--order", "4"])


def test_readout_fault_propagates(monkeypatch):
    """A defect term lost at order 5 of 10 is still in the image at order 6:
    the per-order readout reports an internal fault, not bad input."""
    read = scattering._read_defect

    def lossy(k, sx, sy):
        defect = read(k, sx, sy)
        if k == 5 and defect:
            defect.pop(min(defect))
        return defect

    monkeypatch.setattr(scattering, "_read_defect", lossy)
    seeds = [((1, 0), 3), ((0, 1), 3)]
    with pytest.raises(scattering.ConventionError, match=r"not trivial mod t\^6"):
        scattering.ks_complete(scattering.initial_diagram(seeds, 10))
    with pytest.raises(scattering.ConventionError, match=r"not trivial mod t\^6"):
        cli.main(["scatter", "--m", "1,0", "--m", "0,1", "--k", "3", "--k", "3", "--order", "10"])


def test_unwritable_out_exit(tmp_path: Path, capsys):
    target = tmp_path / "missing" / "out.json"
    code = cli.main(["classify", "--p", "2", "--q", "1", "--format", "json", "--out", str(target)])
    assert code == cli.EXIT_IO == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not target.exists()


def test_verify_byte_determinism():
    args = ("verify", "--order", "6", "--format", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


# Argument values for the random argv test, good and bad: zero and
# non-primitive vectors, malformed rationals and models, out-of-range words.
FUZZ_VECS = (["1,0", "0,1", "-1,0", "0,-1", "1,1", "-1,-3", "2,1"],
             ["0,0", "2,2", "2,4", "3", "a,b", "1,2,3", ""])
FUZZ_EXPONENTS = (["1", "2", "3"], ["-1", "0", "x"])
FUZZ_RATIONALS = (["1", "5", "17/6", "9/2", "7", "15/2", "10"],
                  ["0", "-3", "1/0", "3/-2", "x", "1.5", "2/1/3", ""])
FUZZ_MODELS = (["-1,-3;1,0", "1,0;0,1", "1,0;0,1;1,1", "1,0"],
               ["", ";", "1,0;", "a,b;1,0", "1,0;0,1,2", "0,0;1,0"])
FUZZ_WORDS = (["1", "2", "2,1", "1,2,1", ""], ["0", "3", "-1", "1,,2", "x"])
FUZZ_FORMATS = {
    "scatter": ["text", "json", "svg"],
    "staircase": ["text", "json", "csv", "svg"],
    "classify": ["text", "json"],
    "mutate": ["text", "json", "dot"],
    "verify": ["text", "json"],
}


def _random_argv(rng):
    """One argv for a random subcommand, mostly with good values, kept small:
    order <= 6, at most 50 samples, orbit depth <= 3."""

    def pick(values):
        good, bad = values
        return rng.choice(good if rng.random() < 0.8 else bad)

    cmd = rng.choice(sorted(FUZZ_FORMATS))
    argv = [cmd]
    if cmd == "scatter":
        n = rng.randint(0, 3)
        for _ in range(n):
            argv += ["--m", pick(FUZZ_VECS)]
        for _ in range(n if rng.random() < 0.8 else rng.randint(0, 3)):
            argv += ["--k", pick(FUZZ_EXPONENTS)]
        argv += ["--order", str(rng.randint(0, 6))]
    elif cmd == "staircase":
        r = rng.random()
        if r < 0.45:
            argv += ["--a", pick(FUZZ_RATIONALS)]
        elif r < 0.9:  # reversed and empty ranges included
            argv += ["--range", pick(FUZZ_RATIONALS), pick(FUZZ_RATIONALS)]
            argv += ["--samples", str(rng.randint(-1, 50))]
        if rng.random() < 0.4:
            argv += ["--value", rng.choice(["all", "ball", "stabilized", "folding", "volume"])]
    elif cmd == "classify":
        argv += ["--p", str(rng.randint(-1, 13)), "--q", str(rng.randint(-1, 13))]
    elif cmd == "mutate":
        argv += ["--model", pick(FUZZ_MODELS)]
        r = rng.random()
        if r < 0.45:
            argv += ["--word", pick(FUZZ_WORDS)]
        elif r < 0.9:
            argv += ["--orbit-depth", str(rng.randint(-1, 3))]
        if rng.random() < 0.4:
            argv += ["--compare-original"]
    else:
        argv += ["--order", str(rng.randint(0, 6))]
    if cmd in ("scatter", "verify") and rng.random() < 0.7:
        argv += ["--term-cap", str(rng.randint(-1, 50))]
    if rng.random() < 0.7:
        every = sorted({f for formats in FUZZ_FORMATS.values() for f in formats})
        argv += ["--format", pick((FUZZ_FORMATS[cmd], every))]
    return argv


def test_random_argv_no_traceback():
    rng = random.Random(8080)
    seen = {cli.EXIT_OK: 0, cli.EXIT_BAD_INPUT: 0, cli.EXIT_TERM_CAP: 0}
    for _ in range(200):
        argv = _random_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error, exit 2
                code = exc.code
        assert code in seen, (argv, code, err.getvalue())
        seen[code] += 1
        if code == cli.EXIT_OK:
            assert out.getvalue(), argv
        else:
            assert out.getvalue() == "", argv
            assert "error: " in err.getvalue().splitlines()[-1], (argv, err.getvalue())
    assert all(seen.values()), seen

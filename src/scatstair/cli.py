"""Command-line front end.

Subcommands: scatter, staircase, classify, mutate, verify.  All machine
outputs (JSON, CSV, SVG, DOT) are byte-deterministic for identical inputs.
Exit codes: 0 success, 1 cross-check disagreement from ``verify`` (no other
outcome is reported as 1), 2 invalid input (including a ``--format`` that the
query has no rendering for, such as ``staircase --a 5 --format csv``), 3 a
resource bound exceeded (the term cap or memory), 4 output could not be written.

Bad input is reported by the layer that rejects it: ``main`` turns each
``ValueError`` into exit 2 with its message.  The CLI checks only what no
library function sees: one ``--k`` per ``--m`` and at least one seed for
``scatter``, the syntax of rationals (positive denominators) and of a word (no
empty index), ``--value ball`` outside the transitional window, ``--format``
and a modifier given to the other mode.  argparse (exit 2 as well) takes one mode per call: ``--a`` (with
``--value``) or ``--range`` (with ``--samples``), ``--word`` (with
``--compare-original``) or ``--orbit-depth``.

Each subcommand imports the layers it uses when it runs, so a command loads
only those: ``mutate`` the toric layer (and through it the lattice layer),
``staircase`` the staircase layer (and through it the lattice layer, which
owns the checks on numeric parameters), ``scatter`` the scattering layer,
``classify`` the curve layer (and through it the staircase and lattice
layers), and ``verify`` the curve layer and its cross-check, which adds the
scattering layer.  ``json`` is imported only to write a JSON payload,
and ``fractions`` only to parse a rational.

Exact inputs and answers can have more digits than CPython's limit on
int/str conversion (4,300 by default): ``main`` lifts it while it runs, where
the interpreter has one, and restores the caller's limit on return.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_BAD_INPUT = 2
EXIT_TERM_CAP = 3
EXIT_IO = 4

# Output format name -> renderer returning text or a JSON payload.
Renderers = Dict[str, Callable[[], Union[str, dict, list]]]

# Lets values with a leading minus, like the model "-1,-3;1,0" or the rational
# "-1/2", pass as values rather than flags.
_LEADING_MINUS_VALUE = re.compile(r"^-\d")


def _parse_fraction(text: str) -> "Fraction":
    from fractions import Fraction

    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d <= 0:
            raise ValueError(f"rational {text!r} must have a positive denominator")
        return Fraction(int(num), d)
    return Fraction(int(text))


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand computes its result once and returns its exit code with one
# renderer per output format.  A renderer takes no arguments and returns text
# or a JSON payload; ``main`` calls the one the user asked for and writes it,
# or rejects the format if the result has no renderer for it.


def cmd_scatter(args) -> Tuple[int, Renderers]:
    """complete a seeded scattering diagram"""
    from .lattice import parse_vec
    from .scattering import (
        diagram_to_json,
        diagram_to_svg,
        initial_diagram,
        ks_complete,
        ray_spectrum,
    )

    if len(args.m) != len(args.k):
        raise ValueError("need one --k per --m")
    seeds = [(parse_vec(m_text), k) for m_text, k in zip(args.m, args.k)]
    if not seeds:
        raise ValueError("at least one seed (--m/--k) is required")
    diagram = ks_complete(initial_diagram(seeds, args.order), args.term_cap)
    spectrum = ray_spectrum(diagram)
    provenance = (
        "input: "
        + " ".join(f"m={m[0]},{m[1]}^k={k}" for m, k in seeds)
        + f" order={args.order}"
    )

    def text() -> str:
        lines = [f"completed diagram at order {args.order}: {len(diagram.walls)} walls"]
        for w in diagram.walls:
            tag = "in " if w.incoming else "out"
            lines.append(f"  {tag} ({w.direction[0]},{w.direction[1]})  {w.label.to_text()}")
        lines.append("lowest-order spectrum:")
        for d, o, c in spectrum:
            lines.append(f"  ({d[0]},{d[1]})  t^{o}  {c}")
        return "\n".join(lines) + "\n"

    def payload() -> dict:
        return {
            **diagram_to_json(diagram),
            "spectrum": [{"dir": list(d), "order": o, "coeff": str(c)} for d, o, c in spectrum],
        }

    return EXIT_OK, {
        "text": text,
        "json": payload,
        "svg": partial(diagram_to_svg, diagram, provenance),
    }


def cmd_staircase(args) -> Tuple[int, Renderers]:
    """embedding-function values and plots"""
    from . import staircase as stair

    if args.range:
        if args.value is not None:
            raise ValueError("--value goes with --a, not with --range")
        lo, hi = (_parse_fraction(t) for t in args.range)
        rows = stair.staircase_samples(lo, hi, 200 if args.samples is None else args.samples)
        records = partial(stair.samples_to_json, rows)
        return EXIT_OK, {
            "text": records,
            "json": records,
            "csv": partial(stair.samples_to_csv, rows),
            "svg": partial(stair.staircase_svg, rows, f"input: range {lo}..{hi}"),
        }
    if args.samples is not None:
        raise ValueError("--samples goes with --range, not with --a")
    a = _parse_fraction(args.a)
    values = {
        "ball": stair.ball_embedding_value,
        "stabilized": stair.stabilized_value,
        "folding": stair.folding_bound,
        "volume": stair.volume_bound,
    }
    payload = {"a": str(a)}
    if args.value in (None, "all"):  # one row, in the order of ``values``
        payload.update(zip(values, map(str, [*stair.staircase_row(a)[1:], stair.volume_bound(a)])))
    else:
        value = values[args.value](a)
        if args.value == "ball" and isinstance(value, stair.Unspecified):
            raise ValueError(f"a = {a} lies in the transitional window; no point value")
        payload[args.value] = str(value)
    lines = [f"{k}: {v}" for k, v in payload.items()]
    return EXIT_OK, {"text": lambda: "\n".join(lines) + "\n", "json": lambda: payload}


def classify_pair(p: int, q: int):
    """The curve layer's ``classify_pair``.  ``verify`` looks this name up when
    it runs, so a test can replace the classifier here."""
    from .curves import classify_pair

    return classify_pair(p, q)


def cmd_classify(args) -> Tuple[int, Renderers]:
    """classify a coprime cusp-parameter pair"""
    result = classify_pair(max(args.p, args.q), min(args.p, args.q))
    lines = [
        f"pair: ({result.p}, {result.q})",
        f"verdict: {result.verdict_text()}",
        f"diophantine: {result.diophantine}",
        f"divisible_by_three: {result.divisible_by_three}",
    ]
    return EXIT_OK, {"text": lambda: "\n".join(lines) + "\n", "json": result.to_json}


def cmd_mutate(args) -> Tuple[int, Renderers]:
    """mutate toric-model data or explore its orbit"""
    from .toric import (
        apply_word,
        format_model,
        gl2z_equivalent,
        mutation_orbit,
        orbit_to_dot,
        orbit_to_json,
        parse_model,
    )

    model = parse_model(args.model)
    if args.orbit_depth is not None:
        if args.compare_original:
            raise ValueError("--compare-original goes with --word, not with --orbit-depth")
        nodes = mutation_orbit(model, args.orbit_depth)
        lines = [
            f"{format_model(n.model)}  word={','.join(map(str, n.word)) or '-'}"
            for n in nodes
        ]
        return EXIT_OK, {
            "text": lambda: "\n".join(lines) + "\n",
            "json": partial(orbit_to_json, nodes),
            "dot": partial(orbit_to_dot, nodes, f"input: {args.model} depth={args.orbit_depth}"),
        }
    result = apply_word(model, [int(t) for t in args.word.split(",")] if args.word else [])
    payload = {"model": format_model(result)}
    lines = [format_model(result)]
    if args.compare_original:
        matrix = gl2z_equivalent(model, result)
        payload["equivalent_to_original"] = matrix is not None
        if matrix is None:
            lines.append("not GL(2,Z)-equivalent to the original")
        else:
            payload["matrix"] = [list(matrix[0]), list(matrix[1])]
            lines.append(
                "equivalent to the original via "
                f"[[{matrix[0][0]},{matrix[0][1]}],[{matrix[1][0]},{matrix[1][1]}]]"
            )
    return EXIT_OK, {"text": lambda: "\n".join(lines) + "\n", "json": lambda: payload}


def cmd_verify(args) -> Tuple[int, Renderers]:
    """cross-check classification against scattering"""
    from .curves import scattering_cross_check

    report = scattering_cross_check(args.order, args.term_cap, classify_pair)
    code = EXIT_OK if report.agreement else EXIT_DISAGREEMENT
    return code, {"text": report.to_table, "json": report.to_json}


# ---------------------------------------------------------------------------


def _add_command(sub, name: str, func, *formats: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``func`` and described by its docstring,
    with the options all share: ``--format`` (one of ``formats``) and ``--out``."""
    parser = sub.add_parser(name, help=func.__doc__)
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=func)
    parser._negative_number_matcher = _LEADING_MINUS_VALUE
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatstair",
        description="Exact scattering diagrams, mutation calculus, and "
        "ellipsoid-embedding staircases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scatter = _add_command(sub, "scatter", cmd_scatter, "text", "json", "svg")
    p_scatter.add_argument("--m", action="append", default=[], help="seed direction a,b")
    p_scatter.add_argument("--k", action="append", type=int, default=[], help="seed exponent")
    p_scatter.add_argument("--order", type=int, required=True, help="truncation order")
    p_scatter.add_argument("--term-cap", type=int, default=500_000)

    p_stair = _add_command(sub, "staircase", cmd_staircase, "text", "json", "csv", "svg")
    stair_mode = p_stair.add_mutually_exclusive_group(required=True)
    stair_mode.add_argument("--a", help="aspect ratio p/q")
    stair_mode.add_argument("--range", nargs=2, metavar=("LO", "HI"))
    p_stair.add_argument("--samples", type=int, help="grid size, with --range (default 200)")
    p_stair.add_argument(
        "--value",
        choices=["all", "ball", "stabilized", "folding", "volume"],
        help="the value at --a (default all)",
    )

    p_cls = _add_command(sub, "classify", cmd_classify, "text", "json")
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument("--q", type=int, required=True)

    p_mut = _add_command(sub, "mutate", cmd_mutate, "text", "json", "dot")
    p_mut.add_argument("--model", required=True, help="vectors 'a,b;c,d'")
    mut_mode = p_mut.add_mutually_exclusive_group()
    mut_mode.add_argument("--word", help="comma-separated 1-based indices")
    mut_mode.add_argument("--orbit-depth", type=int)
    p_mut.add_argument("--compare-original", action="store_true")

    p_ver = _add_command(sub, "verify", cmd_verify, "text", "json")
    p_ver.add_argument("--order", type=int, required=True)
    p_ver.add_argument("--term-cap", type=int, default=500_000)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, renderers = args.func(args)
        if args.format not in renderers:
            raise ValueError(
                f"--format {args.format} is not available for this query; "
                f"use {' or '.join(renderers)}"
            )
        output = renderers[args.format]()
        if not isinstance(output, str):
            import json

            output = json.dumps(output, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        # Only the scattering layer raises TermCapExceeded, so it is loaded
        # already when one arrives here.
        from .scattering import TermCapExceeded

        if not isinstance(exc, TermCapExceeded):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TERM_CAP
    except MemoryError:  # reported below, once the traceback's frames are let go
        output = None
    if output is None:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_TERM_CAP
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())

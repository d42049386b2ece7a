"""Command-line front end.

Subcommands: scatter, staircase, classify, mutate, verify.  All machine
outputs (JSON, CSV, SVG, DOT) are byte-deterministic for identical inputs.
Exit codes: 0 success, 1 cross-check disagreement from ``verify`` (no other
outcome is reported as 1), 2 invalid input (including a ``--format`` that the
query has no rendering for, such as ``staircase --a 5 --format csv``), 3 term
cap exceeded, 4 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import staircase as stair
from .curves import classify_pair, scattering_cross_check
from .scattering import (
    TermCapExceeded,
    diagram_to_json,
    diagram_to_svg,
    initial_diagram,
    ks_complete,
    ray_spectrum,
)
from .series import is_primitive
from .toric import (
    apply_word,
    format_model,
    gl2z_equivalent,
    mutation_orbit,
    orbit_to_dot,
    orbit_to_json,
    parse_model,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_BAD_INPUT = 2
EXIT_TERM_CAP = 3
EXIT_IO = 4

# Output format name -> renderer returning text or a JSON payload.
Renderers = Dict[str, Callable[[], Union[str, dict, list]]]

# Lets vector arguments like "-1,-3;1,0" pass as values rather than flags.
_LEADING_MINUS_VALUE = re.compile(r"^-\d")


class CliError(ValueError):
    """Invalid command-line input (exit code 2, like the library's ValueErrors)."""


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d <= 0:
            raise CliError(f"rational {text!r} must have a positive denominator")
        return Fraction(int(num), d)
    return Fraction(int(text))


def _parse_vec(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"bad vector {text!r}; expected 'a,b'")
    return (int(parts[0]), int(parts[1]))


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand computes its result once and returns its exit code with one
# renderer per output format.  A renderer takes no arguments and returns text
# or a JSON payload; ``main`` calls the one the user asked for and writes it,
# or rejects the format if the result has no renderer for it.


def cmd_scatter(args) -> Tuple[int, Renderers]:
    seeds = []
    if len(args.m) != len(args.k):
        raise CliError("need one --k per --m")
    for m_text, k in zip(args.m, args.k):
        m = _parse_vec(m_text)
        if not is_primitive(m):
            raise CliError(f"seed vector {m} is not primitive")
        if k < 1:
            raise CliError("seed exponents must be >= 1")
        seeds.append((m, k))
    if not seeds:
        raise CliError("at least one seed (--m/--k) is required")
    if args.order < 2:
        raise CliError("scattering needs --order >= 2")
    diagram = ks_complete(initial_diagram(seeds, args.order), args.term_cap)
    spectrum = ray_spectrum(diagram)
    provenance = (
        "input: "
        + " ".join(f"m={m[0]},{m[1]}^k={k}" for m, k in seeds)
        + f" order={args.order}"
    )

    def text() -> str:
        lines = [f"completed diagram at order {args.order}: {len(diagram.walls)} walls"]
        for w in diagram.sorted_walls():
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
    if args.range:
        lo, hi = (_parse_fraction(t) for t in args.range)
        if lo < 1:
            raise CliError("aspect ratios must be >= 1")
        rows = stair.staircase_samples(lo, hi, args.samples)
        records = partial(stair.samples_to_json, rows)
        return EXIT_OK, {
            "text": records,
            "json": records,
            "csv": partial(stair.samples_to_csv, rows),
            "svg": partial(stair.staircase_svg, rows, f"input: range {lo}..{hi}"),
        }
    if args.a is None:
        raise CliError("need --a or --range")
    a = _parse_fraction(args.a)
    if a < 1:
        raise CliError("aspect ratio must be >= 1")
    ball = stair.ball_embedding_value(a)
    wanted = args.value
    if wanted == "ball" and isinstance(ball, stair.Unspecified):
        raise CliError(f"a = {a} lies in the transitional window; no point value")
    values = {
        "ball": "unspecified" if isinstance(ball, stair.Unspecified) else str(ball),
        "stabilized": str(stair.stabilized_value(a)),
        "folding": str(stair.folding_bound(a)),
        "volume": str(stair.SqrtValue(a)),
    }
    if wanted != "all":
        payload = {"a": str(a), wanted: values[wanted]}
    else:
        payload = {"a": str(a), **values}
    lines = [f"{k}: {v}" for k, v in payload.items()]
    return EXIT_OK, {"text": lambda: "\n".join(lines) + "\n", "json": lambda: payload}


def cmd_classify(args) -> Tuple[int, Renderers]:
    p, q = args.p, args.q
    if p < 1 or q < 1:
        raise CliError("need positive p and q")
    if p < q:
        p, q = q, p
    if math.gcd(p, q) != 1:
        raise CliError(f"({p}, {q}) is not coprime")
    result = classify_pair(p, q)
    verdict = result.verdict
    if result.fibonacci_index is not None:
        verdict += f"(k={result.fibonacci_index})"
    lines = [
        f"pair: ({result.p}, {result.q})",
        f"verdict: {verdict}",
        f"diophantine: {result.diophantine}",
        f"divisible_by_three: {result.divisible_by_three}",
    ]
    return EXIT_OK, {"text": lambda: "\n".join(lines) + "\n", "json": result.to_json}


def cmd_mutate(args) -> Tuple[int, Renderers]:
    model = parse_model(args.model)
    if args.orbit_depth is not None:
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
    word: List[int] = []
    if args.word:
        word = [int(t) for t in args.word.split(",") if t.strip()]
    try:
        result = apply_word(model, word)
    except IndexError as exc:
        raise CliError(str(exc))
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
    if args.order < 3:
        raise CliError("verification needs --order >= 3")
    report = scattering_cross_check(args.order, args.term_cap, classify_pair)
    code = EXIT_OK if report.agreement else EXIT_DISAGREEMENT
    return code, {"text": report.to_table, "json": report.to_json}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatstair",
        description="Exact scattering diagrams, mutation calculus, and "
        "ellipsoid-embedding staircases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scatter = sub.add_parser("scatter", help="complete a seeded scattering diagram")
    p_scatter.add_argument("--m", action="append", default=[], help="seed direction a,b")
    p_scatter.add_argument("--k", action="append", type=int, default=[], help="seed exponent")
    p_scatter.add_argument("--order", type=int, required=True, help="truncation order")
    p_scatter.add_argument("--term-cap", type=int, default=500_000)
    p_scatter.add_argument("--format", choices=["text", "json", "svg"], default="text")
    p_scatter.add_argument("--out", default=None)
    p_scatter.set_defaults(func=cmd_scatter)
    p_scatter._negative_number_matcher = _LEADING_MINUS_VALUE

    p_stair = sub.add_parser("staircase", help="embedding-function values and plots")
    p_stair.add_argument("--a", default=None, help="aspect ratio p/q")
    p_stair.add_argument("--range", nargs=2, metavar=("LO", "HI"), default=None)
    p_stair.add_argument("--samples", type=int, default=200)
    p_stair.add_argument(
        "--value",
        choices=["all", "ball", "stabilized", "folding", "volume"],
        default="all",
    )
    p_stair.add_argument("--format", choices=["text", "json", "csv", "svg"], default="text")
    p_stair.add_argument("--out", default=None)
    p_stair.set_defaults(func=cmd_staircase)

    p_cls = sub.add_parser("classify", help="classify a coprime cusp-parameter pair")
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument("--q", type=int, required=True)
    p_cls.add_argument("--format", choices=["text", "json"], default="text")
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(func=cmd_classify)

    p_mut = sub.add_parser("mutate", help="mutate toric-model data or explore its orbit")
    p_mut.add_argument("--model", required=True, help="vectors 'a,b;c,d'")
    p_mut.add_argument("--word", default=None, help="comma-separated 1-based indices")
    p_mut.add_argument("--orbit-depth", type=int, default=None)
    p_mut.add_argument("--compare-original", action="store_true")
    p_mut.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_mut.add_argument("--out", default=None)
    p_mut.set_defaults(func=cmd_mutate)
    p_mut._negative_number_matcher = _LEADING_MINUS_VALUE

    p_ver = sub.add_parser("verify", help="cross-check classification against scattering")
    p_ver.add_argument("--order", type=int, required=True)
    p_ver.add_argument("--term-cap", type=int, default=500_000)
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, renderers = args.func(args)
        if args.format not in renderers:
            raise CliError(
                f"--format {args.format} is not available for this query; "
                f"use {' or '.join(renderers)}"
            )
        output = renderers[args.format]()
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TERM_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not isinstance(output, str):
        output = json.dumps(output, sort_keys=True, separators=(",", ":")) + "\n"
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

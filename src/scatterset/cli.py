"""Command-line interface for scattered-set solving, generation, and checking.

Subcommands:
    solve       maximize a d-scattered set with a chosen algorithm
    count       count d-scattered sets of every size up to k
    gen         emit instance files (random graphs and hardness constructions)
    decompose   produce tree decompositions (optionally balanced or nice)
    validate    check a decomposition or a claimed scattered set

Reports print as key/value text or, with --json, as stable-schema JSON
(the same keys for every command; inapplicable values are null).  Rational
arguments such as --epsilon use num/den syntax; decimal floats are rejected.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 precondition
error, 4 internal error (a failed invariant, any unexpected exception, or a
stdout closed before the report was written, reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .decomp import (
    TreeDecomposition,
    balance,
    decomposition_depth,
    format_td,
    heuristic_decomposition,
    make_nice,
    nice_to_tree,
    parse_td,
    validate_decomposition,
    validate_nice,
)
from .gadgets import (
    GadgetOutput,
    gen_fvs_unweighted,
    gen_seth,
    gen_td_eth,
    gen_w1_vc,
    parse_cnf,
    parse_mcis,
)
from .graph_core import (
    ParseError,
    WeightedGraph,
    format_dss,
    ints,
    is_scattered,
    parse_graph,
    records,
    scattered_violation,
)
from .oracle import RandomSpec, brute_force_max, gen_random_graph
from .tw_approx import approx_max_scattered, slack_threshold
from .tw_exact import count_scattered, max_scattered
from .vc_fpt import max_scattered_vc

# Unused here, but bench/tracing.py wraps this module-level name and the
# benchmark's tests require every name it wraps to exist.
from .graph_core import dijkstra_from  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

# Most sizes past n that `count` prints.  Each counts 0, and the report
# holds one string per size: at k = 10**6 over 3 vertices the zeros took
# 173 MiB of RSS and 11 MB of JSON.
_MAX_ZERO_COUNTS = 10_000

_PARAM_KEYS = ("d", "k", "epsilon", "seed")
_RESULT_KEYS = (
    "size",
    "counts",
    "witness",
    "target_met",
    "width",
    "depth",
    "violation",
    "td",
    "files",
)


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


@dataclass
class RunReport:
    """Uniform machine-readable record of one command invocation."""

    command: str
    solver: str
    parameters: dict[str, object] = field(default_factory=dict)
    result: dict[str, object] = field(default_factory=dict)
    validation: dict[str, object] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in _PARAM_KEYS:
            self.parameters.setdefault(key, None)
        for key in _RESULT_KEYS:
            self.result.setdefault(key, None)
        self.validation.setdefault("ok", True)
        self.validation.setdefault("checks", [])
        self.timings_ms.setdefault("total", 0.0)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "solver": self.solver,
            "parameters": {key: self.parameters[key] for key in _PARAM_KEYS},
            "result": {key: self.result[key] for key in _RESULT_KEYS},
            "validation": self.validation,
            "timings_ms": self.timings_ms,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"solver: {self.solver}"]
        for key in _PARAM_KEYS:
            value = self.parameters[key]
            if value is not None:
                lines.append(f"{key}: {value}")
        joined = ("counts", "witness", "files")
        for key in _RESULT_KEYS:
            value = self.result[key]
            if value is None or key == "td":
                continue
            if key in joined:
                lines.append(f"{key}: {' '.join(value)}")
            elif isinstance(value, bool):
                lines.append(f"{key}: {str(value).lower()}")
            else:
                lines.append(f"{key}: {value}")
        lines.append(f"valid: {str(self.validation['ok']).lower()}")
        lines.append(f"time_ms: {self.timings_ms['total']}")
        return "\n".join(lines) + "\n"


def rational(text: str) -> Fraction:
    """Parse 'a' or 'a/b' exactly; decimal floats are not accepted."""
    match = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?", text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer or num/den rational, got {text!r}"
        )
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    if den == 0:
        raise argparse.ArgumentTypeError("rational denominator must be nonzero")
    return Fraction(num, den)


def _vname(v: int) -> str:
    return f"v{v}"


def _witness_tokens(witness: Sequence[int]) -> list[str]:
    return [_vname(v) for v in witness]


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> WeightedGraph:
    return parse_graph(_read_text(path))


def _parse_vertex_file(text: str, n: int) -> list[int]:
    """Whitespace-separated vertex tokens ('v3' or '3'); 'c' lines are comments."""
    ids: list[int] = []
    for line_no, fields in records(text):
        values = ints(line_no, [t[1:] if t[:1] in ("v", "V") else t for t in fields])
        for token, value in zip(fields, values):
            if not 0 <= value < n:
                raise ParseError(line_no, f"vertex {token} out of range 0..{n - 1}")
        ids.extend(values)
    return ids


T = TypeVar("T")

_BOOLEAN_TOKENS = {"1": True, "t": True, "true": True, "0": False, "f": False, "false": False}


def _booleans(line_no: int, tokens: list[str]) -> list[bool]:
    for token in tokens:
        if token.lower() not in _BOOLEAN_TOKENS:
            raise ParseError(line_no, f"bad boolean token {token!r} in assignment file")
    return [_BOOLEAN_TOKENS[token.lower()] for token in tokens]


def _read_assignment(
    path: str | None, parse: Callable[[int, list[str]], list[T]]
) -> list[T] | None:
    """The --assignment file's records through ``parse``; None without a file."""
    if not path:
        return None
    values: list[T] = []
    for line_no, fields in records(_read_text(path)):
        values.extend(parse(line_no, fields))
    return values


def _check_exact_witness(g: WeightedGraph, witness: Sequence[int], d: int, size: int) -> None:
    if len(witness) != size or not is_scattered(g, witness, d):
        raise AssertionError(
            f"witness of claimed size {size} failed distance-{d} re-validation"
        )


def _emit(report: RunReport, args: argparse.Namespace) -> None:
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(), end="")


def _pick_decomposition(args: argparse.Namespace, g: WeightedGraph) -> TreeDecomposition:
    """The --td file, parsed only: the solver that consumes it validates it."""
    if getattr(args, "td", None):
        return parse_td(_read_text(args.td))
    return heuristic_decomposition(g)


def cmd_solve(args: argparse.Namespace) -> int:
    d = args.d
    epsilon = args.epsilon
    if args.algo == "approx" and epsilon is None:
        raise UsageError("--algo approx requires --epsilon")
    if args.algo != "approx" and epsilon is not None:
        raise UsageError("--epsilon applies only to --algo approx")
    if args.algo in ("vc", "brute") and args.td:
        raise UsageError(f"--algo {args.algo} takes no --td")
    if args.k is not None and args.k < 0:
        raise ValueError("k must be >= 0")
    g = _load_graph(args.graph)
    report = RunReport(command="solve", solver=args.algo)
    report.parameters.update(
        d=d,
        k=args.k,
        epsilon=str(epsilon) if epsilon is not None else None,
    )
    started = time.perf_counter()
    if args.algo == "brute":
        size, witness = brute_force_max(g, d)
    elif args.algo == "vc":
        size, witness = max_scattered_vc(g, d)
    elif args.algo == "approx":
        td = _pick_decomposition(args, g)
        size, witness = approx_max_scattered(g, td, d, epsilon)
    else:
        td = _pick_decomposition(args, g)
        nd = make_nice(td)
        size, witness = max_scattered(g, nd, d)
        report.result["width"] = nd.width
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)

    if args.algo == "approx":
        # (1+epsilon) * dist >= d, exactly, at the integer threshold.
        _check_exact_witness(g, witness, slack_threshold(d, epsilon), size)
        report.validation["checks"].append("relaxed-distance guarantee re-validated")
    else:
        _check_exact_witness(g, witness, d, size)
        report.validation["checks"].append("witness re-validated")
    report.result["size"] = size
    report.result["witness"] = _witness_tokens(witness)
    if args.k is not None:
        report.result["target_met"] = size >= args.k
    _emit(report, args)
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.k > g.n + _MAX_ZERO_COUNTS:
        raise ValueError(
            f"--k {args.k} exceeds n = {g.n} by more than {_MAX_ZERO_COUNTS}; "
            "every size past n counts 0"
        )
    report = RunReport(command="count", solver="tw")
    report.parameters.update(d=args.d, k=args.k)
    started = time.perf_counter()
    td = _pick_decomposition(args, g)
    nd = make_nice(td)
    counts = count_scattered(g, nd, args.d, args.k)
    report.result["width"] = nd.width
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
    if counts[0] != 1:
        raise AssertionError("count of size-0 sets must be 1")
    report.validation["checks"].append("size-0 count is 1")
    # Every single vertex is scattered, so this check needs no search.
    if args.k >= 1:
        if counts[1] != g.n:
            raise AssertionError(f"count of size-1 sets must be n = {g.n}, got {counts[1]}")
        report.validation["checks"].append("size-1 count is n")
    report.result["counts"] = [str(c) for c in counts]
    _emit(report, args)
    return EXIT_OK


def _vertex_lines(header: str, vertices: Sequence[int]) -> str:
    return f"{header}\n" + "\n".join(_witness_tokens(vertices)) + "\n"


def _write_files(
    stem: str, graph: WeightedGraph, extras: dict[str, str], manifest: dict[str, object]
) -> list[str]:
    """Write <stem>.dss, each extra <stem><suffix>, then <stem>.params.json."""
    bodies = {".dss": format_dss(graph), **extras}
    bodies[".params.json"] = json.dumps(manifest, indent=2) + "\n"
    files: list[str] = []
    for suffix, body in bodies.items():
        path = Path(stem + suffix)
        path.write_text(body, encoding="utf-8")
        files.append(str(path))
    return files


def _build_gadget(args: argparse.Namespace) -> GadgetOutput:
    if args.family in ("w1vc", "fvs"):
        inst = parse_mcis(_read_text(args.mcis))
        assignment = _read_assignment(args.assignment, ints)
        builder = gen_w1_vc if args.family == "w1vc" else gen_fvs_unweighted
        return builder(inst, assignment)
    phi = parse_cnf(_read_text(args.cnf))
    assignment = _read_assignment(args.assignment, _booleans)
    if args.family == "seth":
        return gen_seth(phi, args.d, args.epsilon, assignment)
    return gen_td_eth(phi, assignment)


def cmd_gen(args: argparse.Namespace) -> int:
    report = RunReport(command="gen", solver=args.family)
    started = time.perf_counter()
    extras: dict[str, str] = {}
    if args.family == "random":
        spec = RandomSpec(
            n=args.n,
            edge_probability=args.p,
            max_weight=args.max_weight,
            seed=args.seed,
        )
        graph = gen_random_graph(spec)
        manifest: dict[str, object] = {
            "family": "random",
            "n": graph.n,
            "edges": len(graph.edges),
            "p": str(args.p),
            "max_weight": args.max_weight,
            "seed": args.seed,
        }
        report.parameters.update(seed=args.seed)
    else:
        out = _build_gadget(args)
        if args.assignment and out.witness is None:
            raise ValueError("assignment rejected by the construction; no witness emitted")
        graph = out.graph
        if out.witness is not None:
            # The generator has re-checked its witness's size and distance.
            report.validation["checks"].append("witness re-validated")
            report.result["witness"] = _witness_tokens(out.witness)
            extras[".witness"] = _vertex_lines(
                f"c d {out.d} size {len(out.witness)}", out.witness
            )
        if out.certificate_kind != "none":
            extras[".certificate"] = _vertex_lines(
                f"c kind: {out.certificate_kind}", out.certificate
            )
        manifest = {
            "family": args.family,
            "d": out.d,
            "target_size": out.target_size,
            "vertices": graph.n,
            "edges": len(graph.edges),
            "witness_size": len(out.witness) if out.witness is not None else None,
            "certificate_kind": out.certificate_kind,
            **out.params,
        }
        report.parameters["d"] = out.d
        if args.family == "seth":
            report.parameters["epsilon"] = str(args.epsilon)
        report.result["size"] = out.target_size
    report.result["files"] = _write_files(args.out, graph, extras, manifest)
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
    _emit(report, args)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = RunReport(command="decompose", solver="heuristic")
    started = time.perf_counter()
    td = heuristic_decomposition(g)
    if args.balance:
        # balance() raises unless width <= 3w+2 and depth <= 4*bitlen(n)+4.
        td = balance(td, g)
        report.solver += "+balance"
        report.validation["checks"].append("balance width and depth bounds checked")
    if args.nice:
        nd = make_nice(td)
        problem = validate_nice(nd)
        if problem is not None:
            raise AssertionError(f"nice-form validation failed: {problem.message}")
        td = nice_to_tree(nd)
        report.solver += "+nice"
        report.validation["checks"].append("nice-form validated")

    text = format_td(td, g.n)
    # Round-trip re-validation of whatever is about to be emitted.
    reparsed = parse_td(text)
    violation = validate_decomposition(g, reparsed)
    if violation is not None:
        raise AssertionError(
            f"emitted decomposition failed re-validation "
            f"({violation.kind}: {violation.message})"
        )
    report.validation["checks"].append("round-trip re-validated")
    report.result["width"] = td.width
    report.result["depth"] = decomposition_depth(td)
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)

    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        report.result["files"] = [args.out]
        _emit(report, args)
    elif args.json:
        report.result["td"] = text
        _emit(report, args)
    else:
        # Comment lines keep the stream a valid .td file.
        sys.stdout.write(f"c width: {td.width}\n")
        sys.stdout.write(f"c depth: {report.result['depth']}\n")
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    if args.td and args.d is not None:
        raise UsageError("--d applies only to --set")
    g = _load_graph(args.graph)
    report = RunReport(command="validate", solver="td" if args.td else "set")
    started = time.perf_counter()
    if args.td:
        td = parse_td(_read_text(args.td))
        violation = validate_decomposition(g, td)
        if violation is not None:
            witness = " ".join(str(x) for x in violation.witness)
            report.result["violation"] = f"{violation.kind}: {violation.message} [{witness}]"
            report.validation["ok"] = False
        else:
            report.validation["checks"].append("decomposition validated")
            report.result["width"] = td.width
    else:
        if args.d is None:
            raise UsageError("--set requires --d")
        if args.d < 2:
            raise ValueError("d must be >= 2")
        members = _parse_vertex_file(_read_text(args.set), g.n)
        report.parameters.update(d=args.d)
        bad = scattered_violation(g, members, args.d)
        if bad is not None:
            u, v, dist = bad
            report.result["violation"] = (
                f"pair ({_vname(u)}, {_vname(v)}) dist {dist} < {args.d}"
            )
            report.validation["ok"] = False
        else:
            report.validation["checks"].append(
                f"{len(members)} vertices pairwise at distance >= {args.d}"
            )
            report.result["size"] = len(members)
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
    _emit(report, args)
    return EXIT_OK if report.validation["ok"] else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument grammar, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="scatterset",
        description="Solvers, counters, and instance tooling for d-scattered sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command's report prints as text or, with --json, as JSON.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    p_solve = sub.add_parser("solve", help="maximize a d-scattered set", parents=[json_flag])
    p_solve.add_argument("--graph", required=True, help=".dss graph file")
    p_solve.add_argument("--d", type=int, required=True, help="distance requirement")
    p_solve.add_argument(
        "--algo", choices=("tw", "vc", "approx", "brute"), default="tw"
    )
    p_solve.add_argument(
        "--td", help="tree decomposition file for --algo tw|approx (default: heuristic)"
    )
    p_solve.add_argument("--epsilon", type=rational, help="relaxation for --algo approx")
    p_solve.add_argument("--k", type=int, help="report whether the optimum reaches k")
    p_solve.set_defaults(func=cmd_solve)

    p_count = sub.add_parser(
        "count", help="count d-scattered sets of sizes 0..k", parents=[json_flag]
    )
    p_count.add_argument("--graph", required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--td", help="tree decomposition file (default: heuristic)")
    p_count.set_defaults(func=cmd_count)

    p_gen = sub.add_parser("gen", help="generate instance files")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    g_random = gen_sub.add_parser(
        "random", help="seeded random weighted graph", parents=[json_flag]
    )
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--p", type=rational, required=True, help="edge probability")
    g_random.add_argument("--max-weight", type=int, default=1)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--out", default="random", help="output stem")

    g_w1vc = gen_sub.add_parser(
        "w1vc",
        help="weighted instance from a multicolored independent-set input",
        parents=[json_flag],
    )
    g_w1vc.add_argument("--mcis", required=True, help="MCIS instance file")
    g_w1vc.add_argument("--assignment", help="class choices, one per class")
    g_w1vc.add_argument("--out", default="w1vc")

    g_fvs = gen_sub.add_parser(
        "fvs",
        help="unit-weight instance from a multicolored independent-set input",
        parents=[json_flag],
    )
    g_fvs.add_argument("--mcis", required=True)
    g_fvs.add_argument("--assignment")
    g_fvs.add_argument("--out", default="fvs")

    g_seth = gen_sub.add_parser(
        "seth", help="pathwidth-bounded instance from a CNF", parents=[json_flag]
    )
    g_seth.add_argument("--cnf", required=True, help="DIMACS CNF file")
    g_seth.add_argument("--d", type=int, required=True)
    g_seth.add_argument("--epsilon", type=rational, required=True)
    g_seth.add_argument("--assignment", help="boolean tokens, one per variable")
    g_seth.add_argument("--out", default="seth")

    g_tdeth = gen_sub.add_parser(
        "tdeth", help="treedepth-bounded instance from a 3-CNF", parents=[json_flag]
    )
    g_tdeth.add_argument("--cnf", required=True)
    g_tdeth.add_argument("--assignment")
    g_tdeth.add_argument("--out", default="tdeth")

    p_gen.set_defaults(func=cmd_gen)

    p_dec = sub.add_parser("decompose", help="emit a tree decomposition", parents=[json_flag])
    p_dec.add_argument("--graph", required=True)
    p_dec.add_argument("--balance", action="store_true", help="depth-bounded rebuild")
    p_dec.add_argument("--nice", action="store_true", help="emit the nice form's tree")
    p_dec.add_argument("--out", help="write .td here instead of stdout")
    p_dec.set_defaults(func=cmd_decompose)

    p_val = sub.add_parser(
        "validate", help="check a decomposition or a vertex set", parents=[json_flag]
    )
    p_val.add_argument("--graph", required=True)
    target = p_val.add_mutually_exclusive_group(required=True)
    target.add_argument("--td", help="tree decomposition to validate")
    target.add_argument("--set", help="claimed scattered set (vertex tokens)")
    p_val.add_argument("--d", type=int, help="distance requirement for --set")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # A closed stdout fails here, not in the flush at exit.
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout, as `| head -c 1` does.  Point its
        # descriptor at devnull, so that the flush at exit writes nowhere
        # instead of failing again and printing a second error.
        try:
            stdout_fd = sys.stdout.fileno()
        except (OSError, ValueError):
            pass  # a stream without a descriptor is not flushed to one at exit
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # Last resort, e.g. balance()'s failed bounds or a RecursionError:
        # one line, no traceback.
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

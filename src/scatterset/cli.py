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
error, 4 internal error (a failed invariant or any unexpected exception,
reported on one line).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

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
    WeightedGraph,
    format_dss,
    is_scattered,
    parse_graph,
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


class InternalCheckError(RuntimeError):
    """A result failed its final re-validation before being emitted."""


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
        joined = {
            "counts": " ".join,
            "witness": " ".join,
            "files": " ".join,
        }
        for key in _RESULT_KEYS:
            value = self.result[key]
            if value is None or key == "td":
                continue
            if key in joined:
                lines.append(f"{key}: {joined[key](value)}")
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


def _load_td(path: str, g: WeightedGraph) -> TreeDecomposition:
    td = parse_td(_read_text(path))
    violation = validate_decomposition(g, td)
    if violation is not None:
        raise ValueError(
            f"decomposition {path} is invalid "
            f"({violation.kind}: {violation.message})"
        )
    return td


def _parse_vertex_file(text: str, n: int) -> list[int]:
    """Whitespace-separated vertex tokens ('v3' or '3'); 'c' lines are comments."""
    ids: list[int] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped == "c" or stripped.startswith("c "):
            continue
        for token in stripped.split():
            body = token[1:] if token[:1] in ("v", "V") else token
            try:
                value = int(body)
            except ValueError:
                raise ValueError(f"bad vertex token {token!r}") from None
            if not 0 <= value < n:
                raise ValueError(f"vertex {token} out of range 0..{n - 1}")
            ids.append(value)
    return ids


def _parse_bool_tokens(text: str) -> list[bool]:
    values: list[bool] = []
    for token in text.split():
        low = token.lower()
        if low in ("1", "t", "true"):
            values.append(True)
        elif low in ("0", "f", "false"):
            values.append(False)
        else:
            raise ValueError(f"bad boolean token {token!r} in assignment file")
    return values


def _parse_int_tokens(text: str) -> list[int]:
    values: list[int] = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"bad integer token {token!r} in assignment file") from None
    return values


def _check_exact_witness(g: WeightedGraph, witness: Sequence[int], d: int, size: int) -> None:
    if len(witness) != size or not is_scattered(g, witness, d):
        raise InternalCheckError(
            f"witness of claimed size {size} failed distance-{d} re-validation"
        )


def _emit(report: RunReport, args: argparse.Namespace) -> None:
    if getattr(args, "json", False):
        print(report.to_json())
    else:
        print(report.to_text(), end="")


def _pick_decomposition(args: argparse.Namespace, g: WeightedGraph) -> TreeDecomposition:
    if getattr(args, "td", None):
        return _load_td(args.td, g)
    return heuristic_decomposition(g)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    d = args.d
    epsilon = args.epsilon
    if args.algo == "approx" and epsilon is None:
        raise UsageError("--algo approx requires --epsilon")
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
    report = RunReport(command="count", solver="tw")
    report.parameters.update(d=args.d, k=args.k)
    started = time.perf_counter()
    td = _pick_decomposition(args, g)
    nd = make_nice(td)
    counts = count_scattered(g, nd, args.d, args.k)
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
    if counts[0] != 1:
        raise InternalCheckError("count of size-0 sets must be 1")
    report.validation["checks"].append("size-0 count is 1")
    report.result["counts"] = [str(c) for c in counts]
    _emit(report, args)
    return EXIT_OK


def _write_gadget_files(stem: str, out: GadgetOutput, family: str) -> list[str]:
    files: list[str] = []
    graph_path = Path(stem + ".dss")
    graph_path.write_text(format_dss(out.graph), encoding="utf-8")
    files.append(str(graph_path))
    if out.witness is not None:
        witness_path = Path(stem + ".witness")
        body = f"c d {out.d} size {len(out.witness)}\n"
        body += "\n".join(_vname(v) for v in out.witness) + "\n"
        witness_path.write_text(body, encoding="utf-8")
        files.append(str(witness_path))
    if out.certificate_kind != "none":
        cert_path = Path(stem + ".certificate")
        body = f"c kind: {out.certificate_kind}\n"
        body += "\n".join(_vname(v) for v in out.certificate) + "\n"
        cert_path.write_text(body, encoding="utf-8")
        files.append(str(cert_path))
    manifest = {
        "family": family,
        "d": out.d,
        "target_size": out.target_size,
        "vertices": out.graph.n,
        "edges": len(out.graph.edges),
        "witness_size": len(out.witness) if out.witness is not None else None,
        "certificate_kind": out.certificate_kind,
    }
    manifest.update(out.params)
    params_path = Path(stem + ".params.json")
    params_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    files.append(str(params_path))
    return files


def cmd_gen(args: argparse.Namespace) -> int:
    report = RunReport(command="gen", solver=args.family)
    started = time.perf_counter()
    stem = args.out

    if args.family == "random":
        spec = RandomSpec(
            n=args.n,
            edge_probability=args.p,
            max_weight=args.max_weight,
            seed=args.seed,
        )
        g = gen_random_graph(spec)
        graph_path = Path(stem + ".dss")
        graph_path.write_text(format_dss(g), encoding="utf-8")
        manifest = {
            "family": "random",
            "n": g.n,
            "edges": len(g.edges),
            "p": str(args.p),
            "max_weight": args.max_weight,
            "seed": args.seed,
        }
        params_path = Path(stem + ".params.json")
        params_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        report.parameters.update(seed=args.seed)
        report.result["files"] = [str(graph_path), str(params_path)]
        report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
        _emit(report, args)
        return EXIT_OK

    if args.family in ("w1vc", "fvs"):
        inst = parse_mcis(_read_text(args.mcis))
        assignment = (
            _parse_int_tokens(_read_text(args.assignment)) if args.assignment else None
        )
        builder = gen_w1_vc if args.family == "w1vc" else gen_fvs_unweighted
        out = builder(inst, assignment)
    elif args.family == "seth":
        phi = parse_cnf(_read_text(args.cnf))
        assignment = (
            _parse_bool_tokens(_read_text(args.assignment)) if args.assignment else None
        )
        out = gen_seth(phi, args.d, args.epsilon, assignment)
        report.parameters.update(d=args.d, epsilon=str(args.epsilon))
    else:
        phi = parse_cnf(_read_text(args.cnf))
        assignment = (
            _parse_bool_tokens(_read_text(args.assignment)) if args.assignment else None
        )
        out = gen_td_eth(phi, assignment)

    if assignment is not None and out.witness is None:
        raise ValueError(
            "assignment rejected by the construction; no witness emitted"
        )
    if out.witness is not None:
        _check_exact_witness(g=out.graph, witness=out.witness, d=out.d, size=out.target_size)
        report.validation["checks"].append("witness re-validated")
        report.result["witness"] = _witness_tokens(out.witness)
    report.parameters["d"] = out.d
    report.result["size"] = out.target_size
    report.result["files"] = _write_gadget_files(stem, out, args.family)
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
            raise InternalCheckError(f"nice-form validation failed: {problem}")
        td = nice_to_tree(nd)
        report.solver += "+nice"
        report.validation["checks"].append("nice-form validated")

    text = format_td(td, g.n)
    # Round-trip re-validation of whatever is about to be emitted.
    reparsed = parse_td(text)
    violation = validate_decomposition(g, reparsed)
    if violation is not None:
        raise InternalCheckError(
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
    elif getattr(args, "json", False):
        report.result["td"] = text
        _emit(report, args)
    else:
        # Comment lines keep the stream a valid .td file.
        sys.stdout.write(f"c width: {td.width}\n")
        sys.stdout.write(f"c depth: {report.result['depth']}\n")
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
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
        # A repeated vertex is a pair at distance 0.
        distinct: set[int] = set()
        bad = None
        for v in members:
            if v in distinct:
                bad = (v, v, 0)
                break
            distinct.add(v)
        if bad is None:
            bad = scattered_violation(g, members, args.d)
        if bad is not None:
            u, v, dist = bad
            report.result["violation"] = (
                f"pair ({_vname(u)}, {_vname(v)}) dist {dist} < {args.d}"
            )
            report.validation["ok"] = False
        else:
            report.validation["checks"].append(
                f"{len(distinct)} vertices pairwise at distance >= {args.d}"
            )
            report.result["size"] = len(distinct)
    report.timings_ms["total"] = round((time.perf_counter() - started) * 1000, 3)
    _emit(report, args)
    return EXIT_OK if report.validation["ok"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatterset",
        description="Solvers, counters, and instance tooling for d-scattered sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="maximize a d-scattered set")
    p_solve.add_argument("--graph", required=True, help=".dss graph file")
    p_solve.add_argument("--d", type=int, required=True, help="distance requirement")
    p_solve.add_argument(
        "--algo", choices=("tw", "vc", "approx", "brute"), default="tw"
    )
    p_solve.add_argument("--td", help="tree decomposition file (default: heuristic)")
    p_solve.add_argument("--epsilon", type=rational, help="relaxation for --algo approx")
    p_solve.add_argument("--k", type=int, help="report whether the optimum reaches k")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_count = sub.add_parser("count", help="count d-scattered sets of sizes 0..k")
    p_count.add_argument("--graph", required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--td", help="tree decomposition file (default: heuristic)")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_gen = sub.add_parser("gen", help="generate instance files")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    g_random = gen_sub.add_parser("random", help="seeded random weighted graph")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--p", type=rational, required=True, help="edge probability")
    g_random.add_argument("--max-weight", type=int, default=1)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--out", default="random", help="output stem")
    g_random.add_argument("--json", action="store_true")

    g_w1vc = gen_sub.add_parser(
        "w1vc", help="weighted instance from a multicolored independent-set input"
    )
    g_w1vc.add_argument("--mcis", required=True, help="MCIS instance file")
    g_w1vc.add_argument("--assignment", help="class choices, one per class")
    g_w1vc.add_argument("--out", default="w1vc")
    g_w1vc.add_argument("--json", action="store_true")

    g_fvs = gen_sub.add_parser(
        "fvs", help="unit-weight instance from a multicolored independent-set input"
    )
    g_fvs.add_argument("--mcis", required=True)
    g_fvs.add_argument("--assignment")
    g_fvs.add_argument("--out", default="fvs")
    g_fvs.add_argument("--json", action="store_true")

    g_seth = gen_sub.add_parser("seth", help="pathwidth-bounded instance from a CNF")
    g_seth.add_argument("--cnf", required=True, help="DIMACS CNF file")
    g_seth.add_argument("--d", type=int, required=True)
    g_seth.add_argument("--epsilon", type=rational, required=True)
    g_seth.add_argument("--assignment", help="boolean tokens, one per variable")
    g_seth.add_argument("--out", default="seth")
    g_seth.add_argument("--json", action="store_true")

    g_tdeth = gen_sub.add_parser("tdeth", help="treedepth-bounded instance from a 3-CNF")
    g_tdeth.add_argument("--cnf", required=True)
    g_tdeth.add_argument("--assignment")
    g_tdeth.add_argument("--out", default="tdeth")
    g_tdeth.add_argument("--json", action="store_true")

    p_gen.set_defaults(func=cmd_gen)

    p_dec = sub.add_parser("decompose", help="emit a tree decomposition")
    p_dec.add_argument("--graph", required=True)
    p_dec.add_argument("--balance", action="store_true", help="depth-bounded rebuild")
    p_dec.add_argument("--nice", action="store_true", help="emit the nice form's tree")
    p_dec.add_argument("--out", help="write .td here instead of stdout")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_val = sub.add_parser("validate", help="check a decomposition or a vertex set")
    p_val.add_argument("--graph", required=True)
    target = p_val.add_mutually_exclusive_group(required=True)
    target.add_argument("--td", help="tree decomposition to validate")
    target.add_argument("--set", help="claimed scattered set (vertex tokens)")
    p_val.add_argument("--d", type=int, help="distance requirement for --set")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
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

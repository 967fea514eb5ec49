"""Every public callable is one the command line reaches, or a listed exception.

The walk parses `src/scatterset` with `ast` and follows names from
`cli.main`: a reached top-level definition reaches every definition of each
name its statement mentions, as a bare name or as an attribute.  Matching
by name alone can only over-approximate what the CLI runs, so a name this
test calls unreached is one no command needs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import scatterset

SRC = Path(scatterset.__file__).parent

# Public names no command reaches, and what still needs each of them.
NOT_REACHED = {
    "all_pairs_distances": "bench/tracing.py wraps it, and tests use it as the distance reference",
    "dijkstra_from": "bench/tracing.py wraps it, and tests use it as the distance reference",
    "brute_force_count": "bench/pin.py checks the pinned counts against it",
}


def _bound(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement binds, other than by import."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    return [
        node.id
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    ]


def _mentioned(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def reached_from_cli_main() -> set[str]:
    """Names of the top-level definitions in src/ that `cli.main` reaches."""
    defs: dict[str, list[ast.stmt]] = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for name in _bound(stmt):
                defs.setdefault(name, []).append(stmt)
    reached = {"main"}
    todo = list(defs["main"])
    while todo:
        for name in _mentioned(todo.pop()):
            if name in defs and name not in reached:
                reached.add(name)
                todo += defs[name]
    return reached


def test_every_public_callable_is_reached_from_the_cli_or_listed():
    public = {name for name in scatterset.__all__ if callable(getattr(scatterset, name))}
    reached = reached_from_cli_main()
    assert sorted(public - reached - NOT_REACHED.keys()) == []
    # The list stays exact: each entry is public and still unreached.
    assert NOT_REACHED.keys() <= public - reached

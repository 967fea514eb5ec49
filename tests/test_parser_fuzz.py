"""Seeded mutation fuzzing of every input reader via the CLI.

Valid texts are mutated a little (lines dropped, duplicated or swapped,
integers moved by up to 3, garbage tokens inserted) and sent through
`scatterset validate` (.dss, .td and vertex-set files) or `scatterset gen`
(.mcis and assignment files through `w1vc`, .cnf through `tdeth`).  Whatever
the input, the exit code must be 0 (valid), 1 (violation) or 3 (malformed
input), with at most one line on stderr and never a traceback.  The sources
are tiny, and a header nudged by a few units still asks for a small build.
"""

from __future__ import annotations

import random

from scatterset.cli import main
from scatterset.decomp import format_td, heuristic_decomposition
from scatterset.graph_core import WeightedGraph, format_dss

GRAPH = WeightedGraph(n=6, edges=((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1), (3, 4, 3)))
TEXTS = {
    "graph": format_dss(GRAPH),
    "td": format_td(heuristic_decomposition(GRAPH), GRAPH.n),
    "set": "c claimed set\nv0 v2\nv5\n",
}
SOURCES = {
    "mcis": "c two classes\np mcis 2 2\ne 1.1 2.2\n",
    "assignment": "c one choice per class\n1 1\n",
}
# tdeth pads the variable count to a square: a 5-variable source already
# takes about 0.6 s to build, so the CNF sources keep to one and two.
CNFS = ("p cnf 1 1\n1 0\n", "c two variables\np cnf 2 2\n1 -2 0\n2 0\n")
GARBAGE = ("x", "-1", "0", "e", "b", "s", "p", "td", "dss", "c", "v", "v-2", "1.5", "1/2", "--")


def _nudge(token: str, rng: random.Random) -> str:
    prefix = token[:1] if token[:1] in ("v", "V") else ""
    try:
        value = int(token[len(prefix):])
    except ValueError:
        return token
    return f"{prefix}{value + rng.randint(-3, 3)}"


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(GARBAGE))
            continue
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            if op == 3 and tokens:
                k = rng.randrange(len(tokens))
                tokens[k] = _nudge(tokens[k], rng)
            else:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(GARBAGE))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _exits_cleanly(argv: list[str], capsys, context: object) -> int:
    code = main(argv)
    _, err = capsys.readouterr()
    assert code in (0, 1, 3), context
    assert "Traceback" not in err and len(err.splitlines()) <= 1, context
    return code


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20171018)
    codes = set()
    for case in range(300):
        texts = dict(TEXTS)
        target = ("graph", "td", "set")[case % 3]
        texts[target] = mutate(texts[target], rng)
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        for check in (["--td", str(paths["td"])], ["--set", str(paths["set"]), "--d", "3"]):
            argv = ["validate", "--graph", str(paths["graph"]), *check]
            codes.add(_exits_cleanly(argv, capsys, (case, target, texts[target])))
    # The mutations reach every outcome, not only parse errors.
    assert codes == {0, 1, 3}


def test_mutated_generator_sources_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20171019)
    codes = set()
    out = str(tmp_path / "out")
    for case in range(150):
        target = ("mcis", "assignment", "cnf")[case % 3]
        if target == "cnf":
            text = mutate(CNFS[case % 2], rng)
            (tmp_path / "f.cnf").write_text(text)
            argv = ["gen", "tdeth", "--cnf", str(tmp_path / "f.cnf"), "--out", out]
        else:
            texts = dict(SOURCES)
            texts[target] = text = mutate(texts[target], rng)
            for name, source in texts.items():
                (tmp_path / name).write_text(source)
            argv = [
                "gen", "w1vc", "--mcis", str(tmp_path / "mcis"),
                "--assignment", str(tmp_path / "assignment"), "--out", out,
            ]
        codes.add(_exits_cleanly(argv, capsys, (case, target, text)))
    # Generators report a rejected source or assignment as exit 3, never 1.
    assert codes == {0, 3}

"""Seeded mutation fuzzing of the .dss, .td and vertex-set parsers via the CLI.

Valid texts are mutated a little (lines dropped, duplicated or swapped,
integers moved by up to 3, garbage tokens inserted) and sent through
`scatterset validate`.  Whatever the input, the exit code must be 0 (valid),
1 (violation) or 3 (malformed input), with at most one line on stderr and
never a traceback.  The graphs are tiny, so no header can ask for a large
allocation.
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
            code = main(["validate", "--graph", str(paths["graph"]), *check])
            _, err = capsys.readouterr()
            context = (case, target, texts[target])
            assert code in (0, 1, 3), context
            assert "Traceback" not in err and len(err.splitlines()) <= 1, context
            codes.add(code)
    # The mutations reach every outcome, not only parse errors.
    assert codes == {0, 1, 3}

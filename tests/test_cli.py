"""Command-line surface: pinned outputs, file artifacts, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scatterset.cli as cli
import scatterset.gadgets as gadgets
import scatterset.graph_core as graph_core
import scatterset.tw_approx as tw_approx
import scatterset.tw_exact as tw_exact
import scatterset.vc_fpt as vc_fpt
from conftest import cycle_graph, path_graph
from scatterset.cli import main
from scatterset.graph_core import format_dss, parse_graph
from scatterset.oracle import RandomSpec, gen_random_graph

YES_MCIS = "p mcis 2 2\ne 1.1 2.2\n"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def p5(tmp_path) -> str:
    target = tmp_path / "p5.dss"
    target.write_text(format_dss(path_graph(5)))
    return str(target)


@pytest.fixture()
def c5(tmp_path) -> str:
    target = tmp_path / "c5.dss"
    target.write_text(format_dss(cycle_graph(5)))
    return str(target)


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises, as on a closed pipe."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_4_with_one_line(monkeypatch, capsys, p5):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["solve", "--graph", p5, "--d", "3", "--json"])
    monkeypatch.undo()
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "error: stdout was closed before the report was written\n"
    # A real pipe whose read end is closed: the flush at interpreter exit
    # must not add a second line, and the exit code stays 4.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "scatterset.cli", "solve", "--graph", p5, "--d", "3", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, text=True,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (4, err)


# -- solve --------------------------------------------------------------------


def test_solve_brute_pinned(capsys, p5):
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--algo", "brute")
    assert code == 0
    assert "size: 2" in out
    assert "witness: " in out


@pytest.mark.parametrize("algo", ["tw", "vc", "brute"])
def test_solve_algorithms_agree(capsys, p5, algo):
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--algo", algo)
    assert code == 0 and "size: 2" in out


def test_solve_approx_meets_guarantee(capsys, p5):
    code, out, _ = run_cli(
        capsys, "solve", "--graph", p5, "--d", "3",
        "--algo", "approx", "--epsilon", "1/2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["size"] >= 2
    assert report["validation"]["ok"] is True
    assert report["parameters"]["epsilon"] == "1/2"


def test_solve_vc_redirects_small_d(capsys, tmp_path):
    p4 = tmp_path / "p4.dss"
    p4.write_text(format_dss(path_graph(4)))
    code, _, err = run_cli(capsys, "solve", "--graph", str(p4), "--d", "2", "--algo", "vc")
    assert code == 3
    assert err.splitlines() == ["error: d must be >= 3 here; for d = 2 use --algo tw"]


def test_solve_vc_refuses_a_cover_search_past_its_limit(capsys, tmp_path, monkeypatch):
    # The fvs gadget of a 3x3 source has a greedy matching of 693 edges, so
    # its minimum cover has at least 693 vertices.
    monkeypatch.chdir(tmp_path)
    Path("in.mcis").write_text("p mcis 3 3\ne 1.1 2.2\ne 1.2 2.3\ne 2.1 3.3\ne 1.3 3.1\n")
    code, _, _ = run_cli(capsys, "gen", "fvs", "--mcis", "in.mcis")
    assert code == 0
    code, _, err = run_cli(capsys, "solve", "--graph", "fvs.dss", "--d", "18", "--algo", "vc")
    assert code == 3
    assert err.splitlines() == [
        "error: vertex cover search refused: a greedy matching has 693 edges, more than 20"
    ]


def test_solve_vc_refuses_a_packing_past_its_profile_bound(capsys, tmp_path, monkeypatch):
    # The 9-cycle has a cover of 5 vertices; at d = 3 its packing peaks at
    # 21 live profiles, and the fourth already passes a bound of 3.
    graph = tmp_path / "c9.dss"
    graph.write_text(format_dss(cycle_graph(9)))
    monkeypatch.setattr(vc_fpt, "_MAX_PROFILES", 3)
    code, out, err = run_cli(capsys, "solve", "--graph", str(graph), "--d", "3", "--algo", "vc")
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: vc packing refused: 4 live profiles over a cover of 5 vertices, more than 3"
    ]


def test_solve_approx_requires_epsilon(capsys, p5):
    code, _, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--algo", "approx")
    assert code == 2
    assert "epsilon" in err


def test_solve_reports_target(capsys, p5):
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--k", "2")
    assert code == 0 and "target_met: true" in out
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--k", "3")
    assert code == 0 and "target_met: false" in out


@pytest.mark.parametrize("command", ["solve", "count"])
def test_negative_k_is_refused(capsys, p5, monkeypatch, command):
    if command == "solve":
        # solve refuses before it decomposes or solves anything.
        def no_solver(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("heuristic_decomposition", "max_scattered"):
            monkeypatch.setattr(cli, name, no_solver)
    code, out, err = run_cli(capsys, command, "--graph", p5, "--d", "3", "--k", "-5")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: k must be >= 0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--k", "-1", "--d", "3"), "k must be >= 0"),
        (("count", "--k", "2", "--d", "1"), "d must be >= 2"),
        (("count", "--k", "-1", "--d", "1"), "k must be >= 0"),
        (("solve", "--d", "1"), "d must be >= 2"),
        (("solve", "--d", "1", "--algo", "brute"), "d must be >= 2"),
        (("solve", "--d", "3", "--algo", "approx", "--epsilon", "0"), "epsilon must be positive"),
        (("solve", "--d", "1", "--algo", "approx", "--epsilon", "0"), "epsilon must be positive"),
        (("solve", "--d", "1", "--algo", "approx", "--epsilon", "1", "--k", "-1"), "k must be >= 0"),
    ],
)
def test_bad_parameters_are_refused_before_the_graph_is_read(capsys, p5, monkeypatch, argv, message):
    # The solvers' own words and order: k, then epsilon, then d.
    def no_graph(text):
        raise AssertionError("the graph was read")

    monkeypatch.setattr(cli, "parse_graph", no_graph)
    code, out, err = run_cli(capsys, *argv, "--graph", p5)
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("validate", "--set", "claim.txt", "--d", "1"), "error: d must be >= 2"),
        (("validate", "--set", "claim.txt", "--d", "-3"), "error: d must be >= 2"),
        (("validate", "--set", "claim.txt"), "usage error: --set requires --d"),
        (
            ("solve", "--d", "2", "--algo", "vc"),
            "error: d must be >= 3 here; for d = 2 use --algo tw",
        ),
        (
            ("solve", "--d", "1", "--algo", "vc"),
            "error: d must be >= 3 here; for d = 2 use --algo tw",
        ),
    ],
)
def test_validate_and_vc_refuse_their_d_before_the_graph_is_read(capsys, tmp_path, argv, line):
    # A graph path that does not exist: reading it would exit 2 with an
    # OSError line instead of the parameter's own.
    missing = str(tmp_path / "missing.dss")
    code, out, err = run_cli(capsys, *argv, "--graph", missing)
    assert (code, out, err) == (2 if line.startswith("usage") else 3, "", f"{line}\n")


def test_solve_with_supplied_decomposition(capsys, p5, tmp_path):
    td_file = tmp_path / "p5.td"
    code, _, _ = run_cli(capsys, "decompose", "--graph", p5, "--out", str(td_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--td", str(td_file))
    assert code == 0 and "size: 2" in out


def test_tw_solve_and_count_report_the_width_they_ran_on(capsys, tmp_path):
    g = gen_random_graph(RandomSpec(n=14, edge_probability=Fraction(2, 5), max_weight=2, seed=8))
    graph = tmp_path / "g.dss"
    graph.write_text(format_dss(g))
    td_file = tmp_path / "g.td"
    code, out, _ = run_cli(
        capsys, "decompose", "--graph", str(graph), "--out", str(td_file), "--json"
    )
    assert code == 0
    width = json.loads(out)["result"]["width"]
    assert width >= 3
    for extra in ((), ("--td", str(td_file))):
        for command in (("solve", "--algo", "tw"), ("count", "--k", "3")):
            argv = (*command, "--graph", str(graph), "--d", "3", *extra, "--json")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["result"]["width"] == width, argv


# Decompositions of P5 that parse but break one property each, with the
# validator's message (0-based vertex ids).
BAD_P5_TDS = {
    "vertex-coverage": ("s td 1 2 5\nb 1 1 2\n", "vertex 2 in no bag"),
    "edge-coverage": ("s td 2 3 5\nb 1 1 2\nb 2 3 4 5\n1 2\n", "edge (1,2) in no bag"),
    "connectivity": (
        "s td 5 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5\nb 5 1\n1 2\n2 3\n3 4\n4 5\n",
        "bags containing vertex 0 are not connected in the tree",
    ),
    "out-of-range": (
        "s td 4 3 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5 6\n1 2\n2 3\n3 4\n",
        "bag vertex 5 out of range",
    ),
    "empty-bags": ("s td 2 0 5\nb 1\nb 2\n1 2\n", "vertex 0 in no bag"),
}


@pytest.mark.parametrize("kind", list(BAD_P5_TDS))
@pytest.mark.parametrize(
    "command",
    [
        ("solve", "--algo", "tw"),
        ("count", "--k", "2"),
        ("solve", "--algo", "approx", "--epsilon", "1/2"),
    ],
    ids=["tw", "count", "approx"],
)
def test_solve_rejects_invalid_decomposition(capsys, p5, tmp_path, command, kind):
    # The solver that consumes the file validates it, once, and says why.
    text, message = BAD_P5_TDS[kind]
    td_file = tmp_path / "bad.td"
    td_file.write_text(text)
    code, out, err = run_cli(capsys, *command, "--graph", p5, "--d", "3", "--td", str(td_file))
    assert (code, out, err) == (3, "", f"error: invalid decomposition: {message}\n")


@pytest.mark.parametrize(
    "flags",
    [
        ("--algo", "vc", "--td", "/nonexistent.td"),
        ("--algo", "brute", "--td", "/nonexistent.td"),
        ("--algo", "tw", "--epsilon", "1/2"),
        ("--epsilon", "1/2"),
        ("--algo", "vc", "--epsilon", "1"),
        ("--algo", "brute", "--epsilon", "1"),
    ],
    ids=["vc-td", "brute-td", "tw-epsilon", "default-epsilon", "vc-epsilon", "brute-epsilon"],
)
def test_solve_refuses_flags_it_would_ignore(capsys, p5, flags):
    code, out, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", *flags, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_validate_refuses_d_with_td(capsys, p5):
    code, out, err = run_cli(
        capsys, "validate", "--graph", p5, "--td", "/nonexistent.td", "--d", "1", "--json"
    )
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("d", [10**18 + 1, 10**20])
def test_unreachable_vertices_stay_apart_at_any_d(capsys, tmp_path, d):
    # Two isolated vertices are infinitely far apart, so both fit however
    # large d is; the one-bag file makes them bag-mates in the DP.
    graph = tmp_path / "two.dss"
    graph.write_text("p dss 2 0\n")
    td_file = tmp_path / "one.td"
    td_file.write_text("s td 1 2 2\nb 1 1 2\n")
    common = ("--graph", str(graph), "--d", str(d))
    for extra in (
        ("--algo", "tw", "--td", str(td_file)),
        ("--algo", "approx", "--epsilon", "1", "--td", str(td_file)),
        ("--algo", "brute"),
        ("--algo", "vc"),
    ):
        code, out, err = run_cli(capsys, "solve", *common, *extra)
        assert (code, err) == (0, "") and "size: 2\n" in out, extra
    code, out, err = run_cli(capsys, "count", *common, "--k", "2", "--td", str(td_file))
    assert (code, err) == (0, "") and "counts: 1 2 1\n" in out


def test_repeated_bag_vertex_is_refused_by_every_command(capsys, tmp_path):
    graph = tmp_path / "k2.dss"
    graph.write_text("p dss 2 1\ne 1 2\n")
    td_file = tmp_path / "rep.td"
    td_file.write_text("s td 1 3 2\nb 1 1 2 2\n")
    for command in (("validate",), ("solve", "--d", "2"), ("count", "--d", "2", "--k", "2")):
        code, out, err = run_cli(capsys, *command, "--graph", str(graph), "--td", str(td_file))
        assert (code, out, err) == (3, "", "error: line 2: vertex 2 repeated in bag 1\n"), command


# -- count --------------------------------------------------------------------


def test_count_path_pinned(capsys, p5):
    code, out, _ = run_cli(capsys, "count", "--graph", p5, "--d", "3", "--k", "2")
    assert code == 0
    assert "counts: 1 5 3" in out


def test_count_cycle_pinned(capsys, c5):
    code, out, _ = run_cli(capsys, "count", "--graph", c5, "--d", "2", "--k", "2")
    assert code == 0
    assert "counts: 1 5 5" in out


@pytest.mark.parametrize(
    "k,checks",
    [(0, ["size-0 count is 1"]), (2, ["size-0 count is 1", "size-1 count is n"])],
)
def test_count_lists_the_closed_form_checks_k_allows(capsys, p5, k, checks):
    code, out, _ = run_cli(capsys, "count", "--graph", p5, "--d", "3", "--k", str(k), "--json")
    assert code == 0 and json.loads(out)["validation"]["checks"] == checks


def test_wrong_size_1_count_is_internal_error(capsys, p5, monkeypatch):
    # P5 has 5 scattered singletons; a count of 6 must not be printed.
    monkeypatch.setattr(cli, "count_scattered", lambda g, nd, d, k: [1, 6, 3])
    code, out, err = run_cli(capsys, "count", "--graph", p5, "--d", "3", "--k", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_solvers_build_no_all_pairs_matrix(capsys, tmp_path, monkeypatch):
    # Only the brute-force oracle may build the n x n matrix.
    def refuse(g):
        raise RuntimeError("all-pairs matrix built")

    for module in (graph_core, tw_exact, tw_approx, vc_fpt):
        monkeypatch.setattr(module, "all_pairs_distances", refuse)
    graph = tmp_path / "c9.dss"
    graph.write_text(format_dss(cycle_graph(9)))
    for argv in (
        ("solve", "--algo", "tw", "--d", "3"),
        ("count", "--d", "3", "--k", "3"),
        ("solve", "--algo", "vc", "--d", "4"),
        ("solve", "--algo", "approx", "--d", "4", "--epsilon", "1/2"),
    ):
        code, _, err = run_cli(capsys, *argv, "--graph", str(graph))
        assert (code, err) == (0, ""), argv


def test_long_path_at_scale(capsys, tmp_path):
    # 10,000 vertices: every layer on the tw path must stay near linear in n.
    n = 10_000
    graph = tmp_path / "path.dss"
    graph.write_text(format_dss(path_graph(n)))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(graph), "--d", "3", "--json")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 3334
    code, out, _ = run_cli(capsys, "count", "--graph", str(graph), "--d", "3", "--k", "3", "--json")
    assert code == 0
    expected = [1, n, math.comb(n - 2, 2), math.comb(n - 4, 3)]
    assert json.loads(out)["result"]["counts"] == [str(c) for c in expected]


def test_count_pads_beyond_n(capsys, p5):
    code, out, _ = run_cli(
        capsys, "count", "--graph", p5, "--d", "2", "--k", "8", "--json"
    )
    assert code == 0
    counts = json.loads(out)["result"]["counts"]
    assert len(counts) == 9
    assert counts[6:] == ["0", "0", "0"]
    assert all(isinstance(c, str) for c in counts)



def test_count_refuses_a_k_it_cannot_print(capsys, p5):
    # Sizes past n all count 0; a bound past n + _MAX_ZERO_COUNTS would only
    # pad the report with zeros, 10**6 of them took 173 MiB.
    code, out, err = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", str(10**12))
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"error: --k {10**12} exceeds n = 5 by more than {cli._MAX_ZERO_COUNTS}; "
        "every size past n counts 0"
    ]
    k = 5 + cli._MAX_ZERO_COUNTS
    code, out, _ = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", str(k), "--json")
    assert code == 0 and len(json.loads(out)["result"]["counts"]) == k + 1
    code, _, _ = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", str(k + 1))
    assert code == 3


def test_count_refuses_a_slot_budget_past_its_bound(capsys, p5, monkeypatch):
    # On P5 with k = 2 a packed value has 3 slots of B = bit length of
    # C(5, 2) = 10, 4 bits: 12 bits run and a bound of 11 refuses them.
    need = 3 * math.comb(5, 2).bit_length()
    monkeypatch.setattr(tw_exact, "_MAX_COUNT_BITS", need)
    code, out, _ = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", "2")
    assert code == 0 and "counts: 1 5 6" in out
    monkeypatch.setattr(tw_exact, "_MAX_COUNT_BITS", need - 1)
    code, out, err = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", "2")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "error: count refused: n = 5 and k = 2 give 3 slots of B = 4 bits, "
        "more than 11 bits in all"
    ]
    # Max mode builds no slots, so the bound does not reach it.
    monkeypatch.setattr(tw_exact, "_MAX_COUNT_BITS", 0)
    code, _, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "2", "--algo", "tw")
    assert code == 0


def test_count_refuses_its_slot_budget_before_it_decomposes(capsys, p5, monkeypatch):
    # The budget reads only n and k, so a refused count builds no
    # decomposition: at banded n = 100,000 and k = n the heuristic, the nice
    # form and the bag searches took seconds before the engine refused.
    def no_decomposition(g):
        raise AssertionError("count decomposed before it refused its slot budget")

    monkeypatch.setattr(tw_exact, "_MAX_COUNT_BITS", 3 * math.comb(5, 2).bit_length() - 1)
    monkeypatch.setattr(cli, "heuristic_decomposition", no_decomposition)
    code, out, err = run_cli(capsys, "count", "--graph", p5, "--d", "2", "--k", "2")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "error: count refused: n = 5 and k = 2 give 3 slots of B = 4 bits, "
        "more than 11 bits in all"
    ]


def test_solve_approx_refuses_a_ladder_past_its_bit_bound(capsys, tmp_path):
    # On a 40-vertex path at d = 5 the balanced nice form stacks 11 rounding
    # steps.  epsilon = 1/100 gives 3,542 rungs and runs; epsilon = 1/1000
    # would need about ten times as many rungs, each ten times as long.
    graph = tmp_path / "p40.dss"
    graph.write_text(format_dss(path_graph(40)))
    argv = ("solve", "--graph", str(graph), "--d", "5", "--algo", "approx", "--epsilon")
    code, out, _ = run_cli(capsys, *argv, "1/100", "--json")
    assert code == 0 and json.loads(out)["result"]["size"] == 8
    code, out, err = run_cli(capsys, *argv, "1/1000")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: rounding ladder refused: epsilon 1/1000 gives delta 1/22000, and ")
    assert err.endswith(f" rungs already need more than {tw_approx._MAX_LADDER_BITS} bits\n")

# -- gen ----------------------------------------------------------------------


def test_gen_random_is_deterministic(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(
        capsys, "gen", "random", "--n", "10", "--p", "1/3", "--seed", "7", "--out", "a"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "gen", "random", "--n", "10", "--p", "1/3", "--seed", "7", "--out", "b"
    )
    assert code == 0
    assert Path("a.dss").read_text() == Path("b.dss").read_text()
    g = parse_graph(Path("a.dss").read_text())
    assert g.n == 10


def test_gen_w1vc_writes_all_artifacts(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("in.mcis").write_text(YES_MCIS)
    Path("a.txt").write_text("1 1\n")
    code, out, _ = run_cli(
        capsys, "gen", "w1vc", "--mcis", "in.mcis", "--assignment", "a.txt", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["files"] == [
        "w1vc.dss", "w1vc.witness", "w1vc.certificate", "w1vc.params.json"
    ]
    assert Path("w1vc.certificate").read_text().startswith("c kind: vertex-cover")
    manifest = json.loads(Path("w1vc.params.json").read_text())
    assert manifest["d"] == 24 and manifest["target_size"] == 4
    # The emitted witness file names a set the validator accepts.
    code, _, _ = run_cli(
        capsys, "validate", "--graph", "w1vc.dss", "--set", "w1vc.witness", "--d", "24"
    )
    assert code == 0


def test_gen_reports_a_witness_its_generator_rejects_as_internal_error(
    capsys, tmp_path, monkeypatch
):
    # The generator's own re-check is the only one, so breaking it must
    # still fail the run before any file is written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gadgets, "is_scattered", lambda *args: False)
    Path("in.mcis").write_text(YES_MCIS)
    Path("a.txt").write_text("1 1\n")
    code, out, err = run_cli(
        capsys, "gen", "w1vc", "--mcis", "in.mcis", "--assignment", "a.txt"
    )
    assert (code, out) == (4, "")
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert not Path("w1vc.dss").exists()


def test_gen_rejected_assignment_fails(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("in.mcis").write_text(YES_MCIS)
    Path("dep.txt").write_text("1 2\n")  # 1.1-2.2 is an edge
    code, _, err = run_cli(
        capsys, "gen", "fvs", "--mcis", "in.mcis", "--assignment", "dep.txt"
    )
    assert code == 3 and "assignment rejected" in err


def test_gen_assignment_files_take_comments(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("in.mcis").write_text(YES_MCIS)
    Path("plain.txt").write_text("1 1\n")
    Path("noted.txt").write_text("c note\n1\nc choice for class 2\n1\n")
    for name in ("plain", "noted"):
        code, _, _ = run_cli(
            capsys, "gen", "w1vc", "--mcis", "in.mcis", "--assignment", f"{name}.txt",
            "--out", name,
        )
        assert code == 0
    for ext in (".dss", ".witness"):
        assert Path(f"noted{ext}").read_text() == Path(f"plain{ext}").read_text()
    # Reader errors name their line.
    Path("bad.txt").write_text("c note\n1 x\n")
    code, _, err = run_cli(
        capsys, "gen", "w1vc", "--mcis", "in.mcis", "--assignment", "bad.txt"
    )
    assert (code, err) == (3, "error: line 2: non-integer field in '1 x'\n")


def test_gen_seth_manifest_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, _, _ = run_cli(
        capsys, "gen", "seth", "--cnf", "f.cnf", "--d", "4", "--epsilon", "1"
    )
    assert code == 0
    manifest = json.loads(Path("seth.params.json").read_text())
    assert manifest["p"] == 3
    assert manifest["gamma"] == 8
    assert not Path("seth.witness").exists()  # no assignment given
    assert not Path("seth.certificate").exists()


GEN_RUNS = {
    "w1vc": (
        ("w1vc", "--mcis", "in.mcis", "--assignment", "a.txt", "--out", "sub/o"),
        {
            "in.mcis": "p mcis 3 3\ne 1.1 2.1\ne 1.2 3.3\ne 2.2 3.1\ne 1.3 2.3\n",
            "a.txt": "1 2 2\n",
        },
    ),
    "fvs": (
        ("fvs", "--mcis", "in.mcis", "--assignment", "a.txt"),
        {"in.mcis": YES_MCIS, "a.txt": "1 1\n"},
    ),
    "fvs-no-assignment": (("fvs", "--mcis", "in.mcis"), {"in.mcis": YES_MCIS}),
    "tdeth": (
        ("tdeth", "--cnf", "f.cnf", "--assignment", "a.txt"),
        {"f.cnf": "p cnf 4 2\n1 2 3 0\n-1 4 0\n", "a.txt": "1 0 f true\n"},
    ),
    "random": (("random", "--n", "12", "--p", "1/3", "--max-weight", "5", "--seed", "9"), {}),
}


@pytest.mark.parametrize(
    "family,digest",
    [
        ("w1vc", "683b0ff85ed86dcba2762f01fe5d27fc0fcba81908ddb9f89de965a2c44aef6a"),
        ("fvs", "deb5daed9f564f7c152b39466765e86783ec63033129daa1b64661a1b8261659"),
        ("fvs-no-assignment", "0cd8aa1856476053ad1a2b3cfc972c745de0c99635f4756cf1543b2edc685ef5"),
        ("tdeth", "8198c46624dea36190222be26b98fdede301668812589e7ac8813d258abf2246"),
        ("random", "5267b05c9aaa85219430002a9b9597854737a96d2bb55089f4d741a733f9ede1"),
    ],
)
def test_gen_files_pinned(capsys, tmp_path, monkeypatch, family, digest):
    # Every file gen writes, in report order, plus the --json report without
    # its timings; the digests were taken before the families shared a writer.
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    argv, inputs = GEN_RUNS[family]
    for name, text in inputs.items():
        Path(name).write_text(text)
    code, out, _ = run_cli(capsys, "gen", *argv, "--json")
    assert code == 0
    report = json.loads(out)
    del report["timings_ms"]
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for name in report["result"]["files"]:
        h.update(b"\0" + name.encode() + b"\0" + Path(name).read_bytes())
    assert h.hexdigest() == digest


def test_gen_tdeth_round_trips_through_validate(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("phi.cnf").write_text("p cnf 1 1\n1 0\n")
    Path("a.txt").write_text("1\n")
    code, _, _ = run_cli(
        capsys, "gen", "tdeth", "--cnf", "phi.cnf", "--assignment", "a.txt"
    )
    assert code == 0
    manifest = json.loads(Path("tdeth.params.json").read_text())
    code, _, _ = run_cli(
        capsys, "validate", "--graph", "tdeth.dss",
        "--set", "tdeth.witness", "--d", str(manifest["d"]),
    )
    assert code == 0


def _no_draw(rng, *args):
    raise AssertionError("random graph drawn before its size check")


def test_gen_random_is_sized_before_its_first_draw(capsys, tmp_path, monkeypatch):
    # n = 12 has 66 vertex pairs.  A limit of 66 edges admits it whatever p
    # is; a limit of 65 refuses it before a single draw, even at a p that
    # would give almost no edges.
    monkeypatch.chdir(tmp_path)
    argv = ("gen", "random", "--n", "12", "--p", "1/100000", "--seed", "1")
    monkeypatch.setattr(graph_core, "_MAX_EDGES", 66)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(graph_core, "_MAX_EDGES", 65)
    monkeypatch.setattr(random.Random, "randrange", _no_draw)
    for written in tmp_path.iterdir():
        written.unlink()
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.splitlines() == ["error: generated graph would be too large"]
    assert out == "" and not list(tmp_path.iterdir())


# -- decompose ------------------------------------------------------------------


def test_decompose_tree_width_one(capsys, tmp_path):
    tree = tmp_path / "tree.dss"
    tree.write_text("p dss 7 6\n" + "".join(f"e 1 {i} 1\n" for i in range(2, 8)))
    code, out, _ = run_cli(capsys, "decompose", "--graph", str(tree))
    assert code == 0
    assert "c width: 1" in out
    # The comment-led stream is still a valid .td file.
    from scatterset.decomp import parse_td, validate_decomposition

    td = parse_td(out)
    assert validate_decomposition(parse_graph(tree.read_text()), td) is None


def test_decompose_balance_depth_bound(capsys, tmp_path):
    p64 = tmp_path / "p64.dss"
    p64.write_text(format_dss(path_graph(64)))
    code, out, _ = run_cli(capsys, "decompose", "--graph", str(p64), "--balance", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["depth"] <= 28


def test_decompose_nice_round_trip(capsys, p5, tmp_path):
    td_file = tmp_path / "nice.td"
    code, out, _ = run_cli(
        capsys, "decompose", "--graph", p5, "--nice", "--out", str(td_file)
    )
    assert code == 0
    assert "valid: true" in out
    code, _, _ = run_cli(capsys, "validate", "--graph", p5, "--td", str(td_file))
    assert code == 0


# -- validate -------------------------------------------------------------------


def test_validate_reports_offending_pair(capsys, p5, tmp_path):
    claim = tmp_path / "set.txt"
    claim.write_text("v0 v2\n")
    code, out, _ = run_cli(
        capsys, "validate", "--graph", p5, "--set", str(claim), "--d", "3"
    )
    assert code == 1
    assert "violation: pair (v0, v2) dist 2 < 3" in out


def test_validate_empty_set_is_vacuous(capsys, p5, tmp_path):
    claim = tmp_path / "empty.txt"
    claim.write_text("c nothing claimed\n")
    code, out, _ = run_cli(
        capsys, "validate", "--graph", p5, "--set", str(claim), "--d", "3"
    )
    assert code == 0 and "size: 0" in out


def test_validate_accepts_plain_integer_tokens(capsys, p5, tmp_path):
    claim = tmp_path / "set.txt"
    claim.write_text("0 3\n")
    code, _, _ = run_cli(
        capsys, "validate", "--graph", p5, "--set", str(claim), "--d", "3"
    )
    assert code == 0


def test_validate_reports_repeated_vertex(capsys, tmp_path):
    # A vertex listed twice is a pair at distance 0, not two members.
    graph = tmp_path / "p3.dss"
    graph.write_text("p dss 3 2\ne 1 2\ne 2 3\n")
    claim = tmp_path / "set.txt"
    claim.write_text("v0 v0\n")
    code, out, _ = run_cli(
        capsys, "validate", "--graph", str(graph), "--set", str(claim), "--d", "3"
    )
    assert code == 1
    assert "violation: pair (v0, v0) dist 0 < 3" in out
    assert "size:" not in out


def test_validate_reports_the_smallest_repeat_first(capsys, p5, tmp_path):
    # v3 and v1 both repeat, and v3 v4 are adjacent: the report is (v1, v1).
    claim = tmp_path / "set.txt"
    claim.write_text("v3 v4 v1\nv3 v1\n")
    code, out, _ = run_cli(capsys, "validate", "--graph", p5, "--set", str(claim), "--d", "2")
    assert code == 1
    assert "violation: pair (v1, v1) dist 0 < 2" in out


def test_validate_set_requires_d(capsys, p5, tmp_path):
    claim = tmp_path / "set.txt"
    claim.write_text("v0\n")
    code, _, err = run_cli(capsys, "validate", "--graph", p5, "--set", str(claim))
    assert code == 2 and "--d" in err


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_validate_set_refuses_small_d(capsys, tmp_path, d):
    # The same precondition as solve and count, for a repeated vertex too.
    graph = tmp_path / "p3.dss"
    graph.write_text("p dss 3 2\ne 1 2\ne 2 3\n")
    for text in ("v0 v2\n", "v0 v0\n"):
        claim = tmp_path / "set.txt"
        claim.write_text(text)
        code, out, err = run_cli(
            capsys, "validate", "--graph", str(graph), "--set", str(claim), "--d", d
        )
        assert (code, out, err) == (3, "", "error: d must be >= 2\n")
    code, _, err = run_cli(capsys, "solve", "--graph", str(graph), "--d", d)
    assert (code, err) == (3, "error: d must be >= 2\n")


def test_validate_rejects_out_of_range_vertex(capsys, p5, tmp_path):
    claim = tmp_path / "set.txt"
    claim.write_text("v9\n")
    code, _, err = run_cli(
        capsys, "validate", "--graph", p5, "--set", str(claim), "--d", "2"
    )
    assert code == 3 and "out of range" in err


def test_validate_flags_broken_decomposition(capsys, p5, tmp_path):
    td_file = tmp_path / "bad.td"
    td_file.write_text("s td 3 2 5\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "validate", "--graph", p5, "--td", str(td_file))
    assert code == 1
    assert "violation: vertex-coverage" in out


def test_validate_malformed_td_is_precondition_error(capsys, tmp_path):
    graph = tmp_path / "one.dss"
    graph.write_text("p dss 1 0\n")
    td_file = tmp_path / "short.td"
    td_file.write_text("s td 1 1 1\nb 1 1\n5\n")  # tree-edge line with one field
    code, _, err = run_cli(capsys, "validate", "--graph", str(graph), "--td", str(td_file))
    assert code == 3 and "line 3" in err


# -- exit codes and report schema ------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "nope.dss", "--d", "3")
    assert code == 2


def test_malformed_graph_is_precondition_error(capsys, tmp_path):
    bad = tmp_path / "bad.dss"
    bad.write_text("p dss x y\n")
    code, _, err = run_cli(capsys, "solve", "--graph", str(bad), "--d", "3")
    assert code == 3 and "error:" in err


def test_decimal_epsilon_rejected(capsys, p5):
    code, _, err = run_cli(
        capsys, "solve", "--graph", p5, "--d", "3", "--algo", "approx",
        "--epsilon", "0.5",
    )
    assert code == 2
    assert "rational" in err


def test_zero_denominator_epsilon_rejected(capsys, p5):
    code, out, err = run_cli(
        capsys, "solve", "--graph", p5, "--d", "3", "--algo", "approx",
        "--epsilon", "1/0",
    )
    assert (code, out) == (2, "")
    assert "rational denominator must be nonzero" in err


def test_gen_refuses_a_bad_boolean_assignment_token(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("f.cnf").write_text("p cnf 2 1\n1 2 0\n")
    Path("bad.txt").write_text("c note\n1 maybe\n")
    code, out, err = run_cli(
        capsys, "gen", "seth", "--cnf", "f.cnf", "--d", "4", "--epsilon", "1",
        "--assignment", "bad.txt",
    )
    assert (code, out) == (3, "")
    assert err == "error: line 2: bad boolean token 'maybe' in assignment file\n"


def test_cached_parser_leaks_no_state(capsys, p5):
    # The grammar is built once per process; each call parses afresh.
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(
        capsys, "solve", "--graph", p5, "--d", "3", "--algo", "vc", "--k", "3", "--json"
    )
    assert code == 0 and json.loads(out)["result"]["target_met"] is False
    code, out, _ = run_cli(capsys, "count", "--graph", p5, "--d", "3", "--k", "2", "--json")
    assert code == 0 and json.loads(out)["solver"] == "tw"
    args = cli.build_parser().parse_args(["count", "--graph", p5, "--d", "3", "--k", "2"])
    assert "algo" not in vars(args) and args.td is None
    code, out, _ = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--json")
    report = json.loads(out)
    assert code == 0 and report["solver"] == "tw"
    assert report["parameters"]["k"] is None and report["result"]["target_met"] is None


def test_bogus_witness_is_internal_error(capsys, p5, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_max", lambda g, d: (2, (0, 1)))
    code, _, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--algo", "brute")
    assert code == 4
    assert err.startswith("internal error:")


def test_repeated_witness_vertex_is_internal_error(capsys, p5, monkeypatch):
    # (0, 0) has the claimed size 2, but it is one vertex listed twice.
    monkeypatch.setattr(cli, "brute_force_max", lambda g, d: (2, (0, 0)))
    code, out, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", "--algo", "brute")
    assert (code, out) == (4, "")
    assert err.startswith("internal error:")


@pytest.mark.parametrize(
    "module,name,extra",
    [
        (tw_approx, "dp_over_decomposition", ["--algo", "approx", "--epsilon", "1/2"]),
        (vc_fpt, "solve_packing", ["--algo", "vc"]),
    ],
    ids=["approx", "vc"],
)
def test_solver_self_check_prints_one_internal_error(capsys, p5, monkeypatch, module, name, extra):
    # v0 and v1 are adjacent, so the CLI's re-check of the answer must fail.
    monkeypatch.setattr(module, name, lambda *args, **kwargs: (2, (0, 1)))
    code, out, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", *extra)
    assert (code, out) == (4, "")
    assert err.startswith("internal error:") and err.count("internal error") == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--algo", "tw"],
        ["--algo", "approx", "--epsilon", "1/2"],
        ["--algo", "vc"],
        ["--algo", "brute"],
    ],
    ids=["tw", "approx", "vc", "brute"],
)
def test_each_solve_answer_is_rechecked_once(capsys, p5, monkeypatch, extra):
    calls = []
    check = graph_core.scattered_violation

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(graph_core, "scattered_violation", counted)
    # A solver that imported the name itself would re-check through it.
    for module in (tw_approx, vc_fpt):
        monkeypatch.setattr(module, "scattered_violation", counted, raising=False)
    code, _, err = run_cli(capsys, "solve", "--graph", p5, "--d", "3", *extra)
    assert (code, err, len(calls)) == (0, "", 1)


def test_unexpected_exception_is_one_line_internal_error(capsys, p5, monkeypatch):
    def broken_balance(td, g):
        raise RuntimeError("balanced width 9 exceeds\nbound 5")

    monkeypatch.setattr(cli, "balance", broken_balance)
    code, _, err = run_cli(capsys, "decompose", "--graph", p5, "--balance")
    assert code == 4
    assert err == "internal error: RuntimeError: balanced width 9 exceeds bound 5\n"


def test_json_reports_share_one_schema(capsys, p5, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    claim = tmp_path / "set.txt"
    claim.write_text("v0 v3\n")
    td_file = tmp_path / "p5.td"
    run_cli(capsys, "decompose", "--graph", p5, "--out", str(td_file))
    Path("in.mcis").write_text(YES_MCIS)
    Path("f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    invocations = [
        ("solve", "--graph", p5, "--d", "3", "--json"),
        ("solve", "--graph", p5, "--d", "3", "--algo", "approx", "--epsilon", "1", "--json"),
        ("count", "--graph", p5, "--d", "3", "--k", "2", "--json"),
        ("gen", "random", "--n", "4", "--p", "1/2", "--json"),
        ("gen", "fvs", "--mcis", "in.mcis", "--json"),
        ("gen", "seth", "--cnf", "f.cnf", "--d", "4", "--epsilon", "1", "--json"),
        ("gen", "tdeth", "--cnf", "f.cnf", "--json"),
        ("decompose", "--graph", p5, "--json"),
        ("validate", "--graph", p5, "--td", str(td_file), "--json"),
        ("validate", "--graph", p5, "--set", str(claim), "--d", "3", "--json"),
    ]
    shapes = set()
    for argv in invocations:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        shapes.add(
            (
                tuple(report),
                tuple(report["parameters"]),
                tuple(report["result"]),
                tuple(report["validation"]),
            )
        )
    assert len(shapes) == 1

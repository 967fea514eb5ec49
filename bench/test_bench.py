"""Tests for the benchmark itself: pinned answers, answer checks, tracing.

Each workload has a "tiny" profile with n <= 20, whose pinned answers are
checked against the brute-force oracles; the same request builder and
checker then run a whole pass of it.  Run with:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random

import pytest

import run
import workloads
from workloads import SPECS, WORKLOADS, Request, check

PROGRAM = run.import_program()


def _graph(spec):
    n, edges = workloads.base_edges(spec, PROGRAM, run._no_span)
    return PROGRAM.graph_core.WeightedGraph(n=n, edges=tuple(edges))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pins_match_brute_force(workload):
    pinned = workloads.load_pinned()["tiny"]
    for spec in SPECS[workload]["tiny"]:
        g = _graph(spec)
        assert g.n <= 20
        pins = pinned[spec.name]
        for d in spec.ds:
            assert pins["max"][str(d)] == PROGRAM.oracle.brute_force_max(g, d)[0]
            if "count" in spec.commands:
                k = g.n if spec.count_k is None else spec.count_k
                assert pins["counts"][str(d)] == PROGRAM.oracle.brute_force_count(g, d, k)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_is_all_correct(workload, tmp_path):
    _, requests = run.setup(workload, "tiny", 7, tmp_path)
    assert {r.command for r in requests} >= {"solve_tw"}
    result = run.run_pass(PROGRAM.cli.main, requests)
    assert result.failures == []
    assert result.attempted == len(requests)


def test_relabelling_depends_on_seed_only(tmp_path):
    texts = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        _, requests = run.setup("dp-midwidth", "tiny", seed, tmp_path / sub)
        texts.append(open(requests[0].instance.graph_path).read())
    assert texts[0] == texts[1] != texts[2]


def test_relabelling_keeps_bag_order():
    bags = [(0, 3, 5), (1, 3), (2, 4, 5)]
    seen = set()
    for seed in range(20):
        perm = workloads.order_keeping_relabelling(6, bags, random.Random(seed))
        assert sorted(perm) == list(range(6))
        for bag in bags:
            labels = [perm[v] for v in sorted(bag)]
            assert labels == sorted(labels)
        seen.add(tuple(perm))
    assert len(seen) > 1


def test_pinned_td_is_nice_and_valid(tmp_path):
    _, requests = run.setup("dp-midwidth", "tiny", 5, tmp_path)
    inst = requests[0].instance
    err, width = workloads.td_error(inst, inst.td_path)
    assert err is None and width >= 1
    td = PROGRAM.decomp.parse_td(open(inst.td_path).read())
    nd = PROGRAM.decomp.make_nice(td)
    # The program's nice conversion maps the file node for node.
    assert len(nd.nodes) == len(td.bags)


def _report(**result):
    return {"result": result, "validation": {"ok": True}}


def _tiny_requests(tmp_path, workload):
    return run.setup(workload, "tiny", 1, tmp_path)[1]


def _first(requests, command):
    return next(r for r in requests if r.command == command)


def test_checker_flags_wrong_answers(tmp_path):
    requests = _tiny_requests(tmp_path, "dp-midwidth")
    req = _first(requests, "solve_tw")
    assert "!= pinned" in check(req, 0, _report(size=req.expected + 1, witness=[]))
    assert check(req, 1, None) == "exit code 1"
    # A witness of the claimed size whose two members are adjacent.
    u, v, _ = req.instance.edges[0]
    pair = Request("solve_tw", req.argv, req.instance, req.d, expected=2)
    assert "breaks" in check(pair, 0, _report(size=2, witness=[f"v{u}", f"v{v}"]))

    count = _first(requests, "count")
    wrong = [str(c) for c in count.expected]
    wrong[1] = str(int(wrong[1]) + 1)
    assert check(count, 0, _report(counts=wrong)) is not None
    assert check(count, 0, _report(counts=[str(c) for c in count.expected])) is None


def test_checker_holds_approx_to_optimum_and_slack(tmp_path):
    req = _first(_tiny_requests(tmp_path, "alt-solvers"), "solve_approx")
    assert "below exact optimum" in check(req, 0, _report(size=req.expected - 1, witness=[]))
    u, v, w = min(req.instance.edges, key=lambda e: e[2])
    # Endpoints of the lightest edge, at distance w: allowed iff (1 + epsilon) * w >= d.
    pair = Request("solve_approx", req.argv, req.instance, req.d, epsilon=req.epsilon, expected=2)
    verdict = check(pair, 0, _report(size=2, witness=[f"v{u}", f"v{v}"]))
    assert (verdict is None) == ((1 + req.epsilon) * w >= req.d)


def test_checker_rejects_broken_decomposition(tmp_path):
    req = _first(_tiny_requests(tmp_path, "sparse-large"), "decompose")
    bad = tmp_path / "bad.td"
    n = req.instance.n
    bad.write_text(f"s td 1 {n} {n}\nb 1 " + " ".join(str(v + 1) for v in range(n - 1)) + "\n")
    assert "in no bag" in check(req, 0, _report(files=[str(bad)], width=n - 2))


def test_traced_run_accounts_for_pass_time(tmp_path):
    original = PROGRAM.tw_exact.all_pairs_distances
    measured = run.measure_traced("alt-solvers", 1, 0.0, tmp_path, profile="tiny")
    metrics = measured["metrics"]
    assert PROGRAM.tw_exact.all_pairs_distances is original  # wrappers removed
    assert measured["missing"] == []
    assert abs(metrics["trace.unattributed_s"]) <= 0.05 * metrics["trace.pass_s"] + 1e-3
    assert metrics["tw_approx.add_calls"] > 0 and metrics["vc_fpt.profiles"] > 0
    assert all(not r.failures for r in measured["runs"])
    json.dumps(metrics)


def test_removed_target_drops_its_metric(tmp_path, monkeypatch):
    import tracing

    gone = ("cli", "no_such_function", "decomp.gone", None)
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + (gone,))
    monkeypatch.setitem(tracing.SPAN_METRICS, "decomp.gone_s", ("decomp.gone",))
    measured = run.measure_traced("dp-midwidth", 1, 0.0, tmp_path, profile="tiny")
    assert measured["missing"] == ["cli.no_such_function"]
    assert "decomp.gone_s" not in measured["metrics"]
    assert "decomp.validate_s" in measured["metrics"]


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dp-midwidth", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

"""Benchmark-side tracing: spans around the program's module-level functions.

Each target is a name that program code looks up at call time, such as
``scatterset.tw_exact.all_pairs_distances``; the tracer replaces that
binding with a wrapper that records a span (name, start, end, parent).  The
clearance-hook methods of the DP engine get counting wrappers instead of
spans, because they run millions of times per pass.  Spans stay in memory;
the runner writes them out when the run ends.

A span's self time is its duration minus the durations of its child spans.
Its layer is the part of its name before the dot.  A target that the
program no longer defines is skipped and listed in ``missing``; a metric
whose targets are all gone is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "graph_core", "decomp", "tw_exact", "tw_approx", "vc_fpt")

# (module, attribute looked up at call time, span name, stats hook)
SPAN_TARGETS = (
    ("cli", "parse_graph", "graph_core.parse", None),
    ("cli", "is_scattered", "graph_core.check", None),
    ("cli", "scattered_violation", "graph_core.check", None),
    ("cli", "dijkstra_from", "graph_core.check", None),
    ("cli", "heuristic_decomposition", "decomp.heuristic", None),
    ("cli", "balance", "decomp.balance", None),
    ("cli", "make_nice", "decomp.make_nice", "nice"),
    ("cli", "validate_nice", "decomp.validate_nice", None),
    ("cli", "nice_to_tree", "decomp.nice_to_tree", None),
    ("cli", "parse_td", "decomp.parse_td", None),
    ("cli", "format_td", "decomp.format_td", None),
    ("cli", "decomposition_depth", "decomp.depth", None),
    ("cli", "validate_decomposition", "decomp.validate", "validate"),
    ("cli", "max_scattered", "tw_exact.dp_max", None),
    ("cli", "count_scattered", "tw_exact.dp_count", None),
    ("cli", "approx_max_scattered", "tw_approx.approx", None),
    ("cli", "max_scattered_vc", "vc_fpt.solve", None),
    ("tw_exact", "validate_nice", "decomp.validate_nice", None),
    ("tw_exact", "nice_to_tree", "decomp.nice_to_tree", None),
    ("tw_exact", "validate_decomposition", "decomp.validate", "validate"),
    ("tw_exact", "all_pairs_distances", "graph_core.apsp", "apsp"),
    ("tw_approx", "balance", "decomp.balance", None),
    ("tw_approx", "make_nice", "decomp.make_nice", "nice"),
    ("tw_approx", "max_introduce_depth", "decomp.depth", None),
    ("tw_approx", "dp_over_decomposition", "tw_approx.dp", "ladder"),
    ("tw_approx", "all_pairs_distances", "graph_core.apsp", "apsp"),
    ("vc_fpt", "compute_vertex_cover", "vc_fpt.cover", "cover"),
    ("vc_fpt", "reduce_to_packing", "vc_fpt.reduce", None),
    ("vc_fpt", "solve_packing", "vc_fpt.packing", "packing"),
    ("vc_fpt", "all_pairs_distances", "graph_core.apsp", "apsp"),
    ("vc_fpt", "is_scattered", "graph_core.check", None),
)

# (module, class, method, counter name)
HOOK_TARGETS = (
    ("tw_exact", "ExactClearance", "add", "tw_exact.add_calls"),
    ("tw_exact", "ExactClearance", "join_ok", "tw_exact.join_ok_calls"),
    ("tw_approx", "RoundedClearance", "add", "tw_approx.add_calls"),
    ("tw_approx", "RoundedClearance", "join_ok", "tw_approx.join_ok_calls"),
)

# Per-layer time metrics: metric name -> span names whose self time it sums.
SPAN_METRICS = {
    "cli.self_s": ("cli.main",),
    "graph_core.parse_s": ("graph_core.parse",),
    "graph_core.apsp_s": ("graph_core.apsp",),
    "graph_core.check_s": ("graph_core.check",),
    "decomp.heuristic_s": ("decomp.heuristic",),
    "decomp.validate_s": ("decomp.validate",),
    "decomp.balance_s": ("decomp.balance",),
    "decomp.make_nice_s": ("decomp.make_nice",),
    "tw_exact.dp_max_s": ("tw_exact.dp_max",),
    "tw_exact.dp_count_s": ("tw_exact.dp_count",),
    "tw_approx.dp_s": ("tw_approx.dp",),
    "vc_fpt.cover_s": ("vc_fpt.cover",),
    "vc_fpt.reduce_s": ("vc_fpt.reduce",),
    "vc_fpt.packing_s": ("vc_fpt.packing",),
}
# Per-layer count metrics: metric name -> span names, hook counters or
# module globals that must all be live for the count to be reported.
COUNT_METRICS = {
    "tw_exact.add_calls": ("tw_exact.add_calls",),
    "tw_exact.join_ok_calls": ("tw_exact.join_ok_calls",),
    "tw_approx.add_calls": ("tw_approx.add_calls",),
    "tw_approx.join_ok_calls": ("tw_approx.join_ok_calls",),
    "tw_approx.ladder_len": ("tw_approx.dp",),
    "graph_core.apsp_calls": ("graph_core.apsp",),
    "graph_core.dist_entries": ("graph_core.apsp",),
    "decomp.validate_calls": ("decomp.validate",),
    "decomp.width": ("decomp.make_nice",),
    "decomp.nice_nodes": ("decomp.make_nice",),
    "decomp.join_nodes": ("decomp.make_nice",),
    "decomp.introduce_depth": ("decomp.make_nice",),
    "vc_fpt.profiles": ("vc_fpt.packing", "vc_fpt.LAST_PROFILE_COUNT"),
    "vc_fpt.cover_size": ("vc_fpt.cover",),
}
SETUP_METRICS = {"gadgets.gen_s": "gadgets.gen", "oracle.gen_s": "oracle.gen"}


class Tracer:
    """Records spans and counters; ``install`` patches the program's names."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.nice: list = []  # nice decompositions built during the pass
        self.missing: set[str] = set()  # targets the program no longer has
        self.live: set[str] = {"cli.main"}  # span names, counters and globals in place
        self.counting = False  # whether this pass records counts as well as spans
        self._patched: list[tuple[object, str, object]] = []
        self._modules: dict = {}

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, hook: str | None = None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None and self.counting:
                self._record(hook, args, kwargs, result)
            return result

        return wrapper

    def _record(self, hook: str, args, kwargs, result) -> None:
        if hook == "apsp":
            self.counts["graph_core.apsp_calls"] += 1
            self.counts["graph_core.dist_entries"] += args[0].n ** 2
        elif hook == "validate":
            self.counts["decomp.validate_calls"] += 1
        elif hook == "nice":
            self.nice.append(result)
        elif hook == "ladder":
            powers = getattr(kwargs.get("clearance"), "powers", None)
            if powers is not None:
                self.maxima["tw_approx.ladder_len"] = max(
                    self.maxima["tw_approx.ladder_len"], len(powers)
                )
        elif hook == "cover":
            self.maxima["vc_fpt.cover_size"] = max(self.maxima["vc_fpt.cover_size"], len(result))
        elif hook == "packing":
            self.counts["vc_fpt.profiles"] += getattr(self._modules["vc_fpt"], "LAST_PROFILE_COUNT", 0)

    def install(self, modules: dict, hooks: bool) -> None:
        """Patch span targets on ``{short name: module}``.

        With ``hooks`` the pass also counts: clearance-hook calls, and the
        stats that span wrappers read from arguments and results.
        """
        self._modules = modules
        self.counting = hooks
        self.live = {"cli.main"}
        for mod_name, attr, name, hook in SPAN_TARGETS:
            module = modules[mod_name]
            if not hasattr(module, attr):
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self.live.add(name)
            self._patch(module, attr, self.wrap(getattr(module, attr), name, hook))
        if hasattr(modules["vc_fpt"], "LAST_PROFILE_COUNT"):
            self.live.add("vc_fpt.LAST_PROFILE_COUNT")
        else:
            self.missing.add("vc_fpt.LAST_PROFILE_COUNT")
        counts = self.counts
        for mod_name, cls_name, method, counter in HOOK_TARGETS if hooks else ():
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None or not hasattr(cls, method):
                self.missing.add(f"{mod_name}.{cls_name}.{method}")
                continue
            self.live.add(counter)
            self._patch(cls, method, _counting(getattr(cls, method), counts, counter))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset_pass(self) -> None:
        """Forget the per-pass counters; spans are kept for the final dump."""
        self.counts.clear()
        self.maxima.clear()
        self.nice.clear()

    def pass_metrics(self, first_span: int, scales: list[float], engine_runs: int | None) -> dict[str, float]:
        """Self times, layer totals and counts of the spans from `first_span` on.

        ``scales[i]`` converts the seconds of the pass's i-th request (its
        i-th ``cli.main`` span and everything below it) to reference seconds.
        """
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        by_name: Counter = Counter()
        request = -1
        for i, (name, start, end, parent) in enumerate(spans):
            if parent < first_span:
                request += 1
            by_name[name] += (end - start - child_time[i]) * scales[request]
        out: dict[str, float] = {}
        for metric, names in SPAN_METRICS.items():
            if self.live.intersection(names):
                out[metric] = sum(by_name[n] for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for n, t in by_name.items() if n.split(".")[0] == layer
            )
        values = {**self.counts, **self.maxima, **nice_stats(self.nice)}
        for metric, needs in COUNT_METRICS.items():
            if all(need in self.live for need in needs):
                out[metric] = values.get(metric, 0)
        if engine_runs is not None:
            out["tw_exact.engine_runs"] = engine_runs
        return out


def _counting(method, counts: Counter, counter: str):
    @functools.wraps(method)
    def wrapper(*args):
        counts[counter] += 1
        return method(*args)

    return wrapper


def nice_stats(decompositions) -> dict[str, int]:
    """Width, node and join counts, introduce depth of the nice forms built."""
    width = nodes = joins = depth = 0
    for nd in decompositions:
        width = max(width, max(len(node.bag) for node in nd.nodes) - 1)
        nodes += len(nd.nodes)
        joins += sum(1 for node in nd.nodes if node.kind == "join")
        stack = [(nd.root, 0)]
        while stack:
            i, acc = stack.pop()
            acc += nd.nodes[i].kind == "introduce"
            depth = max(depth, acc)
            stack.extend((c, acc) for c in nd.nodes[i].children)
    return {
        "decomp.width": width,
        "decomp.nice_nodes": nodes,
        "decomp.join_nodes": joins,
        "decomp.introduce_depth": depth,
    }

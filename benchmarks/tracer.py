"""In-memory span tracer that wraps ghzgen's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
place it is looked up: the defining module, every ``ghzgen`` module that
imported it by name, dicts held at module level (such as a command table),
and, for ``ModeTransform.apply``, the class itself.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` is edited.

A span is a dict with ``id``, ``name``, ``parent``, ``start`` and ``end``
(``perf_counter_ns``) plus counts read from the call's arguments and
result.  Span stacks are kept per thread.  A span opened on a thread with
no open span of its own (a ``ThreadPoolExecutor`` worker) is parented to
the innermost span open on the request's thread, which is the call that
handed out the work.

``layer_metrics`` turns the spans of a list of requests into the
per-layer metrics.  A span's self time is its interval minus the union of
its children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns


def _branch_key(args, kwargs):
    network = args[0] if args else kwargs["network"]
    settings = network.settings
    weights = network.source.weights.as_tuple() if network.source else None
    return repr((network.name, len(network.elements), weights, settings.theta, settings.alpha))


def _apply_counts(args, kwargs, result):
    state = args[1] if len(args) > 1 else kwargs["state"]
    return {"kets_in": state.num_terms(), "kets_out": result.num_terms()}


def _project_counts(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"kets_in": state.num_terms(), "kets_out": result[0].num_terms()}


# (span name, module, attribute, counts read from (args, kwargs, result))
TARGETS = (
    ("cli.main", "ghzgen.cli", "main", None),
    ("cli.cmd_sweep", "ghzgen.cli", "cmd_sweep", None),
    ("dsl.parse", "ghzgen.dsl", "parse", lambda a, k, r: {"statements": len(r.statements)}),
    ("dsl.elaborate", "ghzgen.dsl", "elaborate", None),
    ("network.analyze", "ghzgen.network", "analyze", None),
    ("elements.build", "ghzgen.pipeline", "build_fig3", None),
    ("elements.build", "ghzgen.pipeline", "build_ghzps", None),
    ("elements.make", "ghzgen.elements", "make_pbs", None),
    ("elements.make", "ghzgen.elements", "make_bs", None),
    ("elements.make", "ghzgen.elements", "make_hwp45", None),
    ("elements.make", "ghzgen.elements", "make_hwp90", None),
    ("elements.make", "ghzgen.elements", "make_route", None),
    ("source.emission", "ghzgen.source", "dual_pass_emission", lambda a, k, r: {"kets": r.num_terms()}),
    ("qnd.tag", "ghzgen.qnd", "tag_phases", None),
    ("qnd.homodyne", "ghzgen.qnd", "homodyne_discriminate", lambda a, k, r: {"branches": len(r)}),
    ("qnd.feed_forward", "ghzgen.qnd", "feed_forward", None),
    ("states.apply", "ghzgen.states", "ModeTransform.apply", _apply_counts),
    ("states.project", "ghzgen.states", "project_occupancy", _project_counts),
    ("pipeline.branch_states", "ghzgen.pipeline", "branch_states", lambda a, k, r: {"key": _branch_key(a, k)}),
    ("pipeline.run_full", "ghzgen.pipeline", "run_full", None),
    ("pipeline.postselect", "ghzgen.pipeline", "postselect_coincidence", lambda a, k, r: {"patterns": len(r)}),
    ("noise.apply_errors", "ghzgen.noise", "apply_errors", None),
    ("noise.classify", "ghzgen.noise", "classify_family", lambda a, k, r: {"family": r.label}),
)


class Tracer:
    """Records spans of traced ghzgen calls in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[dict, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._request_stack[-1]
            except IndexError:
                parent = None
        span = {"id": next(self._ids), "name": name, "parent": parent, "start": perf_counter_ns()}
        stack.append(span["id"])
        return span, stack

    def _close(self, span: dict, stack: list[int]) -> None:
        span["end"] = perf_counter_ns()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def request(self):
        """Root span of one request, on the calling thread."""
        span, stack = self._open("request")
        self._request_stack = stack
        try:
            yield
        finally:
            self._close(span, stack)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, stack)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one is skipped."""
        modules = [m for n, m in sys.modules.items() if n == "ghzgen" or n.startswith("ghzgen.")]
        for name, module_name, attr, counts in TARGETS:
            owner = importlib.import_module(module_name)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, counts)
            if cls_name:
                self._patch(owner, attr, original, wrapped)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapped)
                    elif type(value) is dict:
                        for item_key, item in list(value.items()):
                            if item is original:
                                self._patch(value, item_key, original, wrapped)

    def _patch(self, target, key, original, wrapped) -> None:
        self._patches.append((target, key, original))
        _assign(target, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            _assign(*self._patches.pop())


def _assign(target, key, value) -> None:
    """Set ``key`` of a dict (a module namespace or a table) or of a class."""
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def _union_ns(intervals) -> int:
    covered = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


# per-layer metric name -> unit; times are ms per request, counts are per
# request.  run.py measures cli.import_ms, cli.numpy_import_ms and
# trace.overhead_ratio; layer_metrics derives the rest from spans.
LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.self_ms": "ms",
    "cli.sweep_self_ms": "ms",
    "dsl.parse_ms": "ms",
    "dsl.elaborate_ms": "ms",
    "dsl.statements": "count",
    "network.analyze_ms": "ms",
    "network.analyze_calls": "count",
    "elements.build_ms": "ms",
    "elements.constructed": "count",
    "source.emission_ms": "ms",
    "source.emission_kets": "count",
    "qnd.tag_ms": "ms",
    "qnd.homodyne_ms": "ms",
    "qnd.feed_forward_ms": "ms",
    "qnd.branches": "count",
    "states.fanout_apply_ms": "ms",
    "states.fanout_applies": "count",
    "states.fanout_kets_in": "count",
    "states.fanout_kets_out": "count",
    "states.fanin_apply_ms": "ms",
    "states.fanin_applies": "count",
    "states.project_ms": "ms",
    "states.project_keep_ratio": "ratio",
    "pipeline.branch_states_ms": "ms",
    "pipeline.branch_states_calls": "count",
    "pipeline.branch_recompute_ratio": "ratio",
    "pipeline.run_full_ms": "ms",
    "pipeline.run_full_calls": "count",
    "pipeline.finish_ms": "ms",
    "pipeline.postselect_ms": "ms",
    "pipeline.patterns": "count",
    "noise.apply_errors_ms": "ms",
    "noise.classify_ms": "ms",
    "noise.classify_calls": "count",
    "noise.family_reuse_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# span name -> (time metric, count metric); time is the span's whole interval
_INCLUSIVE = {
    "dsl.parse": ("dsl.parse_ms", None),
    "dsl.elaborate": ("dsl.elaborate_ms", None),
    "network.analyze": ("network.analyze_ms", "network.analyze_calls"),
    "elements.make": (None, "elements.constructed"),
    "source.emission": ("source.emission_ms", None),
    "qnd.tag": ("qnd.tag_ms", None),
    "qnd.homodyne": ("qnd.homodyne_ms", None),
    "qnd.feed_forward": ("qnd.feed_forward_ms", None),
    "states.project": ("states.project_ms", None),
    "pipeline.branch_states": ("pipeline.branch_states_ms", "pipeline.branch_states_calls"),
    "pipeline.run_full": ("pipeline.run_full_ms", "pipeline.run_full_calls"),
    "pipeline.postselect": ("pipeline.postselect_ms", None),
    "noise.apply_errors": ("noise.apply_errors_ms", None),
    "noise.classify": ("noise.classify_ms", "noise.classify_calls"),
}

# span attribute -> count metric it adds to
_ATTRIBUTE_COUNTS = {
    "dsl.parse": {"statements": "dsl.statements"},
    "source.emission": {"kets": "source.emission_kets"},
    "qnd.homodyne": {"branches": "qnd.branches"},
    "pipeline.postselect": {"patterns": "pipeline.patterns"},
}


def layer_metrics(requests: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics from the spans of each request.

    Times are per request in ms, counts are per request; ratios are taken
    over the sums of all requests.
    """
    total: Counter = Counter()
    for spans in requests:
        by_id = {s["id"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)

        def self_ns(span):
            lo, hi = span["start"], span["end"]
            covered = [(max(c["start"], lo), min(c["end"], hi)) for c in children[span["id"]]]
            return (hi - lo) - _union_ns((a, b) for a, b in covered if b > a)

        def under(span, names):
            parent = by_id.get(span["parent"])
            while parent is not None:
                if parent["name"] in names:
                    return True
                parent = by_id.get(parent["parent"])
            return False

        keys = set()
        families = set()
        for s in spans:
            name = s["name"]
            duration = s["end"] - s["start"]
            time_metric, count_metric = _INCLUSIVE.get(name, (None, None))
            if time_metric:
                total[time_metric] += duration
            if count_metric:
                total[count_metric] += 1
            for attribute, metric in _ATTRIBUTE_COUNTS.get(name, {}).items():
                total[metric] += s[attribute]
            if name == "cli.main":
                total["cli.self_ms"] += self_ns(s)
            elif name == "cli.cmd_sweep":
                total["cli.sweep_self_ms"] += self_ns(s)
            elif name == "elements.build" and not under(s, {"elements.build"}):
                total["elements.build_ms"] += duration
            elif name == "states.apply":
                side = "fanout" if under(s, {"pipeline.branch_states"}) else "fanin"
                total[f"states.{side}_apply_ms"] += self_ns(s)
                total[f"states.{side}_applies"] += 1
                if side == "fanout":
                    total["states.fanout_kets_in"] += s["kets_in"]
                    total["states.fanout_kets_out"] += s["kets_out"]
            elif name == "states.project":
                total["project_in"] += s["kets_in"]
                total["project_kept"] += s["kets_out"]
            elif name == "pipeline.branch_states":
                keys.add(s["key"])
            elif name == "pipeline.run_full":
                inner = sum(
                    c["end"] - c["start"]
                    for c in children[s["id"]]
                    if c["name"] == "pipeline.branch_states"
                )
                total["pipeline.finish_ms"] += duration - inner
            elif name == "noise.classify":
                families.add(s["family"])
        total["distinct_keys"] += len(keys)
        total["distinct_families"] += len(families)

    n = max(len(requests), 1)
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if unit == "ms":
            metrics[name] = total[name] / 1e6 / n
        elif unit == "count":
            metrics[name] = total[name] / n
    metrics["states.project_keep_ratio"] = _ratio(total["project_kept"], total["project_in"])
    metrics["pipeline.branch_recompute_ratio"] = _ratio(
        total["pipeline.branch_states_calls"], total["distinct_keys"]
    )
    metrics["noise.family_reuse_ratio"] = _ratio(
        total["distinct_families"], total["noise.classify_calls"]
    )
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

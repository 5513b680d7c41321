"""Outside-in span tracer for coop_lsvi.

The tracer replaces public functions and methods of the simulator with
wrappers that record one span per call (name, parent, start, end) in memory,
and puts the original objects back when the traced block ends. Nothing
inside the simulator changes. Standard library only.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# Tail percentiles considered for per-episode latency, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def _bump(key, amount_of):
    def hook(counters, args, result):
        counters[key] += amount_of(args, result)
    return hook


def layer_targets():
    """(owner, attribute, span name, after-hook, before-hook) for every layer.

    A layer is a module of the package. Hooks add work counts at the same
    boundary as the span: ``before(counters, args)`` runs ahead of the call,
    ``after(counters, args, result)`` after it.
    """
    from coop_lsvi import agent, harness, mdp, psdmat, server

    A, M, P, S = agent.LsviAgent, mdp.LinearMdp, psdmat.PsdMatrix, server.CentralServer

    def rebuild(counters, args):
        state, m = args
        counters["harness.agent_tables.rebuilds"] += state.tables[m - 1] is None

    return [
        (P, "rank_one_update", "psdmat.rank_one_update", None, None),
        (P, "quad_form_many", "psdmat.quad_form_many",
         _bump("psdmat.quad_form_many.flops",
               lambda a, r: 2 * a[1].shape[0] * a[1].shape[1] ** 2), None),
        (P, "solve", "psdmat.solve", None, None),
        (P, "copy", "psdmat.copy", None, None),
        (P, "refresh", "psdmat.refresh", None, None),
        (M, "step", "mdp.step", None, None),
        (mdp, "eval_policy", "mdp.eval_policy", None, None),
        (mdp, "value_iteration", "mdp.value_iteration", None, None),
        (A, "record_transition", "agent.record_transition", None, None),
        (A, "should_communicate", "agent.should_communicate",
         _bump("agent.should_communicate.fired", lambda a, r: int(r[0])), None),
        (A, "lsvi_backward_update", "agent.lsvi_backward_update",
         _bump("agent.lsvi_backward_update.rows", lambda a, r: sum(map(len, a[2]))), None),
        (A, "action_values", "agent.action_values", None, None),
        (A, "own_history", "agent.own_history",
         _bump("agent.own_history.rows", lambda a, r: sum(map(len, r))), None),
        (A, "local_cov_snapshot", "agent.local_cov_snapshot", None, None),
        (A, "reset_local", "agent.reset_local", None, None),
        (S, "upload", "server.upload",
         _bump("server.upload.transitions", lambda a, r: sum(map(len, a[1].loc_transitions))),
         None),
        (S, "download", "server.download",
         _bump("server.download.rows_served", lambda a, r: sum(map(len, r[1]))), None),
        (harness, "run_episode", "harness.run_episode", None, None),
        (harness.RunState, "agent_tables", "harness.agent_tables", None, rebuild),
        (harness, "build_run_state", "harness.build_run_state", None, None),
    ]


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        # Each span is [name id, parent span index or -1, start ns, end ns].
        self.spans: list[list[int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.wall_ns = 0
        self._stack: list[int] = []

    def _wrapper(self, original, name, after, before):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args)
            span = [nid, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore it.

        The originals are read from the owner's own namespace, so what is put
        back is the identical object that was there before.
        """
        saved = []
        try:
            for owner, attr, name, after, before in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, after, before))
            start = self.clock()
            try:
                yield self
            finally:
                self.wall_ns = self.clock() - start
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name calls and self time, plus the time no span covers.

        Self time is a span's duration minus the durations of its direct
        children. Summed over all spans it telescopes to the duration of the
        top-level spans, so self times plus uncovered time equal the wall time
        of the traced block exactly (integer nanoseconds).
        """
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {name: 0 for name in self.names}
        self_ns: dict[str, int] = {name: 0 for name in self.names}
        durations: dict[str, list[int]] = defaultdict(list)
        covered = 0
        for i, (nid, parent, start, end) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            durations[name].append(end - start)
            if parent < 0:
                covered += end - start
        return {"calls": calls, "self_ns": self_ns, "durations_ns": dict(durations),
                "uncovered_ns": self.wall_ns - covered, "wall_ns": self.wall_ns,
                "counters": dict(self.counters)}

    def write_spans(self, path: str, meta: dict) -> None:
        """JSON lines: a header with the name table, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({**meta, "names": self.names, "wall_ns": self.wall_ns,
                                "span_fields": ["name_id", "parent", "start_ns", "end_ns"]})
                    + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if len(ordered) - _rank(len(ordered), p) >= 10:
            best = p
    return best, ordered[max(_rank(len(ordered), best) - 1, 0)]


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return math.ceil(round(p * n / 100.0, 9))

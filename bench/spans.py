"""Spans around the calls into each layer of kickrl, recorded from outside.

Each function is wrapped where its caller looks it up: ``agents`` imports
``forward`` from ``nets`` by name, so the wrapper replaces
``kickrl.agents.forward``; methods are replaced on their class.  A span is
(name, start, end, parent); spans stay in memory until the run writes them
out.  A layer's self time is its span time minus the time of its children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from kickrl import agents, demos, encoders, envs, harness


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.rows: dict[str, int] = defaultdict(int)
        self.enabled = False

    def wrap(self, name: str, fn, rows=None):
        """Trace calls to fn as `name`; rows(*args) adds a work count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            if rows is not None:
                tracer.rows[name] += rows(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)

        return traced

    def take(self) -> list[tuple[str, int, int, int]]:
        """Hand over the finished spans and start a new list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans


def _targets():
    learners = (agents.QLearner, agents.AdversarialKickstartLearner,
                agents.QDaggerLearner, agents.AwacLearner, agents.BCLearner)
    yield envs, "step", "envs.step"
    for cls in (encoders.IdentityEncoder, encoders.StandardizeEncoder,
                encoders.DenseVaeEncoder):
        yield cls, "encode", "encoders.encode"
        yield cls, "encode_batch", "encoders.encode_batch"
    yield encoders, "train_vae", "encoders.train_vae"
    yield demos, "generate_demos", "demos.generate"
    yield demos, "save_demos", "demos.save"
    yield harness, "load_demos", "demos.load"
    yield harness, "build_index", "retrieval.build_index"
    yield agents, "knn_batch", "retrieval.knn_batch", lambda index, queries, *a, **kw: len(queries)
    for fn in ("forward", "backward", "adam_step", "soft_update"):
        yield agents, fn, f"nets.{fn}"
    for cls in learners:
        if "train_batch" in vars(cls):
            yield cls, "train_batch", "agents.train_batch"
        if "act" in vars(cls):
            yield cls, "act", "agents.act"
    yield agents.QDaggerLearner, "teacher_action", "agents.act"
    yield agents.ArrayBatch, "from_transitions", "agents.batch_assembly"
    yield harness, "her_augment", "agents.her_augment"
    yield agents.AdversarialKickstartLearner, "_refresh_demo_cache", "agents.demo_q_refresh"
    yield harness.ReplayBuffer, "push", "harness.replay_push"
    yield harness, "replay_sample", "harness.replay_sample"
    yield harness, "evaluate", "harness.evaluate"
    yield harness, "train_bc_policy", "harness.teacher_bc"
    yield harness, "train_run", "harness.train_run"
    yield harness, "write_metrics_csv", "harness.write"
    yield harness, "_write_summary", "harness.write"
    yield harness, "save_arrays", "snapshots.save_arrays"


def instrument(tracer: Tracer) -> None:
    """Replace every traced function with its wrapper, for this process."""
    for owner, attr, name, *rows in _targets():
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, static.__func__, *rows)))
        else:
            setattr(owner, attr, tracer.wrap(name, static, *rows))


class SpanStats:
    """Durations and self times by span name, and by (name, parent name),
    over several span lists (each list's parents index into itself)."""

    def __init__(self, groups: list[list[tuple[str, int, int, int]]]):
        self.total = defaultdict(int)
        self.self_total = defaultdict(int)
        self.calls = defaultdict(int)
        for spans in groups:
            child_ns = [0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for i, (name, start, end, parent) in enumerate(spans):
                parent_name = spans[parent][0] if parent >= 0 else None
                for key in (name, (name, parent_name)):
                    self.total[key] += end - start
                    self.self_total[key] += end - start - child_ns[i]
                    self.calls[key] += 1

    def mean(self, key, scale: float) -> float:
        """Mean span time per call in seconds * scale; 0 without calls."""
        calls = self.calls.get(key, 0)
        return self.total[key] / calls / 1e9 * scale if calls else 0.0

    def mean_self(self, key, scale: float) -> float:
        calls = self.calls.get(key, 0)
        return self.self_total[key] / calls / 1e9 * scale if calls else 0.0


US, MS, S = 1e6, 1e3, 1.0


def layer_metrics(setup: list[list], train: list[list], rounds: int,
                  query_rows: int, snapshot_bytes: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of each traced set-up and of each
    traced training call.  Call counts are per round; times are per call."""
    runs = SpanStats(train)
    setups = [SpanStats([s]) for s in setup]

    def setup_median(name: str) -> float:
        values = sorted(s.total.get(name, 0) / 1e9 for s in setups)
        return values[len(values) // 2]

    in_step = "agents.train_batch"
    grad_steps = runs.calls.get(in_step, 0)
    pushes = runs.calls.get("harness.replay_push", 0)
    loop_ns = runs.total.get("harness.train_run", 0)
    eval_key = ("harness.evaluate", "harness.train_run")
    return {
        "envs.step_us": (runs.mean("envs.step", US), "us"),
        "envs.step_calls": (runs.calls.get("envs.step", 0) / rounds, "count"),
        "encoders.encode_us": (runs.mean("encoders.encode", US), "us"),
        "encoders.encode_batch_us": (runs.mean("encoders.encode_batch", US), "us"),
        "encoders.train_vae_s": (setup_median("encoders.train_vae"), "s"),
        "demos.generate_s": (setup_median("demos.generate"), "s"),
        "demos.save_s": (setup_median("demos.save"), "s"),
        "demos.load_s": (runs.mean("demos.load", S), "s"),
        "retrieval.build_index_ms": (runs.mean("retrieval.build_index", MS), "ms"),
        "retrieval.knn_batch_us": (runs.mean("retrieval.knn_batch", US), "us"),
        "retrieval.knn_batch_calls": (runs.calls.get("retrieval.knn_batch", 0) / rounds, "count"),
        "retrieval.knn_rows_per_transition": (
            query_rows / pushes if pushes else 0.0, "ratio"),
        "nets.forward_us": (runs.mean(("nets.forward", in_step), US), "us"),
        "nets.forward_calls_per_grad_step": (
            runs.calls.get(("nets.forward", in_step), 0) / grad_steps if grad_steps else 0.0, "ratio"),
        "nets.backward_us": (runs.mean(("nets.backward", in_step), US), "us"),
        "nets.adam_step_us": (runs.mean(("nets.adam_step", in_step), US), "us"),
        "nets.soft_update_us": (runs.mean("nets.soft_update", US), "us"),
        "agents.train_batch_us": (runs.mean(in_step, US), "us"),
        "agents.train_batch_self_us": (runs.mean_self(in_step, US), "us"),
        "agents.batch_assembly_us": (runs.mean("agents.batch_assembly", US), "us"),
        "agents.her_augment_us": (runs.mean("agents.her_augment", US), "us"),
        "agents.demo_q_refresh_ms": (runs.mean("agents.demo_q_refresh", MS), "ms"),
        "agents.act_us": (runs.mean("agents.act", US), "us"),
        "harness.replay_push_us": (runs.mean("harness.replay_push", US), "us"),
        "harness.replay_sample_us": (runs.mean("harness.replay_sample", US), "us"),
        "harness.evaluate_ms": (runs.mean(eval_key, MS), "ms"),
        "harness.evaluate_share": (runs.total.get(eval_key, 0) / loop_ns if loop_ns else 0.0, "ratio"),
        "harness.teacher_bc_s": (runs.mean("harness.teacher_bc", S), "s"),
        "harness.loop_self_s": (runs.mean_self("harness.train_run", S), "s"),
        "harness.write_ms": (
            runs.total.get("harness.write", 0) / 1e6 / runs.calls["harness.train_run"], "ms"),
        "snapshots.save_arrays_ms": (runs.mean("snapshots.save_arrays", MS), "ms"),
        "snapshots.snapshot_bytes": (snapshot_bytes, "bytes"),
    }


def write_spans(path: str, phases: list[tuple[str, list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phase,id,parent,name,start_ns,end_ns\n")
        for phase, spans in phases:
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{phase},{i},{parent},{name},{start},{end}\n")

"""The benchmark's trace points must name attributes that exist: a renamed or
moved function would crash ``bench/run.py --trace 1`` before its first span."""

from __future__ import annotations

import importlib.util
import inspect
import os

from kickrl import agents, harness

BENCH_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_every_trace_point_resolves_without_instrumenting() -> None:
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = list(spans._targets())
    assert targets
    for owner, attr, name, *_ in targets:
        static = inspect.getattr_static(owner, attr)
        assert callable(static) or isinstance(static, (classmethod, staticmethod)), name


def test_the_replay_trace_points_see_every_sampled_batch(tmp_path, monkeypatch) -> None:
    """``bench/spans.py`` wraps ``harness.replay_sample`` and
    ``harness.her_augment`` where the loop looks them up; each wrapper must
    run once per gradient step, or its span reads 0."""
    calls = {"replay_sample": 0, "her_augment": 0}
    for name in calls:
        fn = getattr(harness, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    hp = agents.scale_step_budgets(agents.defaults_for("her"), 300)
    record = harness.train_run(harness.RunConfig(
        env_name="room-nav", agent="her", total_steps=300, seed=1, out_dir=str(tmp_path),
        hp=hp, eval_cadence=300, eval_episodes=1))
    assert record.grad_steps > 0
    assert calls == {"replay_sample": record.grad_steps, "her_augment": record.grad_steps}

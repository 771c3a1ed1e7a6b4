"""Tests for the observability layer (``repro.obs``).

Covers the tracer (span nesting, exception safety, disabled no-op fast
path, normalization determinism), the flame report and the scoped
tracer installation helpers.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    Tracer,
    current_tracer,
    flame_summary,
    install_from_env,
    install_tracer,
    normalize_trace,
    parse_trace,
    trace,
    uninstall_tracer,
    use_tracer,
)
from repro.obs.tracer import NOOP_SPAN


# ---------------------------------------------------------------------------
# Span basics
# ---------------------------------------------------------------------------


class TestSpanNesting:
    def test_parent_and_depth(self):
        t = Tracer(enabled=True)
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
            with t.span("d"):
                pass
        recs = {r["name"]: r for r in t.records}
        assert recs["a"]["parent"] is None and recs["a"]["depth"] == 0
        assert recs["b"]["parent"] == recs["a"]["i"] and recs["b"]["depth"] == 1
        assert recs["c"]["parent"] == recs["b"]["i"] and recs["c"]["depth"] == 2
        assert recs["d"]["parent"] == recs["a"]["i"] and recs["d"]["depth"] == 1

    def test_sibling_spans_do_not_nest(self):
        t = Tracer(enabled=True)
        with t.span("x"):
            pass
        with t.span("y"):
            pass
        recs = t.records
        assert all(r["parent"] is None for r in recs)
        assert all(r["depth"] == 0 for r in recs)

    def test_attrs_recorded_and_set(self):
        t = Tracer(enabled=True)
        with t.span("s", k=3) as sp:
            sp.set(extra="v", n=7)
        (rec,) = t.records
        assert rec["attrs"] == {"k": 3, "extra": "v", "n": 7}

    def test_wall_and_cpu_time_nonnegative(self):
        t = Tracer(enabled=True)
        with t.span("s"):
            sum(range(1000))
        (rec,) = t.records
        assert rec["wall_s"] >= 0.0
        assert rec["cpu_s"] >= 0.0

    def test_per_thread_stacks(self):
        t = Tracer(enabled=True)

        def work(tag):
            with t.span(f"outer-{tag}"):
                with t.span(f"inner-{tag}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        recs = {r["name"]: r for r in t.records}
        for i in range(3):
            outer, inner = recs[f"outer-{i}"], recs[f"inner-{i}"]
            assert inner["parent"] == outer["i"]
            assert outer["parent"] is None


class TestSpanExceptionSafety:
    def test_error_status_and_propagation(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("no")
        (rec,) = t.records
        assert rec["status"] == "error:ValueError"
        assert t.open_spans == 0

    def test_nested_error_closes_all_spans(self):
        t = Tracer(enabled=True)
        with pytest.raises(KeyError):
            with t.span("outer"):
                with t.span("inner"):
                    raise KeyError("gone")
        recs = {r["name"]: r for r in t.records}
        assert recs["inner"]["status"] == "error:KeyError"
        assert recs["outer"]["status"] == "error:KeyError"
        assert t.open_spans == 0

    def test_ok_status_on_success(self):
        t = Tracer(enabled=True)
        with t.span("fine"):
            pass
        assert t.records[0]["status"] == "ok"


class TestDisabledNoop:
    def test_disabled_tracer_returns_shared_noop(self):
        t = Tracer(enabled=False)
        assert t.span("anything") is NOOP_SPAN
        assert len(t) == 0

    def test_noop_span_api_is_inert(self):
        with NOOP_SPAN as sp:
            sp.set(a=1)
        # No state, no error — and reusable.
        with NOOP_SPAN:
            pass

    def test_global_dispatch_disabled_without_tracer(self):
        assert current_tracer() is None
        assert trace.enabled is False
        assert trace.span("x") is NOOP_SPAN

    def test_global_dispatch_enabled_under_use_tracer(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            assert trace.enabled is True
            with trace.span("inside"):
                pass
        assert trace.enabled is False
        assert [r["name"] for r in t.records] == ["inside"]


class TestTracerBookkeeping:
    def test_open_spans_counts(self):
        t = Tracer(enabled=True)
        sp = t.span("hanging")
        sp.__enter__()
        assert t.open_spans == 1
        sp.__exit__(None, None, None)
        assert t.open_spans == 0
        assert t.spans_started == t.spans_finished == 1

    def test_reset(self):
        t = Tracer(enabled=True)
        with t.span("a"):
            pass
        t.reset()
        assert len(t) == 0
        assert t.spans_started == 0 and t.spans_finished == 0

    def test_jsonl_roundtrip(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("a", n=1):
            with t.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        t.write(str(path))
        parsed = parse_trace(str(path))
        assert len(parsed) == 2
        assert {r["name"] for r in parsed} == {"a", "b"}
        # Each line is valid standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)


# ---------------------------------------------------------------------------
# use_tracer / install helpers
# ---------------------------------------------------------------------------


class TestInstallScoping:
    def test_use_tracer_restores_previous(self):
        outer, inner = Tracer(enabled=True), Tracer(enabled=True)
        with use_tracer(outer):
            assert current_tracer() is outer
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_use_tracer_reentrant_same_tracer(self):
        t = Tracer(enabled=True)
        with use_tracer(t):
            with use_tracer(t):
                with trace.span("x"):
                    pass
            assert current_tracer() is t
        assert len(t) == 1

    def test_use_tracer_restores_on_error(self):
        t = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with use_tracer(t):
                raise RuntimeError("bail")
        assert current_tracer() is None

    def test_install_uninstall(self):
        t = Tracer(enabled=True)
        install_tracer(t)
        try:
            assert current_tracer() is t
        finally:
            uninstall_tracer()
        assert current_tracer() is None

    def test_install_from_env_absent(self):
        assert install_from_env(environ={}, register_atexit=False) is None
        assert current_tracer() is None

    def test_install_from_env_present(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = install_from_env(
            environ={"SPLITQUANT_TRACE": str(path)}, register_atexit=False
        )
        try:
            assert t is not None
            assert t.enabled
            assert current_tracer() is t
        finally:
            uninstall_tracer()


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class TestNormalizeTrace:
    def _run_once(self):
        t = Tracer(enabled=True)
        with t.span("plan", model="m", ratio=0.3333333333333333):
            with t.span("solve", k=1):
                pass
            with t.span("solve", k=2):
                pass
        return t.records

    def test_identical_logical_runs_normalize_identically(self):
        a = normalize_trace(self._run_once())
        b = normalize_trace(self._run_once())
        assert isinstance(a, str)
        assert a == b

    def test_normalization_drops_timing_and_ids(self):
        norm = normalize_trace(self._run_once())
        for line in norm.splitlines():
            rec = json.loads(line)
            assert "t0_s" not in rec
            assert "wall_s" not in rec
            assert "cpu_s" not in rec
            assert "thread" not in rec
            assert "parent" not in rec
            assert set(rec) == {"path", "name", "status", "attrs", "i"}

    def test_normalization_keeps_ancestor_paths(self):
        norm = normalize_trace(self._run_once())
        paths = [json.loads(ln)["path"] for ln in norm.splitlines()]
        assert paths == ["plan", "plan/solve", "plan/solve"]

    def test_normalization_is_order_insensitive(self):
        recs = self._run_once()
        assert normalize_trace(recs) == normalize_trace(list(reversed(recs)))

    def test_float_attrs_rounded(self):
        t = Tracer(enabled=True)
        with t.span("s", x=0.1 + 0.2):
            pass
        (line,) = normalize_trace(t.records).splitlines()
        rec = json.loads(line)
        assert rec["attrs"]["x"] == float(f"{0.1 + 0.2:.12g}")


# ---------------------------------------------------------------------------
# Flame report
# ---------------------------------------------------------------------------


class TestFlameSummary:
    def test_renders_tree(self):
        t = Tracer(enabled=True)
        with t.span("root"):
            with t.span("child"):
                pass
            with t.span("child"):
                pass
        text = flame_summary(t.records)
        assert "root" in text
        # aggregated: the two child spans collapse into one path line
        child_lines = [
            ln for ln in text.splitlines() if ln.lstrip().startswith("child")
        ]
        assert len(child_lines) == 1
        assert " 2 " in child_lines[0]

    def test_span_count_in_footer(self):
        t = Tracer(enabled=True)
        with t.span("only"):
            pass
        assert "1 spans, 0 errored" in flame_summary(t.records)

    def test_empty_trace(self):
        assert flame_summary([]) == "(empty trace)\n"


# ---------------------------------------------------------------------------
# Hypothesis: every span opened is closed exactly once
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def span_trees(draw, depth=0):
    """A random tree of (name, raises, children) span instructions."""
    name = draw(st.sampled_from(["a", "b", "c", "d"]))
    raises = draw(st.booleans()) if depth > 0 else False
    if depth >= 3 or raises:
        children = []
    else:
        children = draw(
            st.lists(span_trees(depth=depth + 1), min_size=0, max_size=3)
        )
    return (name, raises, children)


def _execute(tracer, node):
    name, raises, children = node
    with tracer.span(name):
        if raises:
            raise RuntimeError(name)
        for child in children:
            try:
                _execute(tracer, child)
            except RuntimeError:
                pass  # contain failures so siblings still run


@given(st.lists(span_trees(), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_every_span_opened_is_closed_exactly_once(trees):
    t = Tracer(enabled=True)
    for tree in trees:
        try:
            _execute(t, tree)
        except RuntimeError:
            pass
    assert t.open_spans == 0
    assert t.spans_started == t.spans_finished == len(t.records)
    # Every record carries a terminal status.
    assert all(
        r["status"] == "ok" or r["status"].startswith("error:")
        for r in t.records
    )

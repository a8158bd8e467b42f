"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen_call_web  # noqa: E402
import gen_synth_wide  # noqa: E402
import run  # noqa: E402
from checks import check_report  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("generator", [gen_call_web, gen_synth_wide])
def test_generators_are_deterministic(tmp_path, generator):
    first = generator.generate(11, tmp_path / "a")
    second = generator.generate(11, tmp_path / "b")
    other = generator.generate(12, tmp_path / "c")
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert json.loads((tmp_path / "a" / "expected.json").read_text(encoding="utf-8")) == first


def test_synth_wide_size_does_not_depend_on_seed(tmp_path):
    sizes = set()
    for seed in (1, 2):
        gen_synth_wide.generate(seed, tmp_path / str(seed))
        sizes.add(run.count_smali_lines(tmp_path / str(seed) / "smali")[1])
    assert len(sizes) == 1
    assert 55_000 < sizes.pop() < 75_000


def test_every_pinned_fixture_passes_its_check(tmp_path):
    for app in run.fixture_apps(tmp_path):
        sample = run.run_app(app)
        assert sample.problems == [], app.app_id


def test_call_web_report_passes_its_check(tmp_path):
    expected = gen_call_web.generate(5, tmp_path / "app")
    app = run._make_app(expected["app_id"], tmp_path / "app" / "smali", tmp_path, expected)
    assert run.run_app(app).problems == []


def test_removed_guard_raises_wrong_ratio(tmp_path, monkeypatch):
    apps = run.fixture_apps(tmp_path, ("oppo_perm", "meizu_imei", "diamond"))
    real_analyze = run.analyze

    def tampered(app, tracer=None):
        text, seconds = real_analyze(app, tracer)
        if app.app_id != "meizu_imei":
            return text, seconds
        report = json.loads(text)
        report["snippets"].pop()
        report["guards"] -= 1
        return json.dumps(report), seconds

    monkeypatch.setattr(run, "analyze", tampered)
    monkeypatch.setattr(run, "measure_setup", lambda: [0.05])
    samples, metrics, notes = run.end_to_end(iter(apps), seconds=60.0)
    assert [s.app.app_id for s in samples if s.problems] == ["meizu_imei"]
    assert metrics["correct_ratio"][0] == pytest.approx(2 / 3)
    assert any("wrong_ratio: 1/3" in n for n in notes)


def test_check_names_a_missing_guard():
    report = {
        "analysis_status": "ok", "failure_reason": None, "taint_converged": True,
        "source_counts": {"build_field_read": 1}, "guards": 0, "snippets": [],
        "brands": [], "oses": [], "models": [], "functionalities": [],
    }
    expected = {
        "expect_status": "ok", "source_counts": {"build_field_read": 1},
        "guards": [{"method": "LA;->f()V", "index": 3, "comparison": "string_equals",
                    "identifiers": {"brand": ["OPPO"]}, "categories": ["OAID"]}],
    }
    problems = check_report(report, expected)
    assert any("guard sites" in p for p in problems)
    assert any("brands" in p for p in problems)


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("a", 1.0, 4.0, 0, "a"),
        Span("b", 3.0, 6.0, 0, "a"),  # overlaps a: together they cover 1..6
        Span("a.child", 2.0, 3.0, 1, "a"),
        Span("late", 8.0, 12.0, 0, "a"),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


class _Layer:
    @staticmethod
    def outer(x):
        return _Layer.inner(x) + 1

    @staticmethod
    def inner(x):
        return x * 2


def test_tracer_records_parents_and_restores_attributes():
    original = _Layer.__dict__["inner"]
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", observe=lambda args, result: seen.append(result))
    tracer.app = "app1"
    try:
        assert _Layer.outer(3) == 7
    finally:
        tracer.unwrap_all()
    assert [(s.name, s.parent, s.app) for s in tracer.spans] == [("outer", -1, "app1"), ("inner", 0, "app1")]
    assert seen == [6]
    assert _Layer.__dict__["inner"] is original


def test_tracer_fails_on_a_renamed_name():
    with pytest.raises(AttributeError):
        Tracer().wrap(_Layer, "renamed", "layer.renamed")


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    apps = run.fixture_apps(tmp_path, ("oppo_perm", "packed_app", "diamond"))
    samples, metrics, notes = run.per_layer("fixtures", 1, iter(apps * 5), seconds=0.02)
    assert not any(s.problems for s in samples)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: [0.05])
    apps = run.fixture_apps(tmp_path, ("oppo_perm",))
    _, metrics, _ = run.end_to_end(iter(apps * 3), seconds=0.01)
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]
        assert metrics[m["name"]][0] > 0, m["name"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])

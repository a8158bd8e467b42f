from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from devscan import fixtures as corpus
from devscan.devicedb import default_device_db
from devscan.graphs import build_call_graph, build_cfgs
from devscan.rules import default_rules
from devscan.taint import TaintEngine, find_sources


class CorpusRun:
    """Loaded program plus the full analysis chain for one corpus fixture."""

    def __init__(self, fixture):
        self.fixture = fixture
        self.manifest = fixture.manifest
        self.program = fixture.load()
        self.cfgs = build_cfgs(self.program)
        self.call_graph = build_call_graph(self.program)
        self.sources = find_sources(self.program, self.cfgs)
        self.taint = TaintEngine(self.cfgs, self.call_graph, self.sources).solve()


_runs: dict[str, CorpusRun] = {}


def corpus_run(fixture_id: str) -> CorpusRun:
    if fixture_id not in _runs:
        _runs[fixture_id] = CorpusRun(corpus.load_fixture(fixture_id))
    return _runs[fixture_id]


def load_script(relpath: str):
    """Import a script of this repository that is not in a package, by path."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def budget_bomb(tmp_path_factory):
    """Smali root of the generated budget_bomb app, written once per session."""
    generator = load_script("tools/gen_budget_bomb.py")
    return generator.generate(tmp_path_factory.mktemp("budget_bomb"))


@pytest.fixture(scope="session")
def device_db():
    return default_device_db()


@pytest.fixture(scope="session")
def rules():
    return default_rules()


@pytest.fixture(scope="session")
def all_fixture_ids():
    return corpus.list_fixture_ids()


# one pass/fail line per acceptance criterion at the end of the run
_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"{outcome}  {name}")

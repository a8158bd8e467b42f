"""Annotated smali fixture corpus and its loader.

Each fixture directory holds a ``manifest.json`` beside a ``smali/`` tree.
Annotations name the expected sources, confirmed guards and snippets, and
optionally an exact tainted-register trace at chosen program points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path

from ..ir import Program
from ..smali import load_program

from .oracle import OracleLimitError, oracle_interpret

__all__ = [
    "Fixture",
    "FixtureManifest",
    "OracleLimitError",
    "corpus_root",
    "list_fixture_ids",
    "load_fixture",
    "oracle_interpret",
    "validate_manifest",
]


@dataclass
class FixtureManifest:
    fixture_id: str
    description: str
    expect_status: str = "ok"
    expect_failure_reason: str | None = None
    apk_entries: list[str] = field(default_factory=list)
    expected_sources: list[dict] = field(default_factory=list)
    expected_guards: list[dict] = field(default_factory=list)
    expected_snippets: list[dict] = field(default_factory=list)
    oracle_trace: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FixtureManifest":
        return cls(**data)


@dataclass
class Fixture:
    manifest: FixtureManifest
    path: Path

    @property
    def fixture_id(self) -> str:
        return self.manifest.fixture_id

    @property
    def smali_root(self) -> Path:
        return self.path / "smali"

    def load(self) -> Program:
        program, diagnostics = load_program(self.smali_root)
        if diagnostics:
            raise ValueError(f"{self.fixture_id}: fixture has parse diagnostics: {diagnostics}")
        return program


def corpus_root() -> Path:
    return Path(str(files("devscan") / "fixtures" / "corpus"))


def list_fixture_ids() -> list[str]:
    return sorted(p.name for p in corpus_root().iterdir() if (p / "manifest.json").is_file())


def load_fixture(fixture_id: str) -> Fixture:
    path = corpus_root() / fixture_id
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no fixture named {fixture_id!r}")
    manifest = FixtureManifest.from_json_dict(
        json.loads(manifest_path.read_text(encoding="utf-8"))
    )
    if manifest.fixture_id != fixture_id:
        raise ValueError(f"{fixture_id}: manifest names itself {manifest.fixture_id!r}")
    return Fixture(manifest=manifest, path=path)


def validate_manifest(fixture: Fixture, program: Program) -> list[str]:
    """Annotation references that do not exist in the fixture program."""
    problems: list[str] = []
    methods = {m.signature: m for m in program.methods()}

    def check_location(sig: str, index: int, what: str) -> None:
        method = methods.get(sig)
        if method is None:
            problems.append(f"{what}: unknown method {sig}")
        elif not 0 <= index < len(method.instructions):
            problems.append(f"{what}: index {index} out of range for {sig}")

    m = fixture.manifest
    for src in m.expected_sources:
        check_location(src["method"], src["index"], "expected_sources")
    for guard in m.expected_guards:
        check_location(guard["method"], guard["index"], "expected_guards")
    for snippet in m.expected_snippets:
        check_location(snippet["guard_method"], snippet["guard_index"], "expected_snippets")
        for sig in snippet.get("reachable_methods", []):
            if sig not in methods:
                problems.append(f"expected_snippets: unknown reachable method {sig}")
    for sig, points in m.oracle_trace.items():
        method = methods.get(sig)
        if method is None:
            problems.append(f"oracle_trace: unknown method {sig}")
            continue
        for index in points:
            if not 0 <= int(index) < len(method.instructions):
                problems.append(f"oracle_trace: index {index} out of range for {sig}")
    return problems

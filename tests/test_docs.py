"""Docs snippet validation: every snippet must reference real symbols.

The documentation tree (``docs/*.md``) and the README are checked
against the source of truth they describe:

* dotted ``repro.*`` names in fenced code blocks must resolve to an
  importable module or attribute,
* ``repro-verify`` command lines must use real subcommands and flags
  (validated against :func:`repro.cli.build_parser`),
* HTTP method + path mentions must match routes of the server app — in
  both directions: no documented route may be missing from the app, and
  no app route may be missing from ``docs/http-api.md``,
* referenced repository files (``tests/...py``, ``benchmarks/...py``,
  ``docs/...md``, ...) must exist, and named ``test_*`` functions must
  exist somewhere under ``tests/``.

This is the CI docs job: documentation that names a renamed symbol,
dropped flag, or moved file fails the build instead of rotting.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

_FENCE = re.compile(r"^```([A-Za-z]*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_INLINE = re.compile(r"`([^`\n]+)`")
_HTTP_ROUTE = re.compile(r"\b(GET|POST|PUT|DELETE)\s+(/[A-Za-z0-9_/{}.-]*)")
_REPO_FILE = re.compile(
    r"^(?:tests|benchmarks|docs|examples|src|\.github)/\S+"
    r"\.(?:py|md|json|yml|toml)$")


def _fenced_blocks(path: Path) -> list[tuple[str, str]]:
    return _FENCE.findall(path.read_text(encoding="utf-8"))


def _resolve(dotted: str) -> bool:
    """True iff ``dotted`` names an importable module or attribute chain."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                obj = getattr(obj, attribute)
        except AttributeError:
            return False
        return True
    return False


def test_docs_tree_exists():
    for name in ("architecture.md", "paper-mapping.md", "http-api.md",
                 "certificates.md", "fleet.md"):
        assert (REPO / "docs" / name).exists(), f"missing docs/{name}"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_fenced_dotted_names_resolve(path):
    unresolved = []
    for _, block in _fenced_blocks(path):
        for dotted in set(_DOTTED.findall(block)):
            if not _resolve(dotted):
                unresolved.append(dotted)
    assert not unresolved, (
        f"{path.name} fenced snippets reference unknown symbols: "
        f"{sorted(set(unresolved))}")


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_inline_dotted_names_resolve(path):
    unresolved = []
    for span in _INLINE.findall(path.read_text(encoding="utf-8")):
        if re.fullmatch(_DOTTED, span) and not _resolve(span):
            unresolved.append(span)
    assert not unresolved, (
        f"{path.name} inline code references unknown symbols: "
        f"{sorted(set(unresolved))}")


def _cli_lines(block: str) -> list[str]:
    """Shell lines invoking repro-verify, with backslash continuations joined."""
    joined = re.sub(r"\\\n\s*", " ", block)
    return [line.strip().lstrip("$ ").strip()
            for line in joined.splitlines()
            if line.strip().lstrip("$ ").startswith("repro-verify")]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    from repro.cli import build_parser
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_cli_snippets_use_real_subcommands_and_flags(path):
    subcommands = _subcommands()
    problems = []
    for _, block in _fenced_blocks(path):
        for line in _cli_lines(block):
            tokens = line.split()
            if len(tokens) < 2:
                continue
            command = tokens[1]
            if command not in subcommands:
                problems.append(f"unknown subcommand in {line!r}")
                continue
            known = {option for action in subcommands[command]._actions
                     for option in action.option_strings}
            for token in tokens[2:]:
                if token.startswith("-"):
                    flag = token.split("=", 1)[0]
                    if flag not in known:
                        problems.append(
                            f"unknown flag {flag!r} for {command!r} "
                            f"in {line!r}")
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_documented_http_routes_exist_in_the_app():
    from repro.server import app as app_module
    app_source = inspect.getsource(app_module)
    text = (REPO / "docs" / "http-api.md").read_text(encoding="utf-8")
    for method, route in set(_HTTP_ROUTE.findall(text)):
        prefix = route.split("{", 1)[0]
        assert prefix in app_source, (
            f"docs/http-api.md documents {method} {route}, "
            f"but {prefix!r} does not appear in repro/server/app.py")


def test_every_app_route_is_documented():
    from repro.server.app import VerificationServerApp
    text = (REPO / "docs" / "http-api.md").read_text(encoding="utf-8")
    for method, route in VerificationServerApp.ROUTES:
        assert f"{method} {route}" in text or f"`{route}`" in text, (
            f"route {method} {route} is not documented in docs/http-api.md")
    assert "/v1/jobs/" in text
    assert "/v1/certificates/" in text


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_referenced_repository_files_exist(path):
    missing = []
    for span in _INLINE.findall(path.read_text(encoding="utf-8")):
        if _REPO_FILE.match(span) and not (REPO / span).exists():
            missing.append(span)
    assert not missing, f"{path.name} references missing files: {missing}"


def test_named_test_functions_exist():
    haystack = "\n".join(
        test_file.read_text(encoding="utf-8")
        for test_file in (REPO / "tests").rglob("test_*.py"))
    missing = []
    for path in DOC_FILES:
        for span in _INLINE.findall(path.read_text(encoding="utf-8")):
            if re.fullmatch(r"test_[A-Za-z0-9_]+", span) and \
                    f"def {span}(" not in haystack:
                missing.append(f"{path.name}: {span}")
    assert not missing, f"docs name unknown tests: {missing}"


def test_readme_links_the_docs_tree():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for name in ("docs/architecture.md", "docs/paper-mapping.md",
                 "docs/http-api.md", "docs/certificates.md",
                 "docs/fleet.md"):
        assert name in readme, f"README must link {name}"


def test_backends_endpoint_emits_the_full_backend_spec():
    """`/v1/backends` must mirror every BackendSpec field, name for name.

    A capability flag added to the registry dataclass (like
    ``certifiable``) that is forgotten on the wire fails here instead of
    silently hiding the capability from HTTP clients.
    """
    import dataclasses
    import json as json_module

    from repro.api.registry import BackendSpec, get_backend
    from repro.server.app import VerificationServerApp

    app = VerificationServerApp()
    try:
        response = app.handle("GET", "/v1/backends")
    finally:
        app.close()
    entries = json_module.loads(response.body.decode("utf-8"))["backends"]
    spec_fields = {field.name for field in dataclasses.fields(BackendSpec)}
    for entry in entries:
        assert set(entry) == spec_fields, (
            f"backend {entry.get('name')!r} wire keys {sorted(entry)} != "
            f"BackendSpec fields {sorted(spec_fields)}")
        spec = get_backend(entry["name"])
        tuple_fields = {"budget_keys", "degrades_to"}
        for name in spec_fields - tuple_fields:
            assert entry[name] == getattr(spec, name)
        for name in tuple_fields:
            assert entry[name] == list(getattr(spec, name))


def test_docs_are_importable_without_src_on_path():
    """The checks above import repro — make the precondition explicit."""
    assert any(Path(entry).name == "src" or (Path(entry) / "repro").exists()
               for entry in sys.path if entry), \
        "run the suite with PYTHONPATH=src (or an installed package)"

"""README.md and ARCHITECTURE.md name only things that exist.

Each check reads the two documents and fails on a name the code does
not define:

* every ``REPRO_*`` environment variable must appear in ``src/`` or
  ``benchmarks/``;
* every ``repro-bist <subcommand>`` must be a subcommand of
  :func:`repro.cli.build_parser`, and every ``--flag`` written after it
  on the same command line must be one of that subcommand's options;
* a ``--flag`` after a benchmark script (``benchmarks/*.py``,
  ``e2ebench/run.py``) must be an option of that script, and a bare
  ``--flag`` in a code span must be an option of the CLI or of some
  script;
* every HTTP route (``GET /path``, or a bare ``/path`` span in a
  sentence that names one) must be routed by ``serve/http.py``.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "ARCHITECTURE.md")
SCRIPT_DIRS = ("benchmarks", "e2ebench")

#: Programs whose flags are not this project's to check.
FOREIGN = {"ruff", "pip", "pytest", "git", "cc", "gcc", "clang", "setarch"}

HTTP_METHODS = ("GET", "POST", "PUT", "DELETE")


def _doc(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def _split_fences(text: str) -> tuple[str, list[str]]:
    """The prose outside fenced blocks, and the fenced blocks' lines."""
    prose, block_lines, fenced = [], [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        (block_lines if fenced else prose).append(line)
    return "\n".join(prose), block_lines


def _code_snippets(text: str) -> list[str]:
    """Inline code spans (joined across line breaks) and fenced lines."""
    prose, block_lines = _split_fences(text)
    spans = [
        " ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)
    ]
    return spans + block_lines


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("build_parser() has no subcommands")


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return set(parser._option_string_actions)


def _script(token: str) -> Path | None:
    """The project script a ``*.py`` command token names, if any."""
    name = Path(token).name
    for directory in SCRIPT_DIRS:
        path = ROOT / directory / name
        if path.is_file():
            return path
    return None


def _script_options(path: Path) -> set[str]:
    return set(re.findall(r"[\"'](--[a-z][a-z0-9-]*)[\"']", path.read_text()))


def _commands(snippet: str):
    """``(command, flags)`` for each command in a snippet.

    ``command`` is ``("cli", subcommand)``, ``("script", path)``,
    ``("foreign", name)`` or ``None`` for flags named on their own.
    """
    for part in re.split(r"&&|\||;|#", snippet):
        command, flags = None, []
        tokens = part.split()
        for index, token in enumerate(tokens):
            if token == "repro-bist":
                following = tokens[index + 1] if index + 1 < len(tokens) else ""
                command = ("cli", following)
            elif token.endswith(".py") and command is None:
                script = _script(token)
                command = ("script", script) if script else ("foreign", token)
            elif token in FOREIGN and command is None:
                command = ("foreign", token)
            elif re.fullmatch(r"--[a-z][a-z0-9-]*(=.*)?", token):
                flags.append(token.split("=")[0])
        if command is not None or flags:
            yield command, flags


def _documented_commands():
    for name in DOCS:
        for snippet in _code_snippets(_doc(name)):
            for command, flags in _commands(snippet):
                yield name, snippet, command, flags


@pytest.mark.parametrize("name", DOCS)
def test_environment_variables_exist(name):
    sources = "\n".join(
        path.read_text(encoding="utf-8", errors="replace")
        for directory in ("src", "benchmarks")
        for path in (ROOT / directory).rglob("*")
        if path.suffix in (".py", ".c")
    )
    named = set(re.findall(r"\bREPRO_[A-Z0-9_]+\b", _doc(name)))
    missing = sorted(var for var in named if var not in sources)
    assert not missing, f"{name} names unknown variables: {missing}"


@pytest.mark.parametrize("name", DOCS)
def test_cli_subcommands_exist(name):
    subcommands = _subparsers()
    named = set(re.findall(r"repro-bist\s+([a-z][a-z0-9-]*)", _doc(name)))
    missing = sorted(named - set(subcommands))
    assert not missing, f"{name} names unknown subcommands: {missing}"


def test_command_line_flags_exist():
    subcommands = _subparsers()
    cli_options = _options(build_parser()).union(
        *(_options(sub) for sub in subcommands.values())
    )
    script_options = set().union(
        *(
            _script_options(path)
            for directory in SCRIPT_DIRS
            for path in (ROOT / directory).glob("*.py")
        )
    )
    problems = []
    for name, snippet, command, flags in _documented_commands():
        if command is None:
            known = cli_options | script_options
        elif command[0] == "foreign":
            continue
        elif command[0] == "script":
            known = _script_options(command[1]) | {"--help"}
        elif command[1] in subcommands:
            known = _options(subcommands[command[1]])
        else:
            # ``repro-bist <command> --help``: any subcommand's options.
            known = cli_options
        problems += [
            f"{name}: {flag} in `{snippet}`" for flag in flags if flag not in known
        ]
    assert not problems, "unknown flags:\n" + "\n".join(problems)


def _served_routes() -> set[tuple[str, str, bool]]:
    """``(method, path, is_prefix)`` for every route ``serve/http.py`` serves."""
    source = (ROOT / "src" / "repro" / "serve" / "http.py").read_text()
    exact = re.findall(r'method == "(\w+)" and path == "([^"]+)"', source)
    prefix = re.findall(
        r'method == "(\w+)" and path\.startswith\("([^"]+)"\)', source
    )
    return {(m, p, False) for m, p in exact} | {(m, p, True) for m, p in prefix}


def _documented_routes(text: str) -> set[tuple[str | None, str]]:
    """``(method or None, path)`` for each route a document names."""
    routes = set()
    prose, _ = _split_fences(text)
    for sentence in re.split(r"(?<=[.;])\s", prose):
        spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", sentence)]
        if not any(span.split()[0] in HTTP_METHODS for span in spans if span):
            continue
        for span in spans:
            method = None
            words = span.split(maxsplit=1)
            if words and words[0] in HTTP_METHODS:
                method, span = words[0], words[1] if len(words) > 1 else ""
            for path in span.split("|"):
                path = re.sub(r"[?\[].*$", "", path.strip())
                if path.startswith("/") and "." not in path:
                    routes.add((method, path))
    return routes


def _is_served(method: str | None, path: str, served) -> bool:
    for served_method, served_path, is_prefix in served:
        if method is not None and method != served_method:
            continue
        if path == served_path:
            return True
        if is_prefix and "<" in path and path.split("<")[0] == served_path:
            return True
    return False


@pytest.mark.parametrize("name", DOCS)
def test_http_routes_exist(name):
    served = _served_routes()
    assert ("GET", "/healthz", False) in served  # the parser found routes
    documented = _documented_routes(_doc(name))
    missing = sorted(
        f"{method or '*'} {path}"
        for method, path in documented
        if not _is_served(method, path, served)
    )
    assert not missing, f"{name} names unserved routes: {missing}"


def test_route_extraction_reads_the_docs():
    """Both documents list the job routes, so the extraction found them."""
    for name in DOCS:
        documented = _documented_routes(_doc(name))
        assert ("POST", "/jobs") in documented, name
        assert ("GET", "/jobs/<id>") in documented, name

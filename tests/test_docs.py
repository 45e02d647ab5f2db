"""The documentation names only things that exist.

Every repository path the documentation names in backticks exists: a
renamed module or a deleted script leaves its old path behind in the
prose, and these tests catch it.  A backticked token counts as a path when
it starts with one of the repository's top-level directories (``repro/``
resolves under ``src/``) or names a ``BENCH_*.json`` file.  A
``::name`` or ``:line`` suffix is stripped, and a glob must match at
least one file.

Names must resolve too, so a deleted symbol cannot linger in the prose:
every backticked dotted ``repro.…`` name imports (module, then
attributes), and every ``path.py::name`` reference names a top-level
``def``, ``class`` or assignment of that file.

Every ``--flag`` of a documented ``mecrepro …`` or ``python -m repro …``
command line exists on the CLI parser: on the named subcommand, or on some
subcommand when the line elides it (``mecrepro ... --stats``).
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]

DOCS = sorted(
    [ROOT / name for name in ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md")]
    + list((ROOT / "docs").glob("*.md"))
)

#: Documents whose CLI command lines are checked.
CLI_DOCS = DOCS + [ROOT / "examples" / "README.md"]

_PREFIXES = ("src/", "repro/", "scripts/", "benchmarks/", "bench/", "docs/", "examples/",
             "tests/")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_SUFFIX = re.compile(r"(::.*|:\d[\d-]*)$")


def _span_tokens(text):
    """``(line number, token)`` for every whitespace-split code-span token
    outside fenced blocks, trailing punctuation stripped."""
    # Blank fenced blocks out (keeping their newlines) so line numbers hold.
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for number, line in enumerate(text.splitlines(), start=1):
        for span in _SPAN.findall(line):
            for token in span.split():
                yield number, token.rstrip(".,;)")


def backticked_paths(text):
    """``(line number, path)`` for every path-like token in a code span."""
    for number, token in _span_tokens(text):
        token = _SUFFIX.sub("", token)
        if token.startswith(_PREFIXES) or re.fullmatch(r"BENCH_\S*\.json", token):
            yield number, token


_DOTTED = re.compile(r"repro(?:\.\w+)+")
_REFERENCE = re.compile(r"(\S+\.py)::(\w+)")


def backticked_names(text):
    """``(line number, name)`` for every dotted ``repro.…`` name in a code
    span; a call's argument list is dropped."""
    for number, token in _span_tokens(text):
        match = _DOTTED.match(token)
        if match:
            yield number, match.group(0)


def backticked_references(text):
    """``(line number, path, name)`` for every ``path.py::name`` token."""
    for number, token in _span_tokens(text):
        match = _REFERENCE.match(token)
        if match:
            yield number, match.group(1), match.group(2)


def _exists(path):
    if path.startswith("repro/"):
        path = "src/" + path
    if any(char in path for char in "*?["):
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


def test_scanner_reads_spans_and_strips_suffixes():
    text = (
        "See `tests/test_obs.py::TestCLI` and `lp/x.py:631`,\n"
        "run `python3 bench/run.py --smoke`.\n"
        "```\n`scripts/in_a_fence.py`\n```\n"
        "`BENCH_example.json` and `repro/core/hta.py:120-130`.\n"
    )
    assert list(backticked_paths(text)) == [
        (1, "tests/test_obs.py"),
        (2, "bench/run.py"),
        (6, "BENCH_example.json"),
        (6, "repro/core/hta.py"),
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: str(doc.relative_to(ROOT)))
def test_backticked_paths_exist(doc):
    missing = [
        f"{doc.relative_to(ROOT)}:{number}: {path}"
        for number, path in backticked_paths(doc.read_text(encoding="utf-8"))
        if not _exists(path)
    ]
    assert not missing, "\n".join(missing)


def _resolves(name):
    """Whether ``name`` imports: the longest module prefix, then attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _top_level_names(path):
    """Names a module's top level defines by ``def``, ``class`` or
    assignment."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_name_scanners_read_dotted_names_and_references():
    text = (
        "Call `repro.lp.solve(problem, cache=...)` or `repro.cli`;\n"
        "see `src/repro/core/hta.py::lp_hta` and `tests/test_obs.py::TestCLI::x`.\n"
        "```\n`repro.in_a_fence`\n```\n"
        "`repro/core/hta.py` is a path, not a name.\n"
    )
    assert list(backticked_names(text)) == [(1, "repro.lp.solve"), (1, "repro.cli")]
    assert list(backticked_references(text)) == [
        (2, "src/repro/core/hta.py", "lp_hta"),
        (2, "tests/test_obs.py", "TestCLI"),
    ]


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: str(doc.relative_to(ROOT)))
def test_backticked_names_resolve(doc):
    unresolved = [
        f"{doc.relative_to(ROOT)}:{number}: {name}"
        for number, name in backticked_names(doc.read_text(encoding="utf-8"))
        if not _resolves(name)
    ]
    assert not unresolved, "\n".join(unresolved)


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: str(doc.relative_to(ROOT)))
def test_path_references_name_top_level_definitions(doc):
    unknown = []
    for number, path, name in backticked_references(doc.read_text(encoding="utf-8")):
        resolved = "src/" + path if path.startswith("repro/") else path
        if not _exists(resolved) or name not in _top_level_names(resolved):
            unknown.append(f"{doc.relative_to(ROOT)}:{number}: {path}::{name}")
    assert not unknown, "\n".join(unknown)


_COMMAND = re.compile(r"(?:\bmecrepro|\bpython3? -m repro)(?=\s|$)(.*)")
#: Where a documented command ends: a pipe, a command separator, a
#: redirection or a shell comment.
_COMMAND_END = re.compile(r"\||&&|;|>|\s#")


def cli_commands(text):
    """``(line number, subcommand, flags)`` for every documented command.

    Fenced lines are read whole, joining ``\\`` continuations; outside
    fences only code spans are read.
    """
    in_fence = False
    pending = ""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            candidates, pending = [pending], ""
        else:
            candidates = _SPAN.findall(line)
        for candidate in candidates:
            for match in _COMMAND.finditer(candidate):
                tokens = _COMMAND_END.split(match.group(1))[0].split()
                subcommand = tokens[0] if tokens else ""
                flags = [
                    token.split("=")[0] for token in tokens
                    if re.fullmatch(r"--[a-z][a-z0-9-]*(=.*)?", token)
                ]
                yield number, subcommand, flags


def _parser_flags():
    """``{subcommand: its option strings}`` of the CLI parser."""
    parser = _build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: set(sub._option_string_actions)
        for name, sub in subparsers.choices.items()
    }


def test_command_scanner_reads_fences_spans_and_continuations():
    text = (
        "Run `mecrepro figure fig2a --seeds 0 | diff - x --brief` or\n"
        "`python -m repro.cli --nope` and `mecrepro ... --stats`.\n"
        "```\n"
        "PYTHONPATH=src python -m repro demo --tasks 5 \\\n"
        "    --stats > out.txt  # --not-a-flag\n"
        "```\n"
    )
    assert list(cli_commands(text)) == [
        (1, "figure", ["--seeds"]),
        (2, "...", ["--stats"]),
        (5, "demo", ["--tasks", "--stats"]),
    ]


@pytest.mark.parametrize(
    "doc", CLI_DOCS, ids=lambda doc: str(doc.relative_to(ROOT))
)
def test_documented_cli_flags_exist(doc):
    flags_of = _parser_flags()
    every_flag = set().union(*flags_of.values())
    unknown = [
        f"{doc.relative_to(ROOT)}:{number}: mecrepro {subcommand} {flag}"
        for number, subcommand, flags in cli_commands(
            doc.read_text(encoding="utf-8")
        )
        for flag in flags
        if flag not in flags_of.get(subcommand, every_flag)
    ]
    assert not unknown, "\n".join(unknown)

"""Every repository path the documentation names in backticks exists.

A renamed module or a deleted script leaves its old path behind in the
prose; these tests catch it.  A backticked token counts as a path when it
starts with one of the repository's top-level directories (``repro/``
resolves under ``src/``) or names a ``BENCH_*.json`` file.  A
``::name`` or ``:line`` suffix is stripped, and a glob must match at
least one file.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DOCS = sorted(
    [ROOT / name for name in ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md")]
    + list((ROOT / "docs").glob("*.md"))
)

_PREFIXES = ("src/", "repro/", "scripts/", "benchmarks/", "bench/", "docs/", "examples/",
             "tests/")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_SUFFIX = re.compile(r"(::.*|:\d[\d-]*)$")


def backticked_paths(text):
    """``(line number, path)`` for every path-like token in a code span."""
    # Blank fenced blocks out (keeping their newlines) so line numbers hold.
    text = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for number, line in enumerate(text.splitlines(), start=1):
        for span in _SPAN.findall(line):
            for token in span.split():
                token = _SUFFIX.sub("", token.rstrip(".,;)"))
                if token.startswith(_PREFIXES) or re.fullmatch(r"BENCH_\S*\.json", token):
                    yield number, token


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

"""What a run imports, checked in fresh interpreters.

The default path (the structured Step-1 rung) needs neither SciPy's
sparse or dense linear algebra nor networkx, so importing the CLI or the
figure reproducers, and running a default figure, must leave them
unloaded.  Only the fallback rungs, the sparse ``build_p2`` assembly,
``MECSystem.to_networkx`` and the exact DTA max-flow import them, inside
the function.  The pytest process has loaded SciPy long ago, so every
check here runs in a new interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]

#: Modules the default path must not load.
DEFERRED = ("networkx", "scipy.sparse", "scipy.linalg")

#: Packages whose public names resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.lp",
    "repro.experiments",
    "repro.caching",
    "repro.obs",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    paths = [str(SRC), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _fail_structured(blocks):
    from repro.lp.result import LPResult, LPStatus

    return [
        LPResult(LPStatus.ITERATION_LIMIT, None, float("nan"), 200, "structured")
        for _ in blocks
    ]


def rigged_ladder_bits():
    """Step 1 of the ladder fixtures with the structured rung rigged to
    fail: per block, the rung, status, objective bits and a digest of x."""
    from repro.context import RunContext, use_context
    from repro.core import hta
    from tests.test_ladder_fixtures import BLOCKS, load_block

    original = hta.solve_structured_batch
    hta.solve_structured_batch = _fail_structured
    try:
        context = RunContext()
        with use_context(context):
            results = hta._solve_p2_ladder(
                [load_block(name) for name in BLOCKS], hta.LPHTAOptions(), context
            )
    finally:
        hta.solve_structured_batch = original
    return [
        [
            result.backend,
            result.status.name,
            float(result.objective).hex(),
            hashlib.sha256(result.x.tobytes()).hexdigest(),
        ]
        for result in results
    ]


def test_default_figure_run_loads_no_scipy_linalg_or_networkx():
    loaded = run_fresh(
        f"""
        import json, sys
        deferred = {DEFERRED!r}
        loaded = {{}}
        import repro.cli
        loaded["import repro.cli"] = [m for m in deferred if m in sys.modules]
        import repro.experiments.figures
        loaded["import figures"] = [m for m in deferred if m in sys.modules]
        assert repro.cli.main(["figure", "fig2a", "--seeds", "0"]) == 0
        loaded["figure fig2a"] = [m for m in deferred if m in sys.modules]
        print(json.dumps(loaded))
        """
    )
    assert loaded == {
        "import repro.cli": [],
        "import figures": [],
        "figure fig2a": [],
    }


def test_cli_import_leaves_fault_and_online_machinery_unloaded():
    # The policy names the CLI offers as choices live in repro.policies.
    loaded = run_fresh(
        """
        import json, sys
        import repro.cli
        print(json.dumps(
            [m for m in ("repro.faults", "repro.online.scheduler") if m in sys.modules]
        ))
        """
    )
    assert loaded == []


def test_policy_names_are_the_implementations_names():
    from repro.faults import RECOVERY_POLICIES
    from repro.online.scheduler import POLICIES
    from repro.policies import ONLINE_POLICIES
    from repro.policies import RECOVERY_POLICIES as RECOVERY_NAMES

    assert POLICIES is ONLINE_POLICIES
    assert RECOVERY_POLICIES is RECOVERY_NAMES


def test_fallback_rung_imports_scipy_and_keeps_its_bits():
    fresh = run_fresh(
        f"""
        import json, sys
        from tests.test_lazy_imports import rigged_ladder_bits
        deferred = {DEFERRED!r}
        before = [m for m in deferred if m in sys.modules]
        bits = rigged_ladder_bits()
        after = [m for m in deferred if m in sys.modules]
        print(json.dumps({{"before": before, "after": after, "bits": bits}}))
        """
    )
    assert fresh["before"] == []
    assert {"scipy.sparse", "scipy.linalg"} <= set(fresh["after"])
    assert [row[:2] for row in fresh["bits"]] == [
        ["interior-point", "OPTIMAL"], ["interior-point", "OPTIMAL"],
    ]
    # The same blocks solved where SciPy was imported up front.
    assert fresh["bits"] == rigged_ladder_bits()


def test_every_public_name_resolves_and_is_listed():
    report = run_fresh(
        f"""
        import importlib, json, sys
        import repro.core
        # A submodule nothing imported yet is reachable as an attribute,
        # as the eager package imports used to leave it.
        unloaded = "repro.core.game" not in sys.modules
        report = {{"submodule": unloaded and repro.core.game.__name__}}
        for name in {LAZY_PACKAGES!r}:
            package = importlib.import_module(name)
            listed = set(dir(package))
            unresolved = []
            for public in package.__all__:
                try:
                    getattr(package, public)
                except AttributeError:
                    unresolved.append(public)
            star = {{}}
            exec(f"from {{name}} import *", star)
            report[name] = {{
                "unlisted": sorted(set(package.__all__) - listed),
                "unresolved": unresolved,
                "star": sorted(set(package.__all__) - set(star)),
            }}
        print(json.dumps(report))
        """
    )
    empty = {"unlisted": [], "unresolved": [], "star": []}
    assert report.pop("submodule") == "repro.core.game"
    assert report == {name: empty for name in LAZY_PACKAGES}


def test_lazy_names_are_the_defining_objects():
    import repro.core
    import repro.core.hta
    import repro.experiments
    import repro.experiments.figures
    import repro.registry

    assert repro.registry is sys.modules["repro.registry"]
    assert repro.lp_hta is repro.core.hta.lp_hta
    assert repro.core.lp_hta is repro.core.hta.lp_hta
    assert repro.experiments.fig2a is repro.experiments.figures.fig2a
    assert "lp_hta" in vars(repro.core)  # resolved once, then a plain attribute


def test_unknown_names_raise_attribute_error():
    import repro.core

    assert not hasattr(repro.core, "no_such_name")
    assert not hasattr(repro, "__no_such_dunder__")

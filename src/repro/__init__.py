"""Task assignment in Data-Shared Mobile Edge Computing systems.

A faithful reproduction of Cheng, Chen, Li, Gao, *"Task Assignment
Algorithms in Data Shared Mobile Edge Computing Systems"* (ICDCS 2019):

- the three-level MEC system model (:mod:`repro.system`),
- the HTA problem and the LP-HTA approximation algorithm
  (:mod:`repro.core`), backed by from-scratch LP solvers (:mod:`repro.lp`),
- the divisible-task algorithms DTA-Workload / DTA-Number and the task
  rearrangement pipeline (:mod:`repro.dta`),
- workload generation matching Section V-A (:mod:`repro.workload`),
- a discrete-event validation simulator (:mod:`repro.des`), and
- reproducers for every figure and table of the evaluation
  (:mod:`repro.experiments`).

Quickstart::

    from repro import PAPER_DEFAULTS, generate_scenario, lp_hta

    scenario = generate_scenario(PAPER_DEFAULTS, seed=0)
    report = lp_hta(scenario.system, list(scenario.tasks))
    print(report.assignment.stats())

Algorithm dispatch goes through :mod:`repro.registry` (one entry per
algorithm: display name, capability flags, evaluate/assign factories) and
run configuration through an explicit, immutable
:class:`~repro.context.RunContext` (:mod:`repro.context`)::

    from repro import RunContext, registry, use_context

    result = registry.run("LP-HTA", scenario, RunContext(reference=True))

Every name below is imported on first use (:mod:`repro._lazy`), so
``import repro`` loads only the modules a run reaches.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "registry": (),
        "context": ("RunContext", "Telemetry", "current_context", "use_context"),
        "core": (
            "Assignment",
            "HTAReport",
            "LPHTAOptions",
            "Subsystem",
            "Task",
            "all_offload",
            "all_to_cloud",
            "branch_and_bound_hta",
            "brute_force_hta",
            "cluster_costs",
            "hgos",
            "lp_hta",
            "task_costs",
        ),
        "dta": (
            "Coverage",
            "DTAOutcome",
            "dta_number",
            "dta_workload",
            "rearrange_tasks",
            "run_dta",
        ),
        "system": (
            "BaseStation",
            "Cloud",
            "FOUR_G",
            "MECSystem",
            "MobileDevice",
            "SystemParameters",
            "WIFI",
            "WirelessProfile",
        ),
        "workload": (
            "PAPER_DEFAULTS",
            "Scenario",
            "WorkloadProfile",
            "generate_scenario",
        ),
    },
)

__version__ = "1.0.0"

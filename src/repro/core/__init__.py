"""Core contribution: the HTA problem, LP-HTA, baselines and exact solvers."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "assignment": ("Assignment", "AssignmentStats", "Subsystem"),
        "baselines": (
            "all_offload",
            "all_to_cloud",
            "hgos",
            "local_first",
            "random_assignment",
        ),
        "costs": ("ClusterCosts", "TaskCosts", "cluster_costs", "task_costs"),
        "exact": ("branch_and_bound_hta", "brute_force_hta"),
        "game": ("GameOptions", "GameResult", "best_response_offloading"),
        "hta": ("HTAReport", "LPHTAOptions", "lp_hta"),
        "lagrangian": (
            "CoordinatorOptions",
            "CoordinatorOutcome",
            "LagrangianOptions",
            "LagrangianReport",
            "coordinate_shared_capacity",
            "lagrangian_hta",
        ),
        "sharded": ("ShardedHTAReport", "lp_hta_sharded"),
        "task": ("Task",),
    },
)

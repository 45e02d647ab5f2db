"""Experiment harness: one reproducer per figure/table of Section V."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "runner": (
            "AlgorithmResult",
            "evaluate_dta",
            "evaluate_holistic",
            "HOLISTIC_ALGORITHMS",
        ),
        "series": ("SeriesData",),
        "figures": (
            "ALL_FIGURES",
            "fig2a",
            "fig2b",
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "fig6a",
            "fig6b",
            "run_figure",
        ),
        "breakdown": ("EnergyBreakdown", "energy_breakdown"),
        "grid": ("GridCell", "pivot", "run_grid"),
        "parallel": (
            "EvaluatorSpec",
            "SweepCell",
            "as_spec",
            "dta_spec",
            "holistic_spec",
            "run_cells",
        ),
        "ratio_study": ("RatioStudy", "run_ratio_study"),
        "resilience": (
            "ResilienceEvaluator",
            "ResilienceResult",
            "ResilienceStudy",
            "resilience_sweep",
        ),
        "stats": ("Summary", "bootstrap_ci", "mean_ci", "summarize"),
        "tables": ("table1_rows", "table1_text"),
    },
)

"""Canonical kernel output for byte-diffing the kernels against the reference.

Prints one JSON document covering both compiled kernels on a fixed
scenario: the generated tasks (every float of the array generator's
draws) and the replayed :class:`RealizedMetrics` of an LP-HTA assignment
under four replay modes (dedicated, contended, each with outages).  Only
the dedicated mode has a compiled form (the closed form of
:mod:`repro.des.engine`); the other three run the closure kernel either
way.
``json`` renders floats with ``repr`` — shortest round-trip — so two
documents are byte-identical iff every float is bit-identical.

CI runs this tool on the default kernels and in ``--reference`` mode
(the object engines) and diffs the two outputs::

    python scripts/replay_diff.py > default.json
    python scripts/replay_diff.py --reference > reference.json
    diff default.json reference.json
"""

import argparse
import json

from repro.context import RunContext, use_context
from repro.core.hta import lp_hta
from repro.des.replay import replay_assignment
from repro.workload import PAPER_DEFAULTS, generate_scenario

REPLAY_MODES = {
    "dedicated": dict(contention=False),
    "contended": dict(contention=True),
    "dedicated_outages": dict(
        contention=False,
        backhaul_outages=((0.1, 0.4),),
        wan_outages=((0.3, 0.8),),
    ),
    "contended_outages": dict(
        contention=True,
        backhaul_outages=((0.2, 0.5), (0.7, 0.9)),
        wan_outages=((0.4, 0.9),),
    ),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reference", action="store_true",
        help="run the object engines instead of the compiled kernels",
    )
    parser.add_argument(
        "--tasks", type=int, default=400,
        help="scenario size (devices scale along with it)",
    )
    args = parser.parse_args()

    profile = PAPER_DEFAULTS.with_updates(
        num_tasks=args.tasks,
        num_devices=max(2, args.tasks // 10),
        num_stations=4,
    )
    context = RunContext(reference=True) if args.reference else RunContext()
    with use_context(context):
        scenario = generate_scenario(profile, seed=0)
        tasks = list(scenario.tasks)
        assignment = lp_hta(scenario.system, tasks).assignment
        document = {
            "tasks": [
                [
                    task.owner_device_id,
                    task.index,
                    task.local_bytes,
                    task.external_bytes,
                    task.external_source,
                    task.resource_demand,
                    task.deadline_s,
                ]
                for task in tasks
            ],
            "replay": {},
        }
        for label, kwargs in REPLAY_MODES.items():
            metrics = replay_assignment(
                scenario.system, tasks, assignment, **kwargs
            )
            document["replay"][label] = {
                "latencies_s": list(metrics.latencies_s),
                "makespan_s": metrics.makespan_s,
                "total_energy_j": metrics.total_energy_j,
                "events_processed": metrics.events_processed,
                "mean_queueing_delay_s": metrics.mean_queueing_delay_s,
            }
    print(json.dumps(document, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()

"""Task rearrangement (Section IV-C).

Given a coverage :math:`\\{C_i\\}`, each original divisible task
:math:`\\mathcal{T}_{rl}` is split into sub-tasks: device *i* receives the
task information (:math:`op_{rl}, C_{rl}, T_{rl}`) whenever
:math:`C_i \\cap (LD_{rl} \\cup ED_{rl}) \\ne \\emptyset`, and processes the
intersection locally.  Every sub-task therefore has *only local input data*
(α = |C_i ∩ required|, β = 0): the raw data never moves — only the small
operation descriptions and partial results do.

The sub-tasks are then scheduled with LP-HTA (Section III) and the partial
results aggregated, which :mod:`repro.dta.accounting` prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.task import Task
from repro.data.items import DataCatalog
from repro.dta.coverage import Coverage
from repro.units import KB

__all__ = [
    "DEFAULT_OP_INFO_BYTES",
    "DEFAULT_SUBTASK_RESOURCE",
    "PlanRows",
    "RearrangedPlan",
    "rearrange_tasks",
]

#: Size of one transmitted task description (op, C, T) — a couple of KB of
#: serialized operation info, negligible next to the raw data it replaces.
DEFAULT_OP_INFO_BYTES = 2 * KB

#: Resource demand of one sub-task.  Divisible tasks are streaming
#: aggregations (the paper's Sum/Count examples) over data *already stored*
#: on the device, so their working set is the accumulator — a small constant
#: — rather than the raw input size that drives holistic tasks' C_ij.
DEFAULT_SUBTASK_RESOURCE = 0.01


@dataclass(frozen=True)
class PlanRows:
    """The (parent, executor) rows of a plan as parallel arrays.

    Row *k* describes ``plan.subtasks[k]``.  Pricing, the DTA accounting
    and LP-HTA's repair steps read these instead of walking the sub-task
    objects.

    :param parent_row: int64, the parent's position in the task sequence
        the plan was rearranged from (rows of one parent share it).
    :param executor: int64, the executing device id (the sub-task owner).
    :param part_bytes: float64, the sub-task's input size α.
    :param resource: float64, the sub-task's resource demand C.
    :param deadline: float64, the sub-task's (inherited) deadline T.
    """

    parent_row: np.ndarray
    executor: np.ndarray
    part_bytes: np.ndarray
    resource: np.ndarray
    deadline: np.ndarray

    @classmethod
    def from_tasks(
        cls, subtasks: Sequence[Task], parents: Sequence[Task]
    ) -> "PlanRows":
        """Rows read back from sub-task objects (hand-built plans).

        Parents are numbered by identity in first-appearance order.
        """
        numbers: Dict[int, int] = {}
        return cls(
            parent_row=np.array(
                [numbers.setdefault(id(p), len(numbers)) for p in parents],
                dtype=np.int64,
            ),
            executor=np.array(
                [t.owner_device_id for t in subtasks], dtype=np.int64
            ),
            part_bytes=np.array(
                [t.local_bytes for t in subtasks], dtype=np.float64
            ),
            resource=np.array(
                [t.resource_demand for t in subtasks], dtype=np.float64
            ),
            deadline=np.array([t.deadline_s for t in subtasks], dtype=np.float64),
        )


@dataclass(frozen=True)
class RearrangedPlan:
    """The sub-task schedule produced by task rearrangement.

    :param coverage: the data division driving the rearrangement.
    :param subtasks: the new per-device tasks (β = 0 by construction).
    :param parents: for each sub-task, the original task it contributes to
        (parallel to ``subtasks``).
    :param op_info_bytes: size of one transmitted task description.
    :param rows: the sub-tasks as parallel arrays; :func:`rearrange_tasks`
        records them as it builds the sub-tasks, and a plan built without
        them reads them back from the objects.
    """

    coverage: Coverage
    subtasks: Tuple[Task, ...]
    parents: Tuple[Task, ...]
    op_info_bytes: float = DEFAULT_OP_INFO_BYTES
    rows: Optional[PlanRows] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.subtasks) != len(self.parents):
            raise ValueError("subtasks and parents must be parallel")
        if self.rows is None:
            for subtask in self.subtasks:
                if subtask.external_bytes != 0:
                    raise ValueError(
                        "rearranged sub-tasks must have no external data "
                        f"(got {subtask.task_id})"
                    )
            object.__setattr__(
                self, "rows", PlanRows.from_tasks(self.subtasks, self.parents)
            )
        elif len(self.rows.executor) != len(self.subtasks):
            raise ValueError("rows must be parallel to subtasks")

    @property
    def num_subtasks(self) -> int:
        """Number of generated sub-tasks."""
        return len(self.subtasks)

    def subtasks_of_parent(self, parent: Task) -> List[int]:
        """Sub-task rows contributing to ``parent``."""
        return [
            row for row, p in enumerate(self.parents) if p.task_id == parent.task_id
        ]

    def executor_device_ids(self) -> Tuple[int, ...]:
        """Devices that received at least one sub-task (sorted)."""
        return tuple(sorted({subtask.owner_device_id for subtask in self.subtasks}))


def rearrange_tasks(
    tasks: Sequence[Task],
    coverage: Coverage,
    catalog: DataCatalog,
    op_info_bytes: float = DEFAULT_OP_INFO_BYTES,
    subtask_resource_demand: float = DEFAULT_SUBTASK_RESOURCE,
) -> RearrangedPlan:
    """Split divisible tasks into per-device local sub-tasks.

    :param tasks: the original divisible tasks (each must declare its
        ``required_items``).
    :param coverage: a valid division of the tasks' data universe.
    :param catalog: item sizes.
    :param op_info_bytes: size of one transmitted task description.
    :param subtask_resource_demand: C of each sub-task (see
        :data:`DEFAULT_SUBTASK_RESOURCE` for why this is a small constant
        rather than input-proportional).
    :returns: the rearranged plan.
    :raises ValueError: if a task is not divisible, or requires items the
        coverage does not assign.
    """
    if subtask_resource_demand < 0:
        # The one Task invariant a caller could break from here; the
        # fast constructor below skips per-subtask validation.
        raise ValueError("resource_demand must be non-negative")
    indices: Dict[int, int] = {}  # next sub-task index per executor device
    subtasks: List[Task] = []
    parents: List[Task] = []
    parent_rows: List[int] = []
    executors: List[int] = []
    part_sizes: List[float] = []
    deadlines: List[float] = []
    coverage_sets = sorted(coverage.sets.items())  # hoisted: same per task
    sizes = catalog.sizes()

    # Inverted item -> device index: coverage sets are disjoint by
    # Definition 1/2, so each required item names exactly one executor and
    # a task's parts can be collected in O(|required|) instead of scanning
    # every device's set.  An overlapping (invalid but unvalidated)
    # coverage emits one sub-task per overlapping set under the scan; only
    # the scan reproduces that, so the index is abandoned entirely then.
    item_owner: Dict[int, int] = {}
    overlapping = False
    for device_id, owned in coverage_sets:
        for item in owned:
            if item in item_owner:
                overlapping = True
            item_owner[item] = device_id

    new = object.__new__
    set_field = object.__setattr__
    for position, task in enumerate(tasks):
        if not task.divisible:
            raise ValueError(f"task {task.task_id} is not divisible")
        if not task.required_items:
            continue  # nothing to compute
        missing = task.required_items - coverage.universe
        if missing:
            raise ValueError(
                f"task {task.task_id} requires items outside the coverage "
                f"universe: {sorted(missing)[:5]}"
            )
        if overlapping:
            parts = [
                (device_id, owned & task.required_items)
                for device_id, owned in coverage_sets
            ]
        else:
            by_device: Dict[int, set] = {}
            for item in task.required_items:
                by_device.setdefault(item_owner[item], set()).add(item)
            # Sorted by device id — the exact emission order of the scan.
            parts = sorted(by_device.items())
        deadline = task.deadline_s
        operation = task.operation
        first = len(subtasks)
        for device_id, part in parts:
            if not part:
                continue
            part = frozenset(part)
            # Same order-sensitive float sum total_bytes computes (map
            # iterates ``part`` exactly as the genexpr would), without a
            # method call per sub-task.
            part_bytes = sum(map(sizes.__getitem__, part))
            index = indices.get(device_id, 0)
            indices[device_id] = index + 1
            # Field-for-field the Task the dataclass constructor builds;
            # __init__/__post_init__ are skipped because every validated
            # invariant holds by construction (part_bytes >= 0, no
            # external data, the parent's deadline is already positive).
            subtask = new(Task)
            set_field(subtask, "owner_device_id", device_id)
            set_field(subtask, "index", index)
            set_field(subtask, "local_bytes", part_bytes)
            set_field(subtask, "external_bytes", 0.0)
            set_field(subtask, "external_source", None)
            set_field(subtask, "resource_demand", subtask_resource_demand)
            set_field(subtask, "deadline_s", deadline)
            set_field(subtask, "divisible", True)
            set_field(subtask, "required_items", part)
            set_field(subtask, "operation", operation)
            subtasks.append(subtask)
            executors.append(device_id)
            part_sizes.append(part_bytes)
        emitted = len(subtasks) - first
        parents.extend([task] * emitted)
        parent_rows.extend([position] * emitted)
        deadlines.extend([deadline] * emitted)
    rows = PlanRows(
        parent_row=np.array(parent_rows, dtype=np.int64),
        executor=np.array(executors, dtype=np.int64),
        part_bytes=np.array(part_sizes, dtype=np.float64),
        resource=np.full(len(subtasks), float(subtask_resource_demand)),
        deadline=np.array(deadlines, dtype=np.float64),
    )
    return RearrangedPlan(
        coverage=coverage,
        subtasks=tuple(subtasks),
        parents=tuple(parents),
        op_info_bytes=op_info_bytes,
        rows=rows,
    )

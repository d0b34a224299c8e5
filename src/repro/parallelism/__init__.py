"""Big-workflow auto-parallelism (paper Sec. IV.B, Algorithm 3)."""

from .budget import (
    BudgetCost,
    BudgetModel,
    DEFAULT_MAX_STEPS,
    DEFAULT_MAX_YAML_BYTES,
)
from .splitter import SplitError, SplitPlan, WorkflowSplitter
from .stitch import manifest_submit, merge_part_records, run_parts

__all__ = [
    "BudgetCost",
    "BudgetModel",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_MAX_YAML_BYTES",
    "SplitError",
    "SplitPlan",
    "WorkflowSplitter",
    "manifest_submit",
    "merge_part_records",
    "run_parts",
]

"""The Couler unified programming interface (paper Sec. II.B, Appendix A).

Prefer the stable v2 facade :mod:`repro.couler` for new code; this
package remains the implementation home and re-exports the same
surface for backward compatibility.

Use this package the way the paper's listings use the ``couler``
module::

    from repro import couler

    def job(name):
        couler.run_container(image="whalesay:latest", command=["cowsay"],
                             args=[name], step_name=name)

    couler.dag([
        [lambda: job("A")],
        [lambda: job("A"), lambda: job("B")],   # A -> B
    ])
    record = couler.run(submitter=couler.ArgoSubmitter())
"""

from .api import (
    PENDING,
    StepOutput,
    bigger,
    bigger_equal,
    concurrent,
    dag,
    equal,
    exec_while,
    map,  # noqa: A004 - matches the paper's couler.map
    not_equal,
    run,
    run_container,
    run_job,
    run_script,
    set_dependencies,
    smaller,
    smaller_equal,
    when,
    workflow_ir,
)
from .artifacts import (
    create_gcs_artifact,
    create_git_artifact,
    create_hdfs_artifact,
    create_oss_artifact,
    create_parameter_artifact,
    create_s3_artifact,
)
from .conditions import Condition, OutputRef
from .context import WorkflowContext, get_context, reset_context, workflow
from .submitter import (
    AdmissionSubmitter,
    AirflowSubmitter,
    ArgoSubmitter,
    LocalSubmitter,
    SubmissionResult,
    TektonSubmitter,
    default_environment,
    default_multicluster,
)

__all__ = [
    "AdmissionSubmitter",
    "AirflowSubmitter",
    "ArgoSubmitter",
    "Condition",
    "LocalSubmitter",
    "OutputRef",
    "PENDING",
    "StepOutput",
    "SubmissionResult",
    "TektonSubmitter",
    "WorkflowContext",
    "bigger",
    "bigger_equal",
    "concurrent",
    "create_gcs_artifact",
    "create_git_artifact",
    "create_hdfs_artifact",
    "create_oss_artifact",
    "create_parameter_artifact",
    "create_s3_artifact",
    "dag",
    "default_environment",
    "default_multicluster",
    "equal",
    "exec_while",
    "get_context",
    "map",
    "not_equal",
    "reset_context",
    "run",
    "run_container",
    "run_job",
    "run_script",
    "set_dependencies",
    "smaller",
    "smaller_equal",
    "when",
    "workflow",
    "workflow_ir",
]

"""Scenario corpus: SQL- and NL-driven pipelines as first-class workloads.

The fleet benchmarks (:mod:`repro.workloads.fleetgen`) stress the engine
with synthetic DAGs; this module stresses the *whole paper stack* with
workloads that look like what actually arrives at a unified workflow
layer: multi-statement SQLFlow scripts (feature build -> ``TO TRAIN`` ->
``TO PREDICT`` chains over a schema catalog) and NL-planned workflows
compiled from an expanded Code Lake.  Everything is seeded — two builds
from the same :class:`CorpusSpec` are byte-identical (scripts, IR
fingerprints, arrival schedules), so the corpus can back determinism
gates, the verify fuzzer, and ratcheted benchmarks.

Traffic is shaped by *personas* — open-loop tenant profiles (etl /
research / serving / batch) with their own arrival rates, SQL/NL mixes,
size profiles and rerun redundancy.  Reruns clone earlier entries under
fresh workflow names but keep the finalized artifact uids, so a cache
manager sees genuine cross-workflow redundancy (paper Sec. V.B).

The corpus plugs into :class:`~repro.engine.config.EngineConfig`-driven
admission exactly like ``fleetgen``: :meth:`ScenarioCorpus.to_fleet_spec`
adapts it to a :class:`~repro.workloads.fleetgen.FleetSpec`, and
:func:`submit_corpus` additionally chains a script's statements through
admission completion callbacks (statement ``N+1`` is submitted when
``N`` finishes, like SQLFlow's script runner would).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.admission import AdmissionPipeline, AdmissionRecord
from ..ir.graph import WorkflowIR
from ..ir.serialize import ir_to_dict
from ..k8s.cluster import Cluster
from ..llm.codelake import CodeLake, canonical_code, expand_code_lake
from ..nl2wf.corpus import NLTask, build_task
from ..nl2wf.executor import execute_couler_code
from ..parallelism.stitch import run_parts
from ..sqlflow.parser import parse_many
from ..sqlflow.translate import statement_to_ir
from .fleetgen import FleetSpec

GB = 2**30

#: Fairness weights for the four persona tenants.
CORPUS_TENANTS: Dict[str, float] = {
    "etl": 1.0,
    "research": 1.0,
    "serving": 2.0,
    "batch": 0.5,
}


# ---------------------------------------------------------------------------
# Schema catalog: the synthetic warehouse the SQL generator writes against
# and the datasets the NL tasks (and the expanded Code Lake) refer to.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableSchema:
    """One warehouse table: name, feature columns, label column."""

    name: str
    columns: Tuple[str, ...]
    label: str


@dataclass(frozen=True)
class DomainSchema:
    """One business domain: tables plus the NL-side dataset/models."""

    name: str
    dataset: str
    tables: Tuple[TableSchema, ...]
    estimators: Tuple[str, ...]
    models: Tuple[str, ...]


def _domain(
    name: str,
    dataset: str,
    tables: Sequence[Tuple[str, Sequence[str], str]],
    estimators: Sequence[str],
    models: Sequence[str],
) -> DomainSchema:
    return DomainSchema(
        name=name,
        dataset=dataset,
        tables=tuple(
            TableSchema(name=t, columns=tuple(cols), label=label)
            for t, cols, label in tables
        ),
        estimators=tuple(estimators),
        models=tuple(models),
    )


@dataclass(frozen=True)
class SchemaCatalog:
    """The fixed synthetic catalog the corpus draws from."""

    domains: Tuple[DomainSchema, ...]

    def datasets(self) -> List[str]:
        return [d.dataset for d in self.domains]

    def by_name(self, name: str) -> DomainSchema:
        for domain in self.domains:
            if domain.name == name:
                return domain
        raise KeyError(f"unknown domain {name!r}")

    @classmethod
    def default(cls) -> "SchemaCatalog":
        return cls(
            domains=(
                _domain(
                    "ads",
                    "ads-logs",
                    [
                        (
                            "ads.impressions",
                            ["user_id", "campaign", "slot", "dwell_ms", "device", "hour"],
                            "clicked",
                        ),
                        (
                            "ads.conversions",
                            ["user_id", "campaign", "bid", "channel"],
                            "converted",
                        ),
                    ],
                    ["WideDeep", "DeepFM", "DNNClassifier"],
                    ["wide-deep", "deepfm"],
                ),
                _domain(
                    "risk",
                    "transactions",
                    [
                        (
                            "risk.transactions",
                            ["amount", "merchant", "country", "channel", "age_days"],
                            "is_fraud",
                        ),
                        (
                            "risk.chargebacks",
                            ["amount", "merchant", "days_open", "disputes"],
                            "upheld",
                        ),
                    ],
                    ["XGBoost", "GBDTClassifier"],
                    ["gbdt", "mlp"],
                ),
                _domain(
                    "retail",
                    "orders",
                    [
                        (
                            "retail.orders",
                            ["sku", "price", "basket_size", "tenure", "region"],
                            "churned",
                        ),
                        (
                            "retail.sessions",
                            ["pages", "duration_s", "referrer", "device"],
                            "purchased",
                        ),
                    ],
                    ["DNNClassifier", "LogisticRegression"],
                    ["xgboost", "lightgbm"],
                ),
                _domain(
                    "content",
                    "reviews-corpus",
                    [
                        (
                            "content.reviews",
                            ["text_len", "stars", "lang", "verified", "helpful_votes"],
                            "sentiment",
                        ),
                        (
                            "content.threads",
                            ["replies", "depth", "age_hours", "flags"],
                            "toxic",
                        ),
                    ],
                    ["BertClassifier", "LSTMClassifier"],
                    ["bert", "lstm"],
                ),
            )
        )


# ---------------------------------------------------------------------------
# Personas: open-loop tenant traffic profiles.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PersonaProfile:
    """One tenant archetype's traffic shape."""

    name: str
    #: Fraction of corpus entries this persona contributes.
    share: float
    #: Mean open-loop interarrival gap (virtual seconds, exponential).
    mean_interarrival_s: float
    #: P(an entry is a SQL script); the rest are NL-planned workflows.
    sql_fraction: float
    #: P(an entry reruns an earlier entry of the same persona).
    rerun_probability: float
    slo_class: str
    #: Inclusive priority range.
    priorities: Tuple[int, int]
    #: SQL size profile: range of feature-build statements per script.
    feature_stages: Tuple[int, int]
    #: SQL size profile: range of PREDICT statements per script.
    predict_statements: Tuple[int, int]
    #: "pipeline" scripts train in-script; "scoring" scripts only
    #: PREDICT against the domain's production model table.
    script_style: str
    #: NL sequence names (keys of :data:`NL_SEQUENCES`) this persona runs.
    nl_sequences: Tuple[str, ...]


PERSONAS: Dict[str, PersonaProfile] = {
    "etl": PersonaProfile(
        name="etl",
        share=0.35,
        mean_interarrival_s=180.0,
        sql_fraction=0.9,
        rerun_probability=0.30,
        slo_class="batch",
        priorities=(1, 3),
        feature_stages=(1, 2),
        predict_statements=(1, 2),
        script_style="pipeline",
        nl_sequences=("tune", "report"),
    ),
    "research": PersonaProfile(
        name="research",
        share=0.25,
        mean_interarrival_s=420.0,
        sql_fraction=0.2,
        rerun_probability=0.55,
        slo_class="batch",
        priorities=(2, 5),
        feature_stages=(0, 1),
        predict_statements=(1, 1),
        script_style="pipeline",
        nl_sequences=("select-best", "augmented", "train-eval", "quick"),
    ),
    "serving": PersonaProfile(
        name="serving",
        share=0.25,
        mean_interarrival_s=45.0,
        sql_fraction=0.8,
        rerun_probability=0.40,
        slo_class="serving",
        priorities=(5, 7),
        feature_stages=(0, 0),
        predict_statements=(1, 3),
        script_style="scoring",
        nl_sequences=("deploy", "quick"),
    ),
    "batch": PersonaProfile(
        name="batch",
        share=0.15,
        mean_interarrival_s=1200.0,
        sql_fraction=0.5,
        rerun_probability=0.15,
        slo_class="batch",
        priorities=(0, 2),
        feature_stages=(1, 3),
        predict_statements=(2, 3),
        script_style="pipeline",
        nl_sequences=("full", "select-best", "augmented"),
    ),
}

#: Module sequences the NL generator composes tasks from.  All respect
#: the canonical snippets' variable-threading rules (training needs a
#: prior data stage; selection needs evaluation or comparison first).
NL_SEQUENCES: Dict[str, Tuple[str, ...]] = {
    "select-best": (
        "data_loading",
        "data_preprocessing",
        "model_training",
        "model_evaluation",
        "model_comparison",
        "model_selection",
    ),
    "train-eval": (
        "data_loading",
        "data_preprocessing",
        "model_training",
        "model_evaluation",
    ),
    "augmented": (
        "data_loading",
        "data_preprocessing",
        "data_augmentation",
        "model_training",
        "model_evaluation",
        "model_selection",
    ),
    "deploy": (
        "data_loading",
        "data_preprocessing",
        "model_training",
        "model_evaluation",
        "model_selection",
        "model_deployment",
    ),
    "tune": (
        "data_loading",
        "data_preprocessing",
        "hyperparameter_tuning",
        "report_generation",
    ),
    "report": (
        "data_loading",
        "data_preprocessing",
        "model_training",
        "model_evaluation",
        "report_generation",
    ),
    "quick": (
        "data_loading",
        "model_training",
        "model_evaluation",
    ),
    "full": (
        "data_loading",
        "data_preprocessing",
        "data_augmentation",
        "model_training",
        "model_evaluation",
        "model_comparison",
        "model_selection",
        "model_deployment",
        "report_generation",
    ),
}

_NL_INTROS: Dict[str, str] = {
    "ads": "Build a click-through-rate prediction workflow for ads.",
    "risk": "Design a fraud detection training workflow over transactions.",
    "retail": "Build a workflow that predicts customer churn from orders.",
    "content": "Create a workflow for sentiment analysis over reviews.",
}


# ---------------------------------------------------------------------------
# Corpus spec / entries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Everything that determines a corpus, hence its digest."""

    seed: int = 0
    #: Number of entries (one entry = one SQL script or one NL workflow).
    size: int = 24
    personas: Tuple[str, ...] = ("etl", "research", "serving", "batch")


@dataclass
class CorpusEntry:
    """One generated workload unit: a script or an NL task, compiled."""

    name: str
    persona: str
    #: ``"sql"`` or ``"nl"``.
    kind: str
    #: The human-authored surface form: SQLFlow script text or the NL
    #: description the planner saw.
    source: str
    #: Frontend-compiled workflows — one per SQL statement, one for NL.
    irs: List[WorkflowIR]
    arrival: float
    user: str
    priority: int
    slo_class: str
    #: Name of the earlier entry this one reruns, if any.
    rerun_of: Optional[str] = None
    #: Derived bookkeeping (domain, sequence, Code Lake retrieval hits).
    meta: Dict[str, object] = field(default_factory=dict)

    def total_nodes(self) -> int:
        return sum(len(ir) for ir in self.irs)


@dataclass
class ScenarioCorpus:
    """A built corpus: entries in arrival order, plus provenance."""

    spec: CorpusSpec
    catalog: SchemaCatalog
    entries: List[CorpusEntry]

    # ------------------------------------------------------------- queries

    def by_persona(self) -> Dict[str, List[CorpusEntry]]:
        grouped: Dict[str, List[CorpusEntry]] = {p: [] for p in self.spec.personas}
        for entry in self.entries:
            grouped[entry.persona].append(entry)
        return grouped

    def workflows(self) -> List[Tuple[CorpusEntry, WorkflowIR]]:
        """All compiled IRs, flattened in arrival/statement order."""
        return [(entry, ir) for entry in self.entries for ir in entry.irs]

    # ------------------------------------------------------------- digest

    def digest(self) -> str:
        """Stable fingerprint over scripts, IRs and arrival schedule.

        Two builds with the same spec must produce the same digest —
        CI generates the corpus twice and diffs exactly this value.
        """
        payload = {
            "spec": {
                "seed": self.spec.seed,
                "size": self.spec.size,
                "personas": list(self.spec.personas),
            },
            "entries": [
                {
                    "name": e.name,
                    "persona": e.persona,
                    "kind": e.kind,
                    "source": e.source,
                    "arrival": round(e.arrival, 9),
                    "user": e.user,
                    "priority": e.priority,
                    "slo_class": e.slo_class,
                    "rerun_of": e.rerun_of,
                    "meta": e.meta,
                    "irs": [ir_to_dict(ir) for ir in e.irs],
                }
                for e in self.entries
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Summary for ``repro corpus describe`` and reports."""
        per_persona: Dict[str, Dict[str, object]] = {}
        for persona, entries in self.by_persona().items():
            per_persona[persona] = {
                "entries": len(entries),
                "sql": sum(1 for e in entries if e.kind == "sql"),
                "nl": sum(1 for e in entries if e.kind == "nl"),
                "reruns": sum(1 for e in entries if e.rerun_of),
                "workflows": sum(len(e.irs) for e in entries),
                "nodes": sum(e.total_nodes() for e in entries),
            }
        return {
            "seed": self.spec.seed,
            "size": self.spec.size,
            "entries": len(self.entries),
            "workflows": sum(len(e.irs) for e in self.entries),
            "nodes": sum(e.total_nodes() for e in self.entries),
            "horizon_s": round(max((e.arrival for e in self.entries), default=0.0), 3),
            "personas": per_persona,
            "digest": self.digest(),
        }

    # ------------------------------------------------------------ adapters

    def to_fleet_spec(self, clusters: Optional[List[Cluster]] = None) -> FleetSpec:
        """Adapt to the fleetgen shape: every IR becomes one arrival.

        Statements of one script share the script's arrival time (the
        chained-submission alternative is :func:`submit_corpus`); order
        within a tick is the script's statement order, so admission sees
        a deterministic submission sequence.
        """
        arrivals = [
            (entry.arrival, ir.to_executable(), entry.user, entry.priority, entry.slo_class)
            for entry, ir in self.workflows()
        ]
        return FleetSpec(
            clusters=clusters if clusters is not None else build_clusters(),
            arrivals=arrivals,
            seed=self.spec.seed,
            tenant_weights=dict(CORPUS_TENANTS),
        )


def build_clusters() -> List[Cluster]:
    """The default fleet the corpus runs against (1 GPU pool + 3 CPU)."""
    return [
        Cluster.uniform(
            f"corpus-c{index}",
            4,
            cpu_per_node=16.0,
            memory_per_node=64 * GB,
            gpu_per_node=2 if index == 0 else 0,
        )
        for index in range(4)
    ]


# ---------------------------------------------------------------------------
# SQL script generation.
# ---------------------------------------------------------------------------


def _sql_columns(rng: random.Random, table: TableSchema) -> List[str]:
    count = rng.randint(2, len(table.columns))
    return sorted(rng.sample(list(table.columns), count))


def _train_attributes(rng: random.Random) -> str:
    epochs = rng.choice([5, 10, 20])
    batch = rng.choice([64, 128, 256])
    return f"train.epochs = {epochs}, train.batch_size = {batch}"


def _maybe_noise(rng: random.Random, lines: List[str], note: str) -> None:
    """Sprinkle the comment/blank-statement noise real scripts carry."""
    roll = rng.random()
    if roll < 0.4:
        lines.append(f"-- {note}")
    elif roll < 0.6:
        lines.append(";")


def generate_sql_script(
    rng: random.Random,
    domain: DomainSchema,
    profile: PersonaProfile,
    entry_name: str,
) -> str:
    """One multi-statement SQLFlow script for ``domain``.

    Pipeline style builds features (``TO TRAIN FeatureTransform``),
    trains, then predicts with the trained model — statement ``N+1``
    consumes statement ``N``'s ``INTO`` table.  Scoring style only
    predicts against the domain's standing production model.
    """
    table = rng.choice(list(domain.tables))
    lines: List[str] = [f"-- persona: {profile.name}  entry: {entry_name}"]
    tag = entry_name.rsplit("-", 1)[-1] if "-" in entry_name else entry_name

    if profile.script_style == "scoring":
        model_table = f"{domain.name}.model_prod"
        num_predicts = rng.randint(*profile.predict_statements)
        for index in range(num_predicts):
            _maybe_noise(rng, lines, f"scoring pass {index}")
            lines.append(
                f"SELECT * FROM {table.name}\n"
                f"TO PREDICT {domain.name}.scores_{tag}_{index}.{table.label}\n"
                f"USING {model_table};"
            )
        return "\n".join(lines) + "\n"

    source_table = table.name
    num_features = rng.randint(*profile.feature_stages)
    for index in range(num_features):
        columns = _sql_columns(rng, table)
        features_table = f"{domain.name}.features_{tag}_{index}"
        _maybe_noise(rng, lines, f"feature stage {index}")
        lines.append(
            f"SELECT {', '.join(columns)} FROM {source_table}\n"
            f"TO TRAIN FeatureTransform\n"
            f"WITH transform.buckets = {rng.choice([16, 32, 64])}\n"
            f"COLUMN {', '.join(columns)}\n"
            f"INTO {features_table};"
        )
        source_table = features_table

    estimator = rng.choice(list(domain.estimators))
    model_table = f"{domain.name}.model_{tag}"
    feature_columns = _sql_columns(rng, table)
    _maybe_noise(rng, lines, "train the model")
    lines.append(
        f"SELECT * FROM {source_table}\n"
        f"TO TRAIN {estimator}\n"
        f"WITH {_train_attributes(rng)}\n"
        f"COLUMN {', '.join(feature_columns)}\n"
        f"LABEL {table.label}\n"
        f"INTO {model_table};"
    )

    num_predicts = rng.randint(*profile.predict_statements)
    scoring_tables = [t.name for t in domain.tables]
    for index in range(num_predicts):
        scoring = rng.choice(scoring_tables)
        _maybe_noise(rng, lines, f"score {scoring}")
        lines.append(
            f"SELECT * FROM {scoring}\n"
            f"TO PREDICT {domain.name}.scores_{tag}_{index}.{table.label}\n"
            f"USING {model_table};"
        )
    return "\n".join(lines) + "\n"


def compile_sql_entry(script: str, entry_name: str) -> List[WorkflowIR]:
    """Lower a script through the SQLFlow frontend, one IR per statement.

    Workflow names are made unique per entry/statement — the frontend's
    defaults (``sqlflow-train-<estimator>``) collide across a corpus.
    """
    irs = []
    for index, statement in enumerate(parse_many(script)):
        ir = statement_to_ir(statement, workflow_name=f"{entry_name}-s{index}")
        ir.finalize_artifacts()
        irs.append(ir)
    return irs


# ---------------------------------------------------------------------------
# NL workflow generation (expanded Code Lake).
# ---------------------------------------------------------------------------


def build_nl_task(
    domain: DomainSchema, sequence_name: str, entry_name: str
) -> NLTask:
    """Mint one NL task for ``domain`` from a named module sequence."""
    return build_task(
        name=entry_name,
        intro=_NL_INTROS[domain.name],
        dataset=domain.dataset,
        models=list(domain.models),
        sequence=list(NL_SEQUENCES[sequence_name]),
    )


def compile_nl_entry(
    task: NLTask, lake: CodeLake, entry_name: str
) -> Tuple[WorkflowIR, int]:
    """Compile an NL task via Code Lake retrieval + canonical rendering.

    For each module we retrieve the best snippet from the expanded lake;
    when retrieval lands on the dataset-specialised entry for the
    module's own task type, its pre-rendered code is used directly
    (that's the paper's "provide relevant code to the LLM" step paying
    off).  Otherwise the canonical template is rendered from the module
    parameters.  Returns the IR and the retrieval hit count.
    """
    pieces: List[str] = []
    hits = 0
    for module in task.modules:
        rendered = canonical_code(module.task_type, dict(module.params))
        snippet = lake.best_reference(module.text)
        if (
            snippet is not None
            and snippet.task_type == module.task_type
            and snippet.code == rendered
        ):
            hits += 1
            pieces.append(snippet.code)
        else:
            pieces.append(rendered)
    ir = execute_couler_code("\n".join(pieces), workflow_name=f"{entry_name}-nl")
    ir.finalize_artifacts()
    return ir, hits


# ---------------------------------------------------------------------------
# Corpus assembly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EntryPlan:
    """Phase-1 skeleton: everything drawn before scripts are rendered."""

    persona: str
    arrival: float
    kind: str
    rerun: bool
    priority: int
    domain: str
    sequence: str
    detail_seed: int


def _allocate_counts(spec: CorpusSpec) -> Dict[str, int]:
    """Largest-remainder allocation of ``size`` entries across personas."""
    shares = {p: PERSONAS[p].share for p in spec.personas}
    total_share = sum(shares.values())
    exact = {p: spec.size * s / total_share for p, s in shares.items()}
    counts = {p: int(exact[p]) for p in spec.personas}
    leftover = spec.size - sum(counts.values())
    by_remainder = sorted(
        spec.personas, key=lambda p: (-(exact[p] - counts[p]), p)
    )
    for p in by_remainder[:leftover]:
        counts[p] += 1
    return counts


def _plan_entries(spec: CorpusSpec, catalog: SchemaCatalog) -> List[_EntryPlan]:
    plans: List[_EntryPlan] = []
    domain_names = [d.name for d in catalog.domains]
    for persona in spec.personas:
        profile = PERSONAS[persona]
        rng = random.Random(f"{spec.seed}:{persona}")
        clock = 0.0
        for _ in range(_allocate_counts(spec)[persona]):
            clock += rng.expovariate(1.0 / profile.mean_interarrival_s)
            kind = "sql" if rng.random() < profile.sql_fraction else "nl"
            plans.append(
                _EntryPlan(
                    persona=persona,
                    arrival=round(clock, 6),
                    kind=kind,
                    rerun=rng.random() < profile.rerun_probability,
                    priority=rng.randint(*profile.priorities),
                    domain=rng.choice(domain_names),
                    sequence=rng.choice(list(profile.nl_sequences)),
                    detail_seed=rng.randrange(2**31),
                )
            )
    plans.sort(key=lambda p: (p.arrival, p.persona))
    return plans


def clone_ir(ir: WorkflowIR, new_name: str) -> WorkflowIR:
    """A rerun view of ``ir``: new workflow name, same (finalized) nodes.

    Nodes are shared by reference, so the artifact uids assigned at
    build time survive — the rerun produces/consumes the *same*
    artifacts, which is exactly what makes it cache-hittable.  The
    source IR must already be finalized (the corpus always is).
    """
    return WorkflowIR(
        name=new_name,
        nodes=dict(ir.nodes),
        edges=set(ir.edges),
        config=dict(ir.config),
    )


def build_corpus(spec: CorpusSpec) -> ScenarioCorpus:
    """Generate and frontend-compile the full scenario corpus."""
    for persona in spec.personas:
        if persona not in PERSONAS:
            raise KeyError(f"unknown persona {persona!r}; choose from {sorted(PERSONAS)}")
    catalog = SchemaCatalog.default()
    lake = expand_code_lake(catalog.datasets())
    entries: List[CorpusEntry] = []
    built_by_persona: Dict[str, List[CorpusEntry]] = {p: [] for p in spec.personas}

    for index, plan in enumerate(_plan_entries(spec, catalog)):
        profile = PERSONAS[plan.persona]
        entry_name = f"corpus-{index:04d}-{plan.persona}"
        rng = random.Random(plan.detail_seed)
        domain = catalog.by_name(plan.domain)

        rerun_of: Optional[str] = None
        candidates = [e for e in built_by_persona[plan.persona] if not e.rerun_of]
        if plan.rerun and candidates:
            base = rng.choice(candidates)
            rerun_of = base.name
            entry = CorpusEntry(
                name=entry_name,
                persona=plan.persona,
                kind=base.kind,
                source=base.source,
                irs=[
                    clone_ir(ir, f"{entry_name}-s{i}")
                    for i, ir in enumerate(base.irs)
                ],
                arrival=plan.arrival,
                user=plan.persona,
                priority=plan.priority,
                slo_class=profile.slo_class,
                rerun_of=rerun_of,
                meta=dict(base.meta),
            )
        elif plan.kind == "sql":
            script = generate_sql_script(rng, domain, profile, entry_name)
            entry = CorpusEntry(
                name=entry_name,
                persona=plan.persona,
                kind="sql",
                source=script,
                irs=compile_sql_entry(script, entry_name),
                arrival=plan.arrival,
                user=plan.persona,
                priority=plan.priority,
                slo_class=profile.slo_class,
                meta={"domain": domain.name, "statements": len(parse_many(script))},
            )
        else:
            task = build_nl_task(domain, plan.sequence, entry_name)
            ir, hits = compile_nl_entry(task, lake, entry_name)
            entry = CorpusEntry(
                name=entry_name,
                persona=plan.persona,
                kind="nl",
                source=task.description,
                irs=[ir],
                arrival=plan.arrival,
                user=plan.persona,
                priority=plan.priority,
                slo_class=profile.slo_class,
                meta={
                    "domain": domain.name,
                    "sequence": plan.sequence,
                    "retrieval_hits": hits,
                    "modules": len(task.modules),
                },
            )
        entries.append(entry)
        built_by_persona[plan.persona].append(entry)

    return ScenarioCorpus(spec=spec, catalog=catalog, entries=entries)


# ---------------------------------------------------------------------------
# Admission submission (chained statements).
# ---------------------------------------------------------------------------


def submit_corpus(
    pipeline: AdmissionPipeline,
    corpus: ScenarioCorpus,
    chain: bool = True,
) -> List[AdmissionRecord]:
    """Schedule every entry; the caller drives ``pipeline.run()``.

    With ``chain=True`` a multi-statement entry submits statement 0 at
    the entry's arrival and each following statement once the previous
    one succeeded — the SQLFlow script-runner contract (``INTO`` /
    ``USING`` tables exist before consumers start).  With
    ``chain=False`` all statements are submitted at arrival, matching
    :meth:`ScenarioCorpus.to_fleet_spec`.

    The returned list grows as chained statements are admitted; read it
    after ``pipeline.run()`` returns.
    """
    records: List[AdmissionRecord] = []
    for entry in corpus.entries:
        executables = [ir.to_executable() for ir in entry.irs]
        submit_chain(pipeline, entry, executables, records, chain=chain)
    return records


def submit_chain(
    pipeline: AdmissionPipeline,
    entry: CorpusEntry,
    executables: Sequence,
    records: List[AdmissionRecord],
    chain: bool = True,
) -> None:
    """Submit ``executables`` for one entry through the split-part
    executor.  With ``chain=True`` each depends on the one before it:
    the first arrives with the entry, each next one when the one before
    it succeeds (a failure stops the chain); with ``chain=False`` all
    arrive with the entry.  Callers that rewrite an entry's workflows
    first (the e2e experiment splits them) reuse the same plumbing.
    """

    def submit(index, results, on_complete):
        admission = pipeline.submit_at(
            pipeline.clock.now if chain and index else entry.arrival,
            executables[index],
            user=entry.user,
            priority=entry.priority,
            slo_class=entry.slo_class,
            on_complete=on_complete,
            initial_results=results,
        )
        records.append(admission)
        return admission.record

    edges = [(index - 1, index) for index in range(1, len(executables))] if chain else ()
    run_parts(len(executables), edges, submit)


__all__ = [
    "CORPUS_TENANTS",
    "CorpusEntry",
    "CorpusSpec",
    "DomainSchema",
    "NL_SEQUENCES",
    "PERSONAS",
    "PersonaProfile",
    "ScenarioCorpus",
    "SchemaCatalog",
    "TableSchema",
    "build_clusters",
    "build_corpus",
    "build_nl_task",
    "clone_ir",
    "compile_nl_entry",
    "compile_sql_entry",
    "generate_sql_script",
    "submit_chain",
    "submit_corpus",
]

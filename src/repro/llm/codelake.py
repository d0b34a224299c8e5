"""The Code Lake: a retrieval corpus of Couler snippets (paper Step 2).

"Considering that LLMs have limited knowledge about COULER, we construct
a Code Lake containing code for various functions.  We search for
relevant code from the Code Lake for each subtask and provide it to
LLMs for reference."

Entries are canonical, executable Couler snippets per predefined task
type, plus distractors.  Retrieval is TF-IDF cosine over the snippet's
title + description against the subtask text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .tokenizer import split_tokens

#: The predefined task-module types of Step 1 (modular decomposition).
TASK_TYPES = (
    "data_loading",
    "data_preprocessing",
    "data_augmentation",
    "model_training",
    "model_evaluation",
    "model_comparison",
    "model_selection",
    "model_deployment",
    "hyperparameter_tuning",
    "report_generation",
)


@dataclass(frozen=True)
class CodeSnippet:
    """One Code Lake entry."""

    task_type: str
    title: str
    description: str
    code: str

    def document(self) -> str:
        return f"{self.title} {self.description} {self.task_type}"


# ---------------------------------------------------------------------------
# Canonical templates.  `{dataset}`, `{model}`, `{models}` are filled from
# the task parameters; every rendered snippet executes against
# `repro.core as couler` and chains implicitly.
# ---------------------------------------------------------------------------

_TEMPLATES: Dict[str, Tuple[str, str, str]] = {
    "data_loading": (
        "Load a dataset from remote storage",
        "read input data tables files import dataset loading ingest",
        '''\
def load_data():
    return couler.run_container(
        image="data-loader:v1",
        command=["python", "load.py"],
        args=["--dataset", "{dataset}"],
        step_name="load-data",
        output=couler.create_oss_artifact(
            path="/data/{dataset}", name="raw-data", size_bytes=512 * 2**20
        ),
    )

raw_data = load_data()
''',
    ),
    "data_preprocessing": (
        "Preprocess and clean raw data",
        "preprocess clean normalize transform feature engineering scaling",
        '''\
def preprocess(raw):
    return couler.run_container(
        image="data-preprocessor:v1",
        command=["python", "preprocess.py"],
        step_name="preprocess-data",
        input=raw,
        output=couler.create_oss_artifact(
            path="/data/{dataset}-clean", name="clean-data", size_bytes=256 * 2**20
        ),
    )

clean_data = preprocess(raw_data)
''',
    ),
    "data_augmentation": (
        "Augment the training data",
        "augmentation flips crops synthetic oversampling enrich data",
        '''\
def augment(data):
    return couler.run_container(
        image="data-augmentor:v1",
        command=["python", "augment.py"],
        step_name="augment-data",
        input=data,
        output=couler.create_oss_artifact(
            path="/data/{dataset}-aug", name="augmented-data", size_bytes=384 * 2**20
        ),
    )

augmented_data = augment(clean_data)
''',
    ),
    "model_training": (
        "Train candidate models on the prepared data",
        "train fit model learning epochs gpu training job",
        '''\
def train_model(model_name, data):
    return couler.run_container(
        image="training-image:v1",
        command=["python", "train.py"],
        args=["--model", model_name],
        step_name="train-" + model_name,
        input=data,
        output=couler.create_oss_artifact(
            path="/models/" + model_name, name="model", size_bytes=128 * 2**20
        ),
    )

trained_models = couler.map(
    lambda name: train_model(name, {data_var}), {models}
)
''',
    ),
    "model_evaluation": (
        "Validate each trained model on held-out data",
        "evaluate validation metrics accuracy test score model",
        '''\
def evaluate_model(model):
    return couler.run_container(
        image="model-evaluation:v1",
        command=["python", "evaluate.py"],
        args=[model],
        step_name="eval-" + model.step_name,
        input=model,
        output=couler.create_parameter_artifact(
            path="/metrics/" + model.step_name, name="metrics"
        ),
    )

eval_results = couler.map(lambda model: evaluate_model(model), trained_models)
''',
    ),
    "model_comparison": (
        "Compare evaluation metrics across models",
        "compare rank metrics models leaderboard comparison",
        '''\
def compare_models(results):
    return couler.run_container(
        image="model-comparison:v1",
        command=["python", "compare.py"],
        step_name="compare-models",
        input=results,
        output=couler.create_parameter_artifact(
            path="/metrics/ranking", name="ranking"
        ),
    )

ranking = compare_models(eval_results)
''',
    ),
    "model_selection": (
        "Select the best model from the comparison",
        "select best champion model pick winner selection",
        '''\
def select_best(ranking):
    return couler.run_container(
        image="model-selector:v1",
        command=["python", "select.py"],
        step_name="select-best-model",
        input=ranking,
        output=couler.create_oss_artifact(
            path="/models/best", name="best-model", size_bytes=128 * 2**20
        ),
    )

best_model = select_best({ranking_var})
''',
    ),
    "model_deployment": (
        "Deploy the selected model to serving",
        "deploy serving push production endpoint rollout",
        '''\
def deploy(model):
    return couler.run_container(
        image="model-deployer:v1",
        command=["python", "deploy.py"],
        step_name="deploy-model",
        input=model,
    )

deploy(best_model)
''',
    ),
    "hyperparameter_tuning": (
        "Sweep hyperparameters for the model",
        "hyperparameter tuning sweep search learning rate batch grid",
        '''\
def tune(batch_size, data):
    return couler.run_container(
        image="training-image:v1",
        command=["python", "train.py"],
        args=["--batch-size", str(batch_size)],
        step_name="tune-bs-" + str(batch_size),
        input=data,
        output=couler.create_oss_artifact(
            path="/models/bs-" + str(batch_size), name="model", size_bytes=64 * 2**20
        ),
    )

tuned_models = couler.map(lambda bs: tune(bs, {data_var}), [64, 128, 256])
''',
    ),
    "report_generation": (
        "Generate the final analysis report",
        "report summary pdf plot chart generate document",
        '''\
def generate_report():
    return couler.run_container(
        image="report-generator:v1",
        command=["python", "report.py"],
        step_name="generate-report",
        output=couler.create_parameter_artifact(
            path="/reports/final", name="report"
        ),
    )

report = generate_report()
''',
    ),
}

#: Distractor entries: plausible snippets that are NOT the canonical
#: implementation of any predefined task type (retrieval must rank the
#: canonical entry above these for the pipeline to benefit).
_DISTRACTORS = [
    CodeSnippet(
        task_type="misc",
        title="Flip a coin and branch",
        description="random coin conditional branch control flow heads tails",
        code='result = couler.run_script(image="python:alpine3.6", source="print(1)")\n',
    ),
    CodeSnippet(
        task_type="misc",
        title="Diamond DAG",
        description="diamond explicit dag four steps dependencies example",
        code='couler.dag([[lambda: couler.run_container(image="alpine", step_name="a")]])\n',
    ),
    CodeSnippet(
        task_type="misc",
        title="Recursive retry until success",
        description="retry loop recursive while condition exec",
        code='couler.exec_while(couler.equal("tails"), lambda: flip())\n',
    ),
]


def canonical_code(task_type: str, params: Optional[dict] = None) -> str:
    """The ground-truth Couler snippet for a task module."""
    if task_type not in _TEMPLATES:
        raise KeyError(f"no canonical template for task type {task_type!r}")
    params = dict(params or {})
    params.setdefault("dataset", "dataset")
    params.setdefault("models", ["model-a", "model-b"])
    params.setdefault("data_var", "clean_data")
    params.setdefault("ranking_var", "ranking")
    template = _TEMPLATES[task_type][2]
    return template.format(
        dataset=params["dataset"],
        models=params["models"],
        data_var=params["data_var"],
        ranking_var=params["ranking_var"],
    )


#: Task types whose canonical snippet is dataset-specific enough that a
#: per-dataset Code Lake entry sharpens retrieval (the corpus generator
#: expands the lake with these for every catalog dataset).
_DATASET_SPECIALIZED_TYPES = ("data_loading", "data_preprocessing", "data_augmentation")


def dataset_entries(dataset: str) -> List[CodeSnippet]:
    """Dataset-specialised Code Lake entries for one named dataset.

    The rendered code is the canonical template with the dataset baked
    in, and the searchable document carries the dataset name — so a
    subtask that mentions ``ads-logs`` retrieves the ``ads-logs`` loader
    ahead of the generic one.
    """
    entries = []
    for task_type in _DATASET_SPECIALIZED_TYPES:
        title, description, _code = _TEMPLATES[task_type]
        entries.append(
            CodeSnippet(
                task_type=task_type,
                title=f"{title} ({dataset})",
                description=f"{description} {dataset}",
                code=canonical_code(task_type, {"dataset": dataset}),
            )
        )
    return entries


def expand_code_lake(datasets: Sequence[str]) -> "CodeLake":
    """A Code Lake grown with per-dataset specialised entries.

    This is the "expanded Code Lake" the scenario corpus draws its
    NL-planned workflows from: the canonical entries and distractors
    stay, and every dataset in the catalog contributes specialised
    loading/preprocessing/augmentation snippets.
    """
    entries = default_entries()
    for dataset in sorted(set(datasets)):
        entries.extend(dataset_entries(dataset))
    return CodeLake(entries)


def default_entries() -> List[CodeSnippet]:
    entries = [
        CodeSnippet(
            task_type=task_type,
            title=title,
            description=description,
            code=_TEMPLATES[task_type][2],
        )
        for task_type, (title, description, _code) in _TEMPLATES.items()
    ]
    return entries + list(_DISTRACTORS)


#: How many queries' best references a lake keeps, oldest dropped first.
BEST_REFERENCES_BOUND = 1024


class CodeLake:
    """TF-IDF retrieval over Code Lake entries."""

    def __init__(self, entries: Optional[Sequence[CodeSnippet]] = None) -> None:
        self.entries: List[CodeSnippet] = list(entries or default_entries())
        self._idf: Dict[str, float] = {}
        #: Built with the index, since they change only when an entry is
        #: added: each entry's TF-IDF norm; for each term, the entries
        #: holding it with its weight there, in entry order; and the
        #: entries in title order, the order of those a query shares no
        #: term with.
        self._norms: List[float] = []
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._by_title: List[int] = []
        #: :meth:`best_reference`'s answers by query text, oldest first;
        #: emptied with the index, since only an added entry moves one.
        self._best: Dict[str, Optional[CodeSnippet]] = {}
        self._build()

    def _build(self) -> None:
        doc_terms = [
            Counter(t.lower() for t in split_tokens(e.document()))
            for e in self.entries
        ]
        num_docs = len(doc_terms)
        df: Counter = Counter()
        for terms in doc_terms:
            for term in terms:
                df[term] += 1
        self._idf = {
            term: math.log((1 + num_docs) / (1 + count)) + 1.0
            for term, count in df.items()
        }
        self._norms = []
        self._postings = {}
        for index, terms in enumerate(doc_terms):
            vector = self._vector(terms)
            self._norms.append(self._norm(vector))
            for term, weight in vector.items():
                self._postings.setdefault(term, []).append((index, weight))
        self._by_title = sorted(range(len(self.entries)), key=lambda i: self.entries[i].title)
        self._best = {}

    def add(self, snippet: CodeSnippet) -> None:
        self.entries.append(snippet)
        self._build()

    def _vector(self, terms: Counter) -> Dict[str, float]:
        return {
            term: freq * self._idf.get(term, 1.0) for term, freq in terms.items()
        }

    @staticmethod
    def _norm(vector: Dict[str, float]) -> float:
        return math.sqrt(sum(w * w for w in vector.values()))

    def search(self, query: str, top_k: int = 1) -> List[Tuple[float, CodeSnippet]]:
        """Best-matching snippets for a subtask description, by cosine
        similarity, ties by title, then entry order."""
        query_vec = self._vector(Counter(t.lower() for t in split_tokens(query)))
        query_norm = self._norm(query_vec)
        # Only the entries sharing a query term score above 0.0.  Each
        # dot product adds its terms in query order, as a sum over the
        # query's terms would (a missing term adds 0.0, which changes
        # no sum of positive weights).
        dots: Dict[int, float] = {}
        for term, weight in query_vec.items():
            for index, doc_weight in self._postings.get(term, ()):
                dots[index] = dots.get(index, 0.0) + weight * doc_weight
        scored = [
            (dot / (query_norm * self._norms[index]), self.entries[index])
            for index, dot in sorted(dots.items())
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1].title))
        if top_k < 0 or len(scored) < top_k:
            scored.extend((0.0, self.entries[i]) for i in self._by_title if i not in dots)
        return scored[:top_k]

    def best_reference(self, query: str) -> Optional[CodeSnippet]:
        """The top :meth:`search` result, or ``None`` when no entry shares
        a term with ``query``."""
        best = self._best
        if query in best:
            return best[query]
        results = self.search(query, top_k=1)
        reference = None if not results or results[0][0] <= 0.0 else results[0][1]
        if len(best) >= BEST_REFERENCES_BOUND:
            del best[next(iter(best))]
        best[query] = reference
        return reference

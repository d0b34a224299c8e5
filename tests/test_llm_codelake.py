"""Unit tests for the Code Lake corpus and retrieval."""

import math
from collections import Counter

import pytest

from repro.llm.codelake import (
    CodeLake,
    CodeSnippet,
    TASK_TYPES,
    canonical_code,
    default_entries,
)
from repro.llm.tokenizer import split_tokens
from repro.nl2wf.executor import execute_couler_code
from repro.workloads.corpus import CorpusSpec, build_corpus


class TestCanonicalCode:
    def test_every_task_type_has_a_template(self):
        for task_type in TASK_TYPES:
            code = canonical_code(task_type, {"dataset": "d", "models": ["m1"]})
            assert "couler." in code

    def test_unknown_type_rejected(self):
        with pytest.raises(KeyError):
            canonical_code("quantum_annealing")

    def test_parameters_substituted(self):
        code = canonical_code("data_loading", {"dataset": "imagenet"})
        assert "imagenet" in code

    def test_full_pipeline_is_executable(self):
        """Chained canonical snippets execute against the real DSL."""
        params = {"dataset": "d", "models": ["m1", "m2"], "data_var": "clean_data",
                  "ranking_var": "ranking"}
        program = "\n".join(
            canonical_code(t, params)
            for t in (
                "data_loading",
                "data_preprocessing",
                "model_training",
                "model_evaluation",
                "model_comparison",
                "model_selection",
            )
        )
        ir = execute_couler_code(program, workflow_name="lake-test")
        # load, pre, 2 train, 2 eval, compare, select = 8 steps.
        assert len(ir.nodes) == 8
        assert ir.topological_order()


class TestRetrieval:
    def test_canonical_entry_ranked_first_for_its_task(self):
        lake = CodeLake()
        for task_type, query in [
            ("data_loading", "load the dataset from remote storage"),
            ("model_training", "train candidate models on prepared data"),
            ("model_evaluation", "validate each trained model"),
            ("report_generation", "generate a final analysis report"),
        ]:
            best = lake.best_reference(query)
            assert best is not None
            assert best.task_type == task_type, query

    def test_unrelated_query_returns_weak_or_no_match(self):
        lake = CodeLake()
        result = lake.search("zzz qqq xyzzy", top_k=1)
        assert result[0][0] == pytest.approx(0.0, abs=1e-9) or result[0][0] < 0.1

    def test_add_entry_and_retrieve(self):
        lake = CodeLake()
        lake.add(
            CodeSnippet(
                task_type="misc",
                title="Quantum annealing workflow",
                description="quantum annealing qubits optimization",
                code="pass",
            )
        )
        best = lake.best_reference("quantum annealing qubits")
        assert best.title == "Quantum annealing workflow"

    def test_default_entries_include_distractors(self):
        entries = default_entries()
        assert any(e.task_type == "misc" for e in entries)
        assert len(entries) >= len(TASK_TYPES) + 3


class TestIndexedVectors:
    """Document vectors and norms are built with the index, and score
    exactly as when every query rebuilt them."""

    @staticmethod
    def _scratch_scores(lake: CodeLake, query: str) -> dict:
        def terms(text):
            return Counter(t.lower() for t in split_tokens(text))

        docs = [terms(entry.document()) for entry in lake.entries]
        df: Counter = Counter()
        for doc in docs:
            df.update(doc.keys())
        idf = {
            term: math.log((1 + len(docs)) / (1 + count)) + 1.0
            for term, count in df.items()
        }

        def vector(counts):
            return {t: f * idf.get(t, 1.0) for t, f in counts.items()}

        def cosine(a, b):
            if not a or not b:
                return 0.0
            dot = sum(weight * b.get(term, 0.0) for term, weight in a.items())
            norm_a = math.sqrt(sum(w * w for w in a.values()))
            norm_b = math.sqrt(sum(w * w for w in b.values()))
            return dot / (norm_a * norm_b) if norm_a and norm_b else 0.0

        query_vec = vector(terms(query))
        return {
            id(entry): cosine(query_vec, vector(doc))
            for entry, doc in zip(lake.entries, docs)
        }

    def test_search_equals_the_scratch_cosine(self, monkeypatch):
        queries = []
        lakes = []
        search = CodeLake.search

        def recording(lake, query, top_k=1):
            lakes.append(lake)
            queries.append(query)
            return search(lake, query, top_k)

        monkeypatch.setattr(CodeLake, "search", recording)
        build_corpus(CorpusSpec(seed=7, size=24))
        monkeypatch.undo()
        assert queries and len({id(lake) for lake in lakes}) == 1
        lake = lakes[0]
        # The last query's best reference is the entry added below.
        queries = sorted(set(queries)) + ["zzz qqq", "", "stream into a feature store"]

        def check():
            for query in queries:
                scores = self._scratch_scores(lake, query)
                # Ranked as search ranks: by score, then title, then
                # entry order (the sort is stable).
                ranking = sorted(
                    ((scores[id(entry)], entry) for entry in lake.entries),
                    key=lambda pair: (-pair[0], pair[1].title),
                )
                got = lake.search(query, top_k=len(lake.entries))
                assert [(score, id(entry)) for score, entry in got] == [
                    (score, id(entry)) for score, entry in ranking
                ], query
                for top_k in (0, 1, 3):
                    assert lake.search(query, top_k=top_k) == got[:top_k], query
                # The kept best reference follows the same rule.
                best = got[0][1] if got and got[0][0] > 0.0 else None
                assert lake.best_reference(query) is best, query

        check()
        lake.add(
            CodeSnippet(
                task_type="misc",
                title="Stream ads-logs into a feature store",
                description="ads-logs stream feature store online ingest",
                code="pass",
            )
        )
        check()

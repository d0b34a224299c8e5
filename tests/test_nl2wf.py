"""Tests for the NL -> workflow pipeline (Algorithm 1) and pass@k math."""

import pytest

import repro.core
from repro.llm.simulated import GPT4_PROFILE, SimulatedLLM
from repro.nl2wf import executor
from repro.nl2wf.corpus import build_corpus
from repro.nl2wf.executor import CodeExecutionError, execute_couler_code
from repro.nl2wf.passk import pass_at_k
from repro.nl2wf.pipeline import NLToWorkflow
from repro.nl2wf.validate import compare_ir


class TestCorpus:
    def test_twenty_six_tasks(self):
        tasks = build_corpus()
        assert len(tasks) == 26
        assert len({t.name for t in tasks}) == 26

    def test_every_canonical_program_self_validates(self):
        for task in build_corpus():
            ir = execute_couler_code(task.canonical_program(), workflow_name=task.name)
            report = compare_ir(task.expected_ir(), ir)
            assert report.ok, (task.name, report.problems)

    def test_descriptions_mention_their_modules(self):
        task = build_corpus()[0]
        assert task.description
        assert len(task.modules) >= 3


class TestExecutor:
    def test_bad_code_raises(self):
        with pytest.raises(CodeExecutionError):
            execute_couler_code("couler.run_pod(image='x')")
        with pytest.raises(CodeExecutionError):
            execute_couler_code("def broken(:\n  pass")

    def test_context_isolated_between_runs(self):
        execute_couler_code("couler.run_container(image='a', step_name='s1')", "w1")
        ir = execute_couler_code("couler.run_container(image='b', step_name='s2')", "w2")
        assert set(ir.nodes) == {"s2"}


class TestCompiledPrograms:
    """Each program text compiles once per process; every run still
    executes code named after its own request."""

    #: Records the file its module code, its function and its lambda
    #: run under, through a list the test puts on the ``couler`` module.
    NAMING_PROGRAM = """\
import sys

def step(name):
    return couler.run_container(image="a", step_name=name)

couler.seen.append(sys._getframe().f_code.co_filename)
couler.seen.append(step.__code__.co_filename)
couler.seen.append((lambda: sys._getframe().f_code.co_filename)())
step("s")
"""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(executor, "_compiled", {})

    def test_a_kept_program_runs_under_each_request_name(self, monkeypatch):
        for name in ("a", "b", "a"):
            monkeypatch.setattr(repro.core, "seen", [], raising=False)
            ir = execute_couler_code(self.NAMING_PROGRAM, name)
            assert repro.core.seen == [f"<generated:{name}>"] * 3
            assert set(ir.nodes) == {"s"}
        # Compiled once, under the first name; "b" ran a renamed copy.
        assert [code.co_filename for code in executor._compiled.values()] == [
            "<generated:a>"
        ]

    def test_a_program_that_fails_to_compile_names_each_request(self):
        for name in ("a", "b"):
            with pytest.raises(CodeExecutionError, match=f"<generated:{name}>"):
                execute_couler_code("def broken(:\n  pass", name)
        assert executor._compiled == {}

    def test_the_memo_stays_within_its_bound(self):
        bound = executor.COMPILED_PROGRAMS_BOUND
        for index in range(bound + 8):
            execute_couler_code(f"couler.run_container(image='a', step_name='s{index}')")
        assert len(executor._compiled) == bound


class TestValidate:
    def test_identical_irs_match(self):
        task = build_corpus()[0]
        assert compare_ir(task.expected_ir(), task.expected_ir()).ok

    def test_missing_step_reported(self):
        task = build_corpus()[0]
        actual = task.expected_ir()
        dropped = actual.topological_order()[-1]
        del actual.nodes[dropped]
        actual.edges = {(p, c) for p, c in actual.edges if dropped not in (p, c)}
        report = compare_ir(task.expected_ir(), actual)
        assert not report.ok
        assert any("missing steps" in p for p in report.problems)

    def test_wrong_image_reported(self):
        task = build_corpus()[0]
        actual = task.expected_ir()
        first = next(iter(actual.nodes.values()))
        first.image = "evil:latest"
        report = compare_ir(task.expected_ir(), actual)
        assert any("image" in p for p in report.problems)


class TestPipeline:
    def test_easy_task_converts_end_to_end(self):
        tasks = build_corpus()
        llm = SimulatedLLM(GPT4_PROFILE, seed=1)
        pipeline = NLToWorkflow(llm)
        # Pick a task the model can definitely solve (hardness < cap).
        easy = min(tasks, key=lambda t: llm.begin_task(t.description))
        result = pipeline.convert(easy)
        assert result.passed, (result.error, result.report)
        assert result.ir is not None
        assert result.modules

    def test_user_feedback_repairs_failures(self):
        """Step 4: feedback rounds strictly improve the pass rate."""
        tasks = build_corpus()[:12]
        wins_without, wins_with = 0, 0
        for index, task in enumerate(tasks):
            base = NLToWorkflow(SimulatedLLM(GPT4_PROFILE, seed=500 + index))
            wins_without += base.convert(task).passed
            again = NLToWorkflow(SimulatedLLM(GPT4_PROFILE, seed=500 + index))
            wins_with += again.convert(task, user_feedback_rounds=3).passed
        assert wins_with >= wins_without

    def test_baseline_score_validation(self):
        llm = SimulatedLLM(GPT4_PROFILE, seed=0)
        with pytest.raises(ValueError):
            NLToWorkflow(llm, baseline_score=1.5)

    def test_single_shot_baseline_runs(self):
        llm = SimulatedLLM(GPT4_PROFILE, seed=2)
        result = NLToWorkflow(llm).convert_single_shot(build_corpus()[0])
        assert result.code
        assert isinstance(result.passed, bool)


class TestPassAtK:
    def test_boundary_values(self):
        assert pass_at_k(5, 0, 1) == 0.0
        assert pass_at_k(5, 5, 1) == 1.0
        assert pass_at_k(5, 3, 5) == 1.0  # n - c < k

    def test_unbiased_estimator_formula(self):
        # pass@1 with c of n = c/n.
        assert pass_at_k(10, 3, 1) == pytest.approx(0.3)
        # pass@2 with 1 of 3: 1 - C(2,2)/C(3,2) = 2/3.
        assert pass_at_k(3, 1, 2) == pytest.approx(2 / 3)

    def test_monotone_in_k(self):
        values = [pass_at_k(10, 4, k) for k in (1, 2, 5, 10)]
        assert values == sorted(values)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pass_at_k(0, 0, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 6, 1)
        with pytest.raises(ValueError):
            pass_at_k(5, 1, 6)

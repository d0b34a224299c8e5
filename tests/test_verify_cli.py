"""The ``repro verify`` CLI gate."""

import pytest

from repro.cli import main


@pytest.mark.slow
def test_verify_passes_and_digest_is_stable(capsys):
    assert main(["verify", "--seeds", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seeds", "3"]) == 0
    second = capsys.readouterr().out
    digest_line = [
        line for line in first.splitlines() if "aggregate fingerprint" in line
    ]
    assert digest_line
    assert digest_line == [
        line for line in second.splitlines() if "aggregate fingerprint" in line
    ]
    assert "all oracles passed" in first


def test_verify_oracle_subset(capsys):
    assert main(["verify", "--seeds", "2", "--oracles", "backends"]) == 0
    out = capsys.readouterr().out
    assert "backends" in out
    assert "split" not in out


def test_verify_unknown_oracle_exits_2(capsys):
    assert main(["verify", "--seeds", "1", "--oracles", "nope"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_verify_corpus_source_rejects_replay_with_exit_2(capsys):
    code = main(["verify", "--seeds", "1", "--source", "corpus", "--oracles", "replay"])
    assert code == 2
    assert "cannot run on corpus workflows" in capsys.readouterr().err


def test_verify_seed_base_shifts_sweep(capsys):
    assert main(["verify", "--seeds", "2", "--oracles", "backends"]) == 0
    base0 = capsys.readouterr().out
    assert main(
        ["verify", "--seeds", "2", "--seed-base", "100", "--oracles", "backends"]
    ) == 0
    base100 = capsys.readouterr().out
    digest = lambda text: [
        line for line in text.splitlines() if "aggregate fingerprint" in line
    ]
    assert digest(base0) != digest(base100)


@pytest.mark.slow
def test_verify_failure_prints_shrunk_repro(monkeypatch, capsys):
    """End-to-end: injected bug -> exit 1, FAIL lines, minimal repro JSON."""
    from repro.engine.operator import WorkflowOperator

    original = WorkflowOperator.submit

    def broken(self, workflow, record=None, on_complete=None, initial_results=None):
        return original(
            self, workflow, record=record, on_complete=on_complete,
            initial_results=None,
        )

    monkeypatch.setattr(WorkflowOperator, "submit", broken)
    # Seeds chosen to include one the injected bug is known to trip on.
    code = main(
        ["verify", "--seeds", "4", "--seed-base", "2", "--oracles", "split"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL split" in captured.err
    assert "minimal repro for split" in captured.out
    assert '"nodes"' in captured.out

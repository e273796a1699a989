"""Unit tests for the causal rule engine."""

from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, Diagnosis, RuleEngine


def _finding(kind="service-down", subject="ora"):
    return Finding(kind, subject, "probe failed")


def test_first_confirmed_cause_wins(db_host):
    engine = RuleEngine((
        CausalRule("service-down", "bad-config",
                   lambda h, f: False, ("restore_config",)),
        CausalRule("service-down", "crash",
                   lambda h, f: True, ("restart_app",)),
        CausalRule("service-down", "never-reached",
                   lambda h, f: True, ("reboot_host",)),
    ))
    diag = engine.diagnose(db_host, _finding())
    assert diag.cause == "crash"
    assert diag.actions == ["restart_app"]
    assert diag.confirmed
    # the eliminated candidate left evidence
    assert any("eliminated: bad-config" in e for e in diag.evidence)


def test_unknown_symptom_yields_unconfirmed(db_host):
    engine = RuleEngine()
    diag = engine.diagnose(db_host, _finding("weird-noise"))
    assert not diag.confirmed
    assert not diag.actionable
    assert "unknown" in diag.cause


def test_all_tests_eliminated(db_host):
    engine = RuleEngine((CausalRule("s", "c", lambda h, f: False, ()),))
    diag = engine.diagnose(db_host, _finding("s"))
    assert not diag.confirmed


def test_crashing_test_is_skipped(db_host):
    def bad_test(host, finding):
        raise RuntimeError("probe exploded")

    engine = RuleEngine((
        CausalRule("s", "flaky", bad_test, ("a",)),
        CausalRule("s", "solid", lambda h, f: True, ("b",)),
    ))
    diag = engine.diagnose(db_host, _finding("s"))
    assert diag.cause == "solid"
    assert any("errored" in e for e in diag.evidence)


def test_rules_dispatch_on_symptom_kind(db_host):
    engine = RuleEngine((CausalRule("a", "cause-a", lambda h, f: True, ()),
                         CausalRule("b", "cause-b", lambda h, f: True, ())))
    assert engine.diagnose(db_host, _finding("a")).cause == "cause-a"
    assert engine.diagnose(db_host, _finding("b")).cause == "cause-b"


def test_runtime_rule_extension(db_host):
    """§4: 'Every time a fault was dealt with manually, we added a new
    troubleshooting procedure to the intelliagent source code' -- a
    new row in the agent class's rule table."""
    table = (CausalRule("s", "c", lambda h, f: True, ()),)
    diag0 = RuleEngine(table).diagnose(db_host, _finding("novel-fault"))
    assert not diag0.confirmed
    learned = CausalRule("novel-fault", "learned-cause",
                         lambda h, f: True, ("restart_app",))
    diag1 = RuleEngine(table + (learned,)).diagnose(
        db_host, _finding("novel-fault"))
    assert diag1.confirmed and diag1.actions == ["restart_app"]


def test_finding_passed_to_tests(db_host):
    captured = []

    def test_fn(host, finding):
        captured.append((host, finding))
        return True

    engine = RuleEngine((CausalRule("s", "c", test_fn, ()),))
    f = _finding("s", subject="the-subject")
    engine.diagnose(db_host, f)
    assert captured[0] == (db_host, f)

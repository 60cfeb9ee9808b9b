"""The static verifier: rule-table lints, the symmetry-reduced model
checker, counterexample replay, and the verdict cache.

The registry-wide parametrizations mirror the ``static-lints`` /
``model-check`` conformance cells but bind the verifier API directly,
so a verifier regression points here rather than at the conformance
harness.  The mutant tests are the suite's teeth: seeded single-rule
deletions of Simple-Global-Line must be *rejected* with an executable
counterexample that replays through the sequential engine to the exact
violating configuration.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.core.protocol import Protocol, TableProtocol, deterministic
from repro.protocols import registry
from repro.protocols.registry import RegistryError, target_predicate
from repro.verify import (
    LINT_CODES,
    VerifyCache,
    VerifyError,
    canonicalize,
    explore,
    model_check,
    protocol_digest,
    reachable_abstraction,
    replay_counterexample,
    run_lints,
    strongly_connected_components,
)
from repro.viz import trace_to_dot, trace_to_dot_frames

ALL_SPECS = tuple(sorted(registry.names()))


def _enumerable(spec: str):
    protocol = registry.instantiate(spec)
    if protocol.states is None:
        pytest.skip(f"{spec}: structured state space (states=None)")
    return protocol


# ----------------------------------------------------------------------
# Registry-wide sweeps
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_registry_protocol_lints_clean(spec):
    protocol = _enumerable(spec)
    report = run_lints(protocol)
    assert report.ok, report.summary()


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_registry_protocol_model_checks_at_n4(spec):
    protocol = _enumerable(spec)
    try:
        report = model_check(protocol, 4, max_configs=60_000)
    except VerifyError as exc:
        pytest.skip(str(exc))
    assert report.ok, report.summary()


def test_neighbor_doubling_model_checks_at_its_minimum_population():
    """Regression: the center is found by state, not by node id — the
    canonical quotient relabels nodes, which used to make the terminal
    configuration 'fail' the target purely because the center was no
    longer node 0."""
    report = model_check(registry.instantiate("neighbor-doubling"), 9)
    assert report.ok, report.summary()
    assert report.n_terminal_sccs == 1


# ----------------------------------------------------------------------
# The acceptance proof: Simple-Global-Line at n=5
# ----------------------------------------------------------------------

def test_simple_global_line_every_terminal_scc_is_a_line_at_n5():
    protocol = registry.instantiate("simple-global-line")
    report = model_check(protocol, 5)
    assert report.ok, report.summary()
    assert report.target == "spanning-line"
    assert report.n_terminal_sccs == 1
    # Exhaustively re-verify the terminal members against the predicate
    # the registry bound — the proof the summary line claims.
    graph = explore(protocol, 5)
    sccs = strongly_connected_components(graph.succ)
    predicate = target_predicate(protocol)
    terminal = [
        component for component in sccs
        if all(child in component for key in component
               for child in graph.succ[key])
    ]
    assert len(terminal) == 1
    for key in terminal[0]:
        assert predicate(graph.configuration_of(key))


def test_ft_and_rc_line_survive_one_edge_deletion():
    for spec in ("ft-global-line", "rc-global-line"):
        report = model_check(registry.instantiate(spec), 5)
        assert report.ok, report.summary()
        assert "edge-loss-recovery" in report.checked


# ----------------------------------------------------------------------
# Mutants: seeded rule deletions must be rejected with replayable
# counterexamples
# ----------------------------------------------------------------------

#: Single-rule deletions of Simple-Global-Line that break the target at
#: n=5.  Deleting ('w', 'q2', 1) — the leader's walk — is *not* here:
#: a merge whose walker cannot move still leaves a spanning line, so
#: the graph-shape target legitimately survives it at small n.
BREAKING_DELETIONS = (
    ("q0", "q0", 0),
    ("l", "q0", 0),
    ("l", "l", 0),
    ("w", "q1", 1),
)


def _mutant(deleted):
    base = registry.instantiate("simple-global-line")
    rules = dict(base.rules())
    del rules[deleted]
    return TableProtocol(
        name=f"sgl-minus-{deleted}", initial_state="q0", rules=rules
    )


@pytest.mark.parametrize("deleted", BREAKING_DELETIONS)
def test_mutant_rule_deletions_are_rejected(deleted):
    report = model_check(_mutant(deleted), 5, target="spanning-line")
    assert not report.ok
    kinds = {violation.kind for violation in report.violations}
    assert "terminal-scc" in kinds
    witness = next(
        v.counterexample for v in report.violations
        if v.counterexample is not None
    )
    # Deleting the pairing rule freezes the initial configuration, so
    # its witness is legitimately the empty schedule; every other
    # deletion needs actual interactions to reach the bad terminal.
    if deleted != ("q0", "q0", 0):
        assert witness.events, "counterexample must be a non-empty schedule"
    assert not registry.TARGETS["spanning-line"](
        _mutant(deleted), witness.final_configuration()
    )


def test_seeded_mutant_sample_is_rejected():
    # n=5, not 4: with an even population every node pairs up and two
    # 2-lines merge into a spanning line without the growth rule, so
    # its deletion is only observable at odd n.
    rng = random.Random(0x5EED)
    for deleted in rng.sample(BREAKING_DELETIONS, 2):
        report = model_check(_mutant(deleted), 5, target="spanning-line")
        assert not report.ok, f"deleting {deleted} must be caught at n=5"


def test_walk_rule_deletion_survives_the_graph_target():
    report = model_check(_mutant(("w", "q2", 1)), 5, target="spanning-line")
    assert report.ok, report.summary()


def test_mutant_counterexample_replays_through_the_sequential_engine():
    """The witness is an executable schedule, not just an abstract
    path: driving the sequential engine with the scripted scheduler
    over the witnessed picks reproduces the violating configuration."""
    mutant = _mutant(("l", "l", 0))
    report = model_check(mutant, 5, target="spanning-line")
    assert not report.ok
    witness = report.violations[0].counterexample
    assert witness is not None
    result = replay_counterexample(mutant, witness)
    assert (
        result.config.signature()
        == witness.final_configuration().signature()
    )
    # And the replayed endpoint really does violate the target.
    predicate = registry.TARGETS["spanning-line"]
    assert not predicate(mutant, result.config)


def test_counterexample_renders_via_the_trace_machinery():
    mutant = _mutant(("l", "l", 0))
    report = model_check(mutant, 5, target="spanning-line")
    witness = report.violations[0].counterexample
    trace = witness.to_trace()
    assert len(trace.snapshots) == len(witness.events) + 1
    frames = trace_to_dot_frames(trace, name="cex")
    assert len(frames) == len(trace.snapshots)
    document = trace_to_dot(trace, name="cex")
    assert document.count("graph cex_") == len(frames)
    assert "frame 0: initial configuration" in document
    listing = witness.format()
    assert "terminal-scc" in listing and "step 1" in listing


# ----------------------------------------------------------------------
# Lints: one ad-hoc broken protocol per finding code
# ----------------------------------------------------------------------

def _codes(report):
    return {finding.code for finding in report.findings}


class TestLintFindings:
    def test_unreachable_state_and_dead_rule(self):
        protocol = TableProtocol(
            name="dead-wing", initial_state="a",
            rules={
                ("a", "a", 0): ("b", "b", 1),
                # 'z' never arises, so this rule can never fire.
                ("z", "a", 0): ("z", "z", 1),
            },
        )
        report = run_lints(protocol)
        assert _codes(report) == {"unreachable-state", "dead-rule"}
        subjects = {finding.subject for finding in report.findings}
        assert "'z'" in subjects

    def test_effectless_rule(self):
        protocol = TableProtocol(
            name="noop", initial_state="a",
            rules={
                ("a", "a", 0): ("a", "a", 0),
                ("a", "b", 0): ("b", "b", 1),
            },
        )
        report = run_lints(protocol)
        assert "effectless-rule" in _codes(report)

    def test_orientation_conflict(self):
        class BadSym(Protocol):
            name = "badsym"
            initial_state = "a"
            states = frozenset({"a", "b"})

            def delta(self, a, b, c):
                if (a, b, c) == ("a", "b", 0):
                    return deterministic("a", "a", 1)
                if (a, b, c) == ("b", "a", 0):
                    return deterministic("b", "b", 1)
                return None

        report = run_lints(BadSym())
        assert "orientation-conflict" in _codes(report)

    def test_unused_leader_state(self):
        protocol = TableProtocol(
            name="wannabe", initial_state="a",
            rules={("a", "a", 0): ("b", "b", 1)},
        )
        protocol.leader_states = frozenset({"king"})
        report = run_lints(protocol)
        assert "unused-leader-state" in _codes(report)

    def test_missing_hook_for_claimed_fault_family(self):
        protocol = TableProtocol(
            name="braggart", initial_state="a",
            rules={("a", "a", 0): ("b", "b", 1)},
        )
        protocol.fault_claims = ("edge-loss",)
        report = run_lints(protocol)
        findings = [
            f for f in report.findings if f.code == "missing-hook"
        ]
        # 'b' holds edges but on_edge_loss returns None for it.
        assert any("'b'" in f.subject for f in findings)

    def test_unknown_fault_claim_is_a_finding(self):
        protocol = TableProtocol(
            name="confused", initial_state="a",
            rules={("a", "a", 0): ("b", "b", 1)},
        )
        protocol.fault_claims = ("meteor-strike",)
        report = run_lints(protocol)
        assert any(
            f.code == "missing-hook" and f.subject == "meteor-strike"
            for f in report.findings
        )

    def test_waivers_suppress_by_code_and_by_subject(self):
        def fresh():
            protocol = TableProtocol(
                name="waived", initial_state="a",
                rules={
                    ("a", "a", 0): ("b", "b", 1),
                    ("z", "a", 0): ("z", "z", 1),
                },
            )
            return protocol

        bare = run_lints(fresh())
        assert not bare.ok and len(bare.findings) == 2

        by_code = fresh()
        by_code.lint_waivers = frozenset({"unreachable-state", "dead-rule"})
        report = run_lints(by_code)
        assert report.ok and len(report.waived) == 2

        by_subject = fresh()
        by_subject.lint_waivers = frozenset({"unreachable-state:'z'"})
        report = run_lints(by_subject)
        assert len(report.findings) == 1
        assert report.findings[0].code == "dead-rule"
        assert len(report.waived) == 1

    def test_structured_protocols_are_rejected_not_guessed(self):
        with pytest.raises(VerifyError, match="states=None"):
            run_lints(registry.instantiate("universal"))

    def test_lint_codes_registry_is_exact(self):
        assert LINT_CODES == (
            "unreachable-state",
            "dead-rule",
            "effectless-rule",
            "orientation-conflict",
            "unused-leader-state",
            "missing-hook",
        )

    def test_fault_claim_hooks_extend_the_census(self):
        """FT-Global-Line's reset state is reachable only *through* the
        crash/cut notification — the claim closure is what keeps its
        restart rules from reading as dead."""
        protocol = registry.instantiate("ft-global-line")
        abstraction = reachable_abstraction(protocol)
        assert "r" in abstraction.states
        unclaimed = registry.instantiate("ft-global-line")
        unclaimed.fault_claims = ()
        bare = reachable_abstraction(unclaimed)
        assert "r" not in bare.states


# ----------------------------------------------------------------------
# Model checker internals
# ----------------------------------------------------------------------

class TestModelChecker:
    def test_canonicalization_is_permutation_invariant(self):
        states = (2, 0, 1, 0)
        edges = {(0, 1), (2, 3)}
        key, _ = canonicalize(states, edges)
        # Relabel by an arbitrary permutation and re-canonicalize.
        perm = (3, 1, 0, 2)
        permuted_states = [0] * 4
        for u in range(4):
            permuted_states[perm[u]] = states[u]
        permuted_edges = {
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for u, v in edges
        }
        key2, _ = canonicalize(tuple(permuted_states), permuted_edges)
        assert key == key2

    def test_unsound_certificate_is_a_fairness_violation(self):
        class Unsound(TableProtocol):
            def __init__(self):
                super().__init__(
                    name="unsound", initial_state="a",
                    rules={("a", "a", 0): ("b", "b", 1)},
                )

            def stabilized(self, config):
                return True  # accepts even before the edge appears

        report = model_check(Unsound(), 3)
        kinds = {violation.kind for violation in report.violations}
        assert "fairness-closure" in kinds
        witness = next(
            v.counterexample for v in report.violations
            if v.kind == "fairness-closure"
        )
        # The witness ends one step past the output-changing interaction.
        assert witness.events[-1].edge_changed

    def test_flickering_but_output_sound_certificate_passes(self):
        """Graph-Replication's certificate revokes mid-copy while the
        output graph stays fixed — output-stability, the paper's actual
        notion, must accept that (regression for the overly-strict
        one-step closure)."""
        report = model_check(registry.instantiate("graph-replication"), 8)
        assert report.ok, report.summary()

    def test_fragile_line_fails_edge_loss_recovery(self):
        """Simple-Global-Line's rules with an edge-loss *claim* bolted
        on: a cut strands a leaderless fragment no rule can reabsorb —
        exactly the wreck FTGlobalLine's restart wave exists to fix."""
        class BrittleLine(TableProtocol):
            fault_claims = ("edge-loss",)

            def __init__(self):
                base = registry.instantiate("simple-global-line")
                super().__init__(
                    name="brittle-line",
                    initial_state="q0",
                    rules=dict(base.rules()),
                )

        report = model_check(BrittleLine(), 4, target="spanning-line")
        kinds = {violation.kind for violation in report.violations}
        assert "edge-loss-recovery" in kinds
        witness = next(
            v.counterexample for v in report.violations
            if v.kind == "edge-loss-recovery"
        )
        # The witness starts at the post-damage configuration and the
        # damaged run replays through the engine like any other.
        result = replay_counterexample(BrittleLine(), witness)
        assert (
            result.config.signature()
            == witness.final_configuration().signature()
        )

    def test_explore_rejects_structured_and_oversized(self):
        with pytest.raises(VerifyError, match="states=None"):
            explore(registry.instantiate("line-tm"), 4)
        with pytest.raises(VerifyError, match="max_configs"):
            model_check(
                registry.instantiate("global-star"), 6, max_configs=3
            )

    def test_rejected_population_is_a_verify_error(self):
        with pytest.raises(VerifyError, match="rejects population"):
            model_check(registry.instantiate("graph-replication"), 4)

    def test_target_overrides(self):
        protocol = registry.instantiate("simple-global-line")
        by_name = model_check(protocol, 4, target="spanning-line")
        assert by_name.target == "spanning-line"
        calls = []

        def predicate(config):
            calls.append(config)
            return True

        custom = model_check(protocol, 4, target=predicate)
        assert custom.target == "custom" and calls


# ----------------------------------------------------------------------
# Registry target metadata
# ----------------------------------------------------------------------

class TestTargetMetadata:
    def test_registered_targets_resolve_and_bind(self):
        protocol = registry.instantiate("simple-global-line")
        predicate = target_predicate(protocol)
        assert predicate is not None
        assert predicate.target_name == "spanning-line"
        assert registry.get("simple-global-line").target == "spanning-line"

    def test_unknown_target_rejected_at_registration(self):
        with pytest.raises(RegistryError, match="unknown target"):
            registry.register_protocol("doomed", target="no-such-target")

    def test_self_reported_fallback_for_overridden_target_reached(self):
        predicate = target_predicate(registry.instantiate("edge-cover"))
        assert predicate is not None
        assert predicate.target_name == "self-reported"

    def test_targetless_protocol_resolves_to_none(self):
        class Plain(Protocol):
            name = "plain"
            initial_state = "a"
            states = frozenset({"a"})

            def delta(self, a, b, c):
                return None

        assert target_predicate(Plain()) is None


# ----------------------------------------------------------------------
# The verdict cache
# ----------------------------------------------------------------------

class TestVerifyCache:
    def test_round_trip_and_miss(self, tmp_path):
        cache = VerifyCache(tmp_path / "cache")
        protocol = registry.instantiate("simple-global-line")
        digest = protocol_digest(
            protocol, 4, target=None, max_configs=1000
        )
        assert cache.get(digest) is None
        cache.put(digest, {"ok": True, "n": 4})
        assert cache.get(digest) == {"ok": True, "n": 4}

    def test_failing_verdicts_are_never_cached(self, tmp_path):
        cache = VerifyCache(tmp_path)
        cache.put("deadbeef", {"ok": False, "detail": "violation"})
        assert cache.get("deadbeef") is None
        assert not cache.path("deadbeef").exists()

    def test_corrupt_entries_read_as_misses(self, tmp_path):
        cache = VerifyCache(tmp_path)
        cache.path("feedface").parent.mkdir(parents=True, exist_ok=True)
        cache.path("feedface").write_text("not json {")
        assert cache.get("feedface") is None
        cache.path("cafe").write_text(json.dumps(["not", "a", "dict"]))
        assert cache.get("cafe") is None

    def test_digest_pins_the_rule_table(self):
        base = registry.instantiate("simple-global-line")
        mutant = _mutant(("l", "l", 0))
        mutant.name = base.name  # same name, different table
        a = protocol_digest(base, 4, target=None, max_configs=1000)
        b = protocol_digest(mutant, 4, target=None, max_configs=1000)
        assert a != b
        assert a != protocol_digest(base, 5, target=None, max_configs=1000)


# ----------------------------------------------------------------------
# The verify subcommand
# ----------------------------------------------------------------------

class TestVerifyCli:
    def test_capped_model_check_is_incomplete_and_fails(self, capsys):
        """A model check cut short by --max-configs proved nothing: it
        must not read as a pass."""
        rc = main([
            "verify", "--protocol", "global-star", "--n", "6",
            "--checks", "model", "--max-configs", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "global-star: model INCOMPLETE (" in out
        assert "max_configs=3" in out
        assert "SKIP" not in out
        assert "1 protocol(s) FAILED" in out

    def test_structured_and_rejected_populations_still_skip(self, capsys):
        rc = main([
            "verify", "--protocol", "line-tm",
            "--protocol", "graph-replication", "--n", "4",
            "--checks", "model",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "line-tm: SKIP (structured state space" in out
        assert "graph-replication: model SKIP (no accepted population" in out

"""Static protocol verification: rule-table lints + a symmetry-reduced
exhaustive model checker.

Everything in this package analyzes **compiled protocols** — no
simulation engine is in the loop — so it is the ground-truth oracle the
dynamic layers (engines, conformance runs, robustness sweeps) are
measured against at small ``n``:

* :func:`run_lints` — forward reachability over the state abstraction;
  flags unreachable states, dead/effectless rules, orientation
  conflicts, unused leader states and missing fault-notification hooks
  (:mod:`repro.verify.lints`).
* :func:`model_check` — the canonical configuration graph at fixed
  ``n`` (orbit-reduced under node permutation), its SCC condensation,
  and the stability/fairness/edge-loss-recovery properties over it
  (:mod:`repro.verify.model`).
* :class:`Counterexample` / :func:`replay_counterexample` — executable
  minimal witnesses, replayable through the sequential engine
  (:mod:`repro.verify.counterexample`).
* :class:`VerifyCache` — content-addressed store of passing verdicts
  (:mod:`repro.verify.cache`).

Surfaced as the ``static-lints``/``model-check`` conformance checks,
the ``repro-net verify`` CLI subcommand, and the registry-wide
parametrization in ``tests/test_verify.py``.
"""

from repro.verify.cache import (
    VERIFY_CACHE_VERSION,
    VerifyCache,
    protocol_digest,
)
from repro.verify.counterexample import (
    Counterexample,
    build_counterexample,
    replay_counterexample,
)
from repro.verify.lints import (
    CENSUS_POPULATIONS,
    HOOKS,
    LINT_CODES,
    Abstraction,
    Finding,
    LintReport,
    VerifyError,
    reachable_abstraction,
    run_lints,
)
from repro.verify.model import (
    DEFAULT_MAX_CONFIGS,
    MaxConfigsExceeded,
    ModelCheckReport,
    StateGraph,
    Violation,
    canonicalize,
    explore,
    model_check,
    strongly_connected_components,
)

__all__ = [
    "Abstraction",
    "CENSUS_POPULATIONS",
    "Counterexample",
    "DEFAULT_MAX_CONFIGS",
    "Finding",
    "HOOKS",
    "LINT_CODES",
    "LintReport",
    "MaxConfigsExceeded",
    "ModelCheckReport",
    "StateGraph",
    "VERIFY_CACHE_VERSION",
    "VerifyCache",
    "VerifyError",
    "Violation",
    "build_counterexample",
    "canonicalize",
    "explore",
    "model_check",
    "protocol_digest",
    "reachable_abstraction",
    "replay_counterexample",
    "run_lints",
    "strongly_connected_components",
]

"""The pluggable verification-backend registry — the single source of truth.

Every verification backend of the reproduction (the four membership-testing
methods plus the SAT and BDD equivalence-checking baselines) registers
itself here as a :class:`BackendSpec` carrying capability metadata: whether
it can produce counterexamples, whether it reports substitution-engine
counters (``--stats``), which execution kind dispatches it, and its relative
expected cost for longest-expected-first scheduling.

Everything that used to hardcode a method list derives from this module:

* ``repro.verification.engine.METHODS`` is :func:`algebraic_backend_names`,
* the batch runner's scheduling rank table is :func:`scheduling_rank`,
* the CLI ``--method`` / ``--methods`` choices and its unknown-method
  error come from :func:`backend_names`,
* the evaluation tables' column lists (:data:`TABLE1_BASELINES`,
  :data:`TABLE2_BASELINES`, :data:`COMPARISON_METHODS`) are declared and
  validated here.

The module is deliberately *pure data* — it imports nothing but the
standard library and ``repro.errors`` — so every layer (algebra,
verification, experiments, CLI) can consume it without import cycles.
New backends plug in through :func:`register`; the verification service
dispatches on :attr:`BackendSpec.kind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VerificationError

#: Execution kinds understood by the service's dispatch.
KINDS = ("algebraic", "sat", "bdd")


@dataclass(frozen=True)
class BackendSpec:
    """Capability metadata of one registered verification backend."""

    #: Registry name, e.g. ``"mt-lr"`` — what the CLI and API accept.
    name: str
    #: Execution kind: ``"algebraic"`` runs the membership-testing engine,
    #: ``"sat"`` the CDCL miter check, ``"bdd"`` the ROBDD comparison.
    kind: str
    #: One-line description (shown in API/CLI documentation).
    description: str = ""
    #: Can the backend produce a primary-input counterexample on a mismatch?
    supports_counterexample: bool = False
    #: Does the backend report substitution-engine counters (``--stats``)?
    supports_stats: bool = False
    #: Can the backend emit a checkable proof certificate
    #: (``repro.certify`` format, requested via ``certificate=true``)?
    certifiable: bool = False
    #: Relative expected-cost rank for scheduling (higher = start earlier
    #: in a batch); never used for results, only for assignment order.
    cost_rank: int = 0
    #: Budget names (``repro.api.Budgets`` fields) the backend honours.
    budget_keys: tuple[str, ...] = field(default_factory=tuple)
    #: Graceful-degradation chain (``repro.resilience.FallbackPolicy``):
    #: backends to fall back to, in order, after this backend trips a
    #: budget — e.g. the algebraic methods degrade to the ``sat-cec``
    #: golden-reference baseline.  Empty = this backend is terminal.
    degrades_to: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise VerificationError(
                f"backend {self.name!r} declares unknown kind {self.kind!r}; "
                f"expected one of {KINDS}")


_REGISTRY: dict[str, BackendSpec] = {}


def register(spec: BackendSpec) -> BackendSpec:
    """Register a backend; the name must be unique."""
    if spec.name in _REGISTRY:
        raise VerificationError(f"backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a backend (intended for tests plugging in temporary backends)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> BackendSpec:
    """Look up a backend by name; raises with the valid choices on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise VerificationError(
            f"unknown method {name!r}; expected one of "
            f"{backend_names()}") from None


def has_backend(name: str) -> bool:
    """True iff ``name`` is a registered backend."""
    return name in _REGISTRY


def backend_names() -> tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_REGISTRY)


def backends() -> tuple[BackendSpec, ...]:
    """All registered backend specs, in registration order."""
    return tuple(_REGISTRY.values())


def algebraic_backend_names() -> tuple[str, ...]:
    """The membership-testing methods (the engine's ``METHODS``)."""
    return tuple(spec.name for spec in _REGISTRY.values()
                 if spec.kind == "algebraic")


def baseline_backend_names() -> tuple[str, ...]:
    """The conventional CEC baselines (everything non-algebraic)."""
    return tuple(spec.name for spec in _REGISTRY.values()
                 if spec.kind != "algebraic")


def scheduling_rank(name: str) -> int:
    """Expected-cost rank for longest-expected-first batch scheduling."""
    spec = _REGISTRY.get(name)
    return spec.cost_rank if spec is not None else 0


# ---------------------------------------------------------------------------
# Built-in backends
#
# Registration order is the canonical presentation order everywhere
# (engine METHODS, CLI choices), so it is kept
# stable: the four membership tests first, then the two baselines.
# ---------------------------------------------------------------------------

_ALGEBRAIC_BUDGETS = ("monomial_budget", "time_budget_s",
                      "vanishing_cache_limit", "counterexample_tries")

register(BackendSpec(
    name="mt-lr", kind="algebraic",
    description="The paper's method: membership testing with logic "
                "reduction rewriting — XOR rewriting with the XOR-AND "
                "vanishing rule applied after every substitution, then "
                "common rewriting — before the Gröbner-basis reduction of "
                "the word-level specification. Verifies every catalog "
                "architecture at every tested width, which is why it is "
                "the cheapest-ranked algebraic backend for scheduling. "
                "Honours monomial_budget and time_budget_s (trips report "
                "verdict=budget), vanishing_cache_limit (verdict-cache "
                "cap), and counterexample_tries; produces "
                "simulation-validated counterexamples on refutations and "
                "full substitution-engine counters (--stats). Through the "
                "service, a budget trip of a counterexample search without "
                "a certificate is followed by bit-parallel simulation "
                "against the word-level multiplier/adder relation, which "
                "turns it into a refutation when a vector disagrees.",
    supports_counterexample=True, supports_stats=True, certifiable=True,
    cost_rank=0,
    budget_keys=_ALGEBRAIC_BUDGETS,
    degrades_to=("sat-cec",)))

register(BackendSpec(
    name="mt-fo", kind="algebraic",
    description="Membership testing with fanout rewriting [Farahmandi & "
                "Alizadeh]: variables read by more than one gate (plus "
                "primary inputs/outputs) are kept, everything else is "
                "substituted away, and no vanishing rule runs. The "
                "comparison baseline of Tables I/II — it survives the "
                "array/ripple-carry designs but blows up on tree "
                "accumulators, hence its high scheduling cost rank. Same "
                "budget keys and capability flags as the other "
                "membership-testing backends (monomial_budget, "
                "time_budget_s, vanishing_cache_limit, "
                "counterexample_tries).",
    supports_counterexample=True, supports_stats=True, certifiable=True,
    cost_rank=4,
    budget_keys=_ALGEBRAIC_BUDGETS,
    degrades_to=("sat-cec",)))

register(BackendSpec(
    name="mt-naive", kind="algebraic",
    description="Membership testing on the raw gate-level Gröbner basis: "
                "no rewriting at all, the specification is divided "
                "directly by one polynomial per gate. Exists to "
                "demonstrate the intermediate-remainder blow-up that "
                "motivates rewriting (the Section III adder observation), "
                "so it carries the highest scheduling cost rank and is "
                "expected to trip monomial_budget/time_budget_s into "
                "verdict=budget beyond small widths. Counterexamples and "
                "engine counters work as in the other algebraic backends.",
    supports_counterexample=True, supports_stats=True, certifiable=True,
    cost_rank=5,
    budget_keys=_ALGEBRAIC_BUDGETS,
    degrades_to=("sat-cec",)))

register(BackendSpec(
    name="mt-xor", kind="algebraic",
    description="XOR rewriting with the vanishing rule but without the "
                "common-rewriting pass — the Section IV-B ablation "
                "isolating how much of MT-LR's power comes from each "
                "rewriting stage. Scheduling-ranked just above mt-lr; "
                "honours the same budget keys (monomial_budget, "
                "time_budget_s, vanishing_cache_limit, "
                "counterexample_tries) and reports the same "
                "counterexamples and substitution-engine counters.",
    supports_counterexample=True, supports_stats=True, certifiable=True,
    cost_rank=1,
    budget_keys=_ALGEBRAIC_BUDGETS,
    degrades_to=("sat-cec",)))

register(BackendSpec(
    name="sat-cec", kind="sat",
    description="The conventional-CEC stand-in: a miter between the "
                "circuit under verification and a golden array multiplier "
                "of the same width, Tseitin-encoded and solved by the "
                "built-in CDCL solver. A satisfying assignment is a "
                "primary-input counterexample; UNSAT proves equivalence. "
                "Honours sat_conflict_budget (CDCL conflict cap) and "
                "time_budget_s, both reported as verdict=budget — the "
                "expected fate on wide multipliers, mirroring the paper's "
                "commercial-checker timeouts. Multiplier specification "
                "only; no substitution-engine counters.",
    supports_counterexample=True, supports_stats=False, cost_rank=2,
    budget_keys=("sat_conflict_budget", "time_budget_s")))

register(BackendSpec(
    name="bdd-cec", kind="bdd",
    description="The decision-diagram stand-in: every output bit is built "
                "into a shared ROBDD and compared against the word-level "
                "product specification; canonical form makes each "
                "comparison a pointer equality. Honours bdd_node_budget — "
                "multiplier BDDs grow exponentially with operand width, "
                "so the budget trips to verdict=budget well before wide "
                "circuits finish, like the paper's decision-diagram "
                "column. Multiplier specification only; reports the peak "
                "node count but no counterexamples (a differing BDD pair "
                "is not materialized into an assignment).",
    supports_counterexample=False, supports_stats=False, cost_rank=3,
    budget_keys=("bdd_node_budget",)))


# ---------------------------------------------------------------------------
# Paper-table column selections (declared here so no other module carries a
# hardcoded method list; validated against the registry at import time).
# ---------------------------------------------------------------------------

#: Baseline columns of Table I (simple-partial-product multipliers).
TABLE1_BASELINES: tuple[str, ...] = ("sat-cec", "bdd-cec")
#: Baseline columns of Table II (Booth multipliers; the paper reports no
#: decision-diagram column there, and the CPP stand-in is derived from
#: ``sat-cec`` with Booth support disabled).
TABLE2_BASELINES: tuple[str, ...] = ("sat-cec",)
#: The membership-testing comparison columns of Tables I/II.
COMPARISON_METHODS: tuple[str, ...] = ("mt-fo", "mt-lr")
#: The rewriting-ablation columns (Section IV-B).
ABLATION_METHODS: tuple[str, ...] = ("mt-fo", "mt-xor", "mt-lr")
#: The adder blow-up comparison (Section III observation).
ADDER_BLOWUP_METHODS: tuple[str, ...] = ("mt-naive", "mt-fo", "mt-lr")

for _name in (TABLE1_BASELINES + TABLE2_BASELINES + COMPARISON_METHODS
              + ABLATION_METHODS + ADDER_BLOWUP_METHODS):
    get_backend(_name)
for _spec in backends():
    for _name in _spec.degrades_to:
        get_backend(_name)
del _name, _spec

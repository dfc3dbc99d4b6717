"""The refutation probe: the simulation stage, run once the remainder outgrows
its specification.

On a request the simulation stage serves (``find_counterexample``, the
word-level ``"multiplier"`` or ``"adder"`` specification, no certificate),
the GB reduction hands the stage its remainder at the first step that
leaves it above :data:`~repro.verification.reduction.REFUTATION_PROBE_FACTOR`
times the specification's term count, when that bound is below the
monomial budget or there is no budget.  A mismatch ends the request as a
refutation by simulation, with no budget trip; otherwise the reduction
resumes from the same remainder.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

import repro.circuit.simulate  # noqa: F401 - the module the spies patch
import repro.verification.engine as engine
from repro.api.report import VerificationReport
from repro.api.request import Budgets, VerificationRequest
from repro.api.service import (
    GOLDEN_ARCHITECTURE,
    VerificationService,
    _golden_multiplier,
)
from repro.baselines.bdd.equivalence import bdd_equivalence_check
from repro.circuit.gates import GateType
from repro.circuit.mutate import Mutation, apply_mutation, list_mutations
from repro.errors import BlowUpError
from repro.generators.catalog import (
    TABLE1_ARCHITECTURES,
    TABLE2_ARCHITECTURES,
    architecture_names,
)
from repro.generators.multipliers import generate_multiplier
from repro.modeling.model import AlgebraicModel
from repro.modeling.spec import multiplier_specification
from repro.verification.reduction import (
    REFUTATION_PROBE_FACTOR,
    ReductionOptions,
    ReductionTrace,
    groebner_basis_reduction,
)
from repro.verification.rewriting import logic_reduction_rewriting
from repro.verification.vanishing import VanishingRules

_SIMULATE = sys.modules["repro.circuit.simulate"]

#: The masked mt-lr reports of all 50 catalog architectures at 4 and 8
#: bits with the counterexample search on, as the code before the probe
#: answered them (timings removed).
CATALOG_REPORTS_SHA256 = (
    "753c61121fc7981779ede9337bd273b6a038fc3eb18713d420d2286f94256655")

_TIMING = ("time", "time_s", "reduction_time_s", "rewrite_time_s")

#: A correct cell whose mt-xor remainder peaks at 3,113 terms, above the
#: probe's bound of 32 x 80 = 2,560 for an 8-bit multiplier.
PAST_THE_BOUND = ("BP-CT-HC", 8, "mt-xor")


@pytest.fixture()
def events(monkeypatch):
    """Record lane searches, budget trips, model builds and rewriting passes
    of the requests a test submits, in order."""
    log: list[str] = []
    input_lanes = _SIMULATE.input_lanes
    from_blowup = VerificationReport.__dict__["from_blowup"].__func__
    from_netlist = AlgebraicModel.__dict__["from_netlist"].__func__
    rewriting = engine.logic_reduction_rewriting

    def lanes(*args, **kwargs):
        log.append("lanes")
        return input_lanes(*args, **kwargs)

    def blowup(cls, *args, **kwargs):
        log.append("blowup")
        return from_blowup(cls, *args, **kwargs)

    def build(cls, *args, **kwargs):
        log.append("model")
        return from_netlist(cls, *args, **kwargs)

    def rewrite(*args, **kwargs):
        log.append("rewrite")
        return rewriting(*args, **kwargs)

    monkeypatch.setattr(_SIMULATE, "input_lanes", lanes)
    monkeypatch.setattr(VerificationReport, "from_blowup", classmethod(blowup))
    monkeypatch.setattr(AlgebraicModel, "from_netlist", classmethod(build))
    monkeypatch.setattr(engine, "logic_reduction_rewriting", rewrite)
    return log


def _masked(report: VerificationReport) -> dict:
    document = report.to_dict()
    for key in ("time", "time_s"):
        document.pop(key)
    document["counters"] = {key: value
                            for key, value in document["counters"].items()
                            if key not in _TIMING}
    return document


def test_correct_mt_lr_circuits_never_reach_the_probe(events):
    """All 50 catalog architectures at 4 and 8 bits: no lane search, and the
    reports of the code before the probe."""
    service = VerificationService()
    documents = [_masked(service.submit(VerificationRequest.from_architecture(
        architecture, width, "mt-lr", find_counterexample=True)))
        for width in (4, 8) for architecture in architecture_names()]
    assert len(documents) == 100
    assert "lanes" not in events and "blowup" not in events
    assert {document["verdict"] for document in documents} == {"verified"}
    serial = json.dumps(documents, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(serial).hexdigest() == CATALOG_REPORTS_SHA256


def test_sampled_8_bit_mutants_are_refuted_without_a_budget_trip(events):
    """One seeded mutant of each Table I/II architecture at 8 bits, under the
    benchmark's budget: every verdict is the BDD oracle's, and no
    refutation passes through a budget trip."""
    service = VerificationService()
    probed = 0
    for architecture in TABLE1_ARCHITECTURES + TABLE2_ARCHITECTURES:
        netlist = generate_multiplier(architecture, 8)
        [mutation] = random.Random(f"probe:{architecture}").sample(
            list_mutations(netlist), 1)
        mutant = apply_mutation(netlist, mutation)
        label = f"{architecture}-8 {mutation.key}"
        events.clear()
        report = service.submit(VerificationRequest.from_netlist(
            mutant, budgets=Budgets(monomial_budget=20_000)))
        oracle = bdd_equivalence_check(mutant, "multiply")
        assert report.verdict == ("verified" if oracle.equivalent
                                  else "refuted"), label
        assert "blowup" not in events, label
        if "simulated_vectors" in report.counters:
            probed += 1
            assert events.count("lanes") == 1, label
            assert report.counters == {"simulated_vectors": 4096}, label
            assert report.reason.startswith(
                f"GB reduction exceeded {REFUTATION_PROBE_FACTOR}x the "
                "specification's 80 terms at variable "), label
            assert report.remainder is None and report.specification is None
            assert report.cross_check["agrees"] is True, label
            assert report.cross_check["counterexample_confirmed"] is True
    assert probed > 0


@pytest.mark.parametrize("monomial_budget", [Budgets().monomial_budget, None])
def test_a_correct_cell_past_the_bound_is_searched_once_and_verified(
        events, monomial_budget):
    """The probe misses on a correct circuit, and the reduction resumes from
    the same remainder: one model build, one rewriting pass; with no
    monomial budget the cell pays the same one lane search."""
    architecture, width, method = PAST_THE_BOUND
    report = VerificationService().submit(VerificationRequest.from_architecture(
        architecture, width, method, find_counterexample=True,
        budgets=Budgets(monomial_budget=monomial_budget)))
    assert report.verdict == "verified"
    assert report.counters["peak_remainder"] > REFUTATION_PROBE_FACTOR * 80
    assert events == ["model", "rewrite", "lanes"]


def test_a_probe_that_missed_is_not_repeated_after_a_trip(events):
    """With one vector, the probe misses; the budget then trips, and the
    stage after the trip does not simulate the same vector again."""
    architecture, width, method = PAST_THE_BOUND
    report = VerificationService().submit(VerificationRequest.from_architecture(
        architecture, width, method, find_counterexample=True,
        budgets=Budgets(monomial_budget=3_000, counterexample_tries=1)))
    assert report.verdict == "budget"
    assert "monomial budget" in report.reason
    assert events == ["model", "rewrite", "lanes", "blowup"]


@pytest.mark.parametrize("monomial_budget", [2_000_000, None])
@pytest.mark.parametrize("architecture", ["BP-CT-HC", "SP-WT-HC"])
def test_a_probe_that_returns_resumes_from_the_same_remainder(
        architecture, monomial_budget):
    """A probe that misses leaves the remainder and the step counters as a
    run without a probe has them, under a budget or with none."""
    model = AlgebraicModel.from_netlist(generate_multiplier(architecture, 8))
    spec = multiplier_specification(model)
    rewritten = logic_reduction_rewriting(model, VanishingRules(model),
                                          apply_common=False)
    options = ReductionOptions(monomial_budget=monomial_budget,
                               coefficient_modulus=spec.modulus)
    reasons: list[str] = []
    plain, probed = ReductionTrace(), ReductionTrace()
    expected = groebner_basis_reduction(spec.polynomial, model,
                                        rewritten.tails, options, plain)
    remainder = groebner_basis_reduction(spec.polynomial, model,
                                         rewritten.tails, options, probed,
                                         probe=reasons.append)
    assert remainder == expected
    assert len(reasons) == 1
    assert reasons[0].endswith(f" > {REFUTATION_PROBE_FACTOR * 80})")
    for field in ("substitutions", "peak_monomials", "affected_terms",
                  "modulus_removed_terms", "batched_steps"):
        assert getattr(probed, field) == getattr(plain, field), field
    assert (plain.batches, probed.batches) == (1, 2)


def test_a_mutant_without_a_monomial_budget_is_refuted_by_the_probe(events):
    """A request that sends ``"monomial_budget": null`` still gets the
    probe: this 8-bit mutant's remainder grows without bound, and the lane
    search at the bound refutes it, which the SAT cross-check confirms."""
    mutant = apply_mutation(generate_multiplier("SP-WT-CL", 8), Mutation(
        "cla_p13_312", GateType.XOR, GateType.XNOR))
    report = VerificationService().submit(VerificationRequest.from_netlist(
        mutant, budgets=Budgets(monomial_budget=None)))
    assert report.verdict == "refuted"
    assert report.reason.startswith(
        f"GB reduction exceeded {REFUTATION_PROBE_FACTOR}x the "
        "specification's 80 terms at variable ")
    assert report.counters == {"simulated_vectors": 4096}
    assert report.cross_check["agrees"] is True
    assert report.cross_check["counterexample_confirmed"] is True
    assert events == ["model", "rewrite", "lanes"]


def test_no_probe_where_the_bound_reaches_the_budget():
    """At a budget at or below the bound, the probe is never called."""
    model = AlgebraicModel.from_netlist(generate_multiplier("SP-WT-HC", 8))
    spec = multiplier_specification(model)
    rewritten = logic_reduction_rewriting(model, VanishingRules(model),
                                          apply_common=False)

    def probe(reason: str) -> None:
        raise AssertionError("the probe ran")

    options = ReductionOptions(monomial_budget=REFUTATION_PROBE_FACTOR * 80,
                               coefficient_modulus=spec.modulus)
    with pytest.raises(BlowUpError, match="monomial budget"):
        groebner_basis_reduction(spec.polynomial, model, rewritten.tails,
                                 options, ReductionTrace(), probe=probe)


def test_the_golden_multiplier_is_generated_once_per_width(monkeypatch):
    """Two refutations and a SAT baseline run at one width share one golden
    netlist, and the refutations carry identical cross-checks."""
    import repro.generators.multipliers as multipliers
    generated: list[tuple] = []
    generate = multipliers.generate_multiplier

    def spy(architecture, width, *args, **kwargs):
        generated.append((architecture, width))
        return generate(architecture, width, *args, **kwargs)

    monkeypatch.setattr(multipliers, "generate_multiplier", spy)
    _golden_multiplier.cache_clear()
    netlist = generate("SP-AR-RC", 4)
    mutants = [apply_mutation(netlist, mutation)
               for mutation in list_mutations(netlist)[5:7]]
    service = VerificationService()
    reports = [service.submit(VerificationRequest.from_netlist(mutant))
               for mutant in mutants]
    assert [report.verdict for report in reports] == ["refuted", "refuted"]
    assert reports[0].cross_check == reports[1].cross_check == {
        "backend": "sat-cec", "status": "different", "agrees": True,
        "counterexample_confirmed": True, "conflicts": 0}
    sat = service.submit(VerificationRequest.from_netlist(
        mutants[0], method="sat-cec"))
    assert sat.verdict == "refuted"
    assert generated == [(GOLDEN_ARCHITECTURE, 4)]

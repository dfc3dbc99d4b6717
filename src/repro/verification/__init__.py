"""Verification engines: membership testing with rewriting and logic reduction.

The paper's pipeline, end to end: :func:`~repro.verification.engine.verify`
models the circuit (Step 1), rewrites the model with the method-specific
variable-keep rule (Step 2, :mod:`~repro.verification.rewriting` —
fanout rewriting for MT-FO, XOR + common rewriting with the XOR-AND
vanishing rule of :class:`~repro.verification.vanishing.VanishingRules`
for MT-LR), and divides the specification by the rewritten basis
(Step 3, :func:`~repro.verification.reduction.groebner_basis_reduction`).
The circuit is correct iff the remainder is zero; a non-zero remainder
yields a :class:`~repro.verification.result.VerificationResult` carrying
the rendered remainder and, when requested, a simulation-validated
counterexample.  Rewriting and reduction run on the one batch kernel of
:class:`~repro.algebra.substitution.SubstitutionEngine`; budget trips
raise :class:`~repro.errors.BlowUpError`, which the layers above report
as ``TO`` rows / ``verdict="budget"`` reports.  Budgets arrive as one
:class:`~repro.api.request.Budgets` bundle, the ``budgets`` argument of
:func:`~repro.verification.engine.verify`.
"""

from repro.verification.engine import verify, verify_multiplier, verify_adder
from repro.verification.result import VerificationResult, ModelStatistics
from repro.verification.reduction import groebner_basis_reduction, ReductionOptions
from repro.verification.rewriting import (
    RewriteStatistics,
    common_rewriting_variables,
    fanout_rewriting_variables,
    gb_rewrite,
    xor_rewriting_variables,
)
from repro.verification.vanishing import VanishingRules

__all__ = [
    "ModelStatistics",
    "ReductionOptions",
    "RewriteStatistics",
    "VanishingRules",
    "VerificationResult",
    "common_rewriting_variables",
    "fanout_rewriting_variables",
    "gb_rewrite",
    "groebner_basis_reduction",
    "verify",
    "verify_adder",
    "verify_multiplier",
    "xor_rewriting_variables",
]

"""Counter and trip-point pins for the regimes where the kernel switches.

The 4-bit certificate grid never grows a term map past a few hundred
terms, so it cannot tell whether the substitution kernel serves a step
from partition lists or from a scan.  These pins were recorded before the
kernel's four modes were folded into one batch step and must hold for any
choice of source:

* the ten Table I/II architectures at 16 bits under MT-LR, whose
  reduction remainders peak at 300–1,000 terms and are partitioned;
* MT-FO on three architectures whose reduction starts sparse and turns
  dense (partitioned, then scanned);
* four 8-bit single-gate mutants whose MT-LR reduction passes a
  20,000-monomial budget, switching from lists to scans on the way
  (all but the Booth one).

The vanishing-rule traffic of the XOR-rewriting pass (verdict-memo hits,
misses and final size, and CVM) is pinned for the same ten 16-bit MT-LR
runs and for three 32-bit ones.  Every miss is one call of the rule
itself.  The implied-literal tables behind the rule are a pure function
of the model, so building them eagerly or lazily, or indexing them
differently, must move none of these counters.
"""

from __future__ import annotations

import pytest

from repro.api.request import Budgets
from repro.circuit.gates import GateType
from repro.circuit.mutate import Mutation, apply_mutation
from repro.errors import BlowUpError
from repro.generators.multipliers import generate_multiplier
from repro.verification.engine import verify

#: Reduction ``[substitutions, affected terms, modulus-removed terms, peak]``
#: and, per rewriting pass, ``[scheme, steps, affected terms, rejections,
#: CVM, peak tail, kept variables]``.
CLEAN_RUNS = {
    ("SP-AR-RC", 16, "mt-lr"): (
        [1018, 1018, 4, 309],
        [["xor-rewriting", 484, 484, 0, 282, 2, 1092],
         ["common-rewriting", 74, 77, 0, 0, 8, 1018]]),
    ("SP-WT-CL", 16, "mt-lr"): (
        [1049, 1049, 22, 494],
        [["xor-rewriting", 648, 714, 0, 359, 5, 1130],
         ["common-rewriting", 81, 110, 1, 0, 23, 1049]]),
    ("SP-RT-KS", 16, "mt-lr"): (
        [1271, 1372, 20, 492],
        [["xor-rewriting", 1042, 1216, 0, 763, 11, 1354],
         ["common-rewriting", 83, 101, 0, 0, 32, 1271]]),
    ("SP-CT-BK", 16, "mt-lr"): (
        [1272, 1280, 4, 492],
        [["xor-rewriting", 641, 680, 0, 339, 9, 1354],
         ["common-rewriting", 82, 99, 0, 0, 8, 1272]]),
    ("SP-DT-HC", 16, "mt-lr"): (
        [946, 985, 0, 492],
        [["xor-rewriting", 762, 890, 0, 922, 17, 1000],
         ["common-rewriting", 54, 69, 0, 0, 5, 946]]),
    ("BP-AR-RC", 16, "mt-lr"): (
        [801, 1898, 210, 1019],
        [["xor-rewriting", 856, 856, 0, 425, 3, 1059],
         ["common-rewriting", 257, 428, 4, 0, 59, 802]]),
    ("BP-WT-CL", 16, "mt-lr"): (
        [785, 1882, 224, 1033],
        [["xor-rewriting", 1017, 1085, 0, 491, 5, 1033],
         ["common-rewriting", 247, 441, 4, 0, 63, 786]]),
    ("BP-RT-KS", 16, "mt-lr"): (
        [901, 2099, 160, 1037],
        [["xor-rewriting", 1390, 1632, 0, 1434, 17, 1143],
         ["common-rewriting", 241, 423, 7, 0, 47, 902]]),
    ("BP-CT-BK", 16, "mt-lr"): (
        [901, 2006, 178, 1037],
        [["xor-rewriting", 984, 1023, 0, 457, 17, 1143],
         ["common-rewriting", 241, 424, 6, 0, 53, 902]]),
    ("BP-DT-HC", 16, "mt-lr"): (
        [746, 1882, 147, 1030],
        [["xor-rewriting", 1120, 1244, 0, 1038, 17, 969],
         ["common-rewriting", 222, 405, 5, 0, 63, 747]]),
    ("SP-AR-RC", 6, "mt-fo"): (
        [160, 5294, 2, 2097],
        [["fanout-rewriting", 76, 140, 0, 0, 3, 160]]),
    ("SP-WT-CL", 5, "mt-fo"): (
        [108, 10188, 1736, 2097],
        [["fanout-rewriting", 83, 146, 0, 0, 31, 108]]),
    ("BP-WT-CL", 6, "mt-fo"): (
        [153, 16716, 986, 2284],
        [["fanout-rewriting", 198, 365, 0, 0, 31, 153]]),
}

#: XOR-rewriting pass of the 16-bit MT-LR runs: ``[vanishing cache hits,
#: cache misses (rule calls), final cache size, CVM]``.
VANISHING_TRAFFIC = {
    "SP-AR-RC": [896, 714, 1719, 282],
    "SP-WT-CL": [855, 965, 1940, 359],
    "SP-RT-KS": [1396, 2147, 3464, 763],
    "SP-CT-BK": [990, 1107, 2352, 339],
    "SP-DT-HC": [1080, 1823, 2662, 922],
    "BP-AR-RC": [1142, 1320, 2631, 425],
    "BP-WT-CL": [1201, 1613, 2894, 491],
    "BP-RT-KS": [1878, 3425, 4905, 1434],
    "BP-CT-BK": [1290, 1708, 3116, 457],
    "BP-DT-HC": [1466, 2483, 3695, 1038],
}

#: The same counters at 32 bits.
VANISHING_TRAFFIC_32 = {
    "SP-AR-RC": [3824, 2954, 6999, 1066],
    "SP-WT-CL": [3174, 3234, 7000, 1224],
    "BP-WT-CL": [4404, 5557, 10296, 1609],
}

#: ``(architecture, gate, original, mutated)`` -> (trip variable, monomials).
BUDGET_TRIPS = {
    ("SP-AR-RC", "ar5_9_t_282", "and", "xor"): ("ar1_6_c_142", 20173),
    ("SP-AR-RC", "ar4_8_g_259", "and", "nand"): ("ar0_6_c_90", 26125),
    ("SP-WT-CL", "and_417", "and", "or"): ("wt2_7_c_234", 27326),
    ("BP-WT-CL", "wt1_8_c_298", "or", "nor"): ("bpp0_b7_34", 31483),
}


@pytest.mark.parametrize("arch, width, method", sorted(CLEAN_RUNS))
def test_clean_run_counters(arch, width, method):
    result = verify(generate_multiplier(arch, width), method=method,
                    find_counterexample=False)
    assert result.verified
    trace = result.reduction_trace
    reduction = [trace.substitutions, trace.affected_terms,
                 trace.modulus_removed_terms, trace.peak_monomials]
    passes = [[stats.scheme, stats.substitution_steps, stats.affected_terms,
               stats.rejected_substitutions,
               stats.cancelled_vanishing_monomials, stats.peak_tail_terms,
               stats.kept_variables]
              for stats in result.rewrite_statistics]
    assert (reduction, passes) == CLEAN_RUNS[arch, width, method]


def _xor_pass_traffic(arch, width):
    result = verify(generate_multiplier(arch, width), method="mt-lr",
                    find_counterexample=False)
    stats = result.rewrite_statistics[0]
    assert stats.scheme == "xor-rewriting"
    assert stats.vanishing_cache_resets == 0
    return [stats.vanishing_cache_hits, stats.vanishing_cache_misses,
            stats.vanishing_cache_size, stats.cancelled_vanishing_monomials]


@pytest.mark.parametrize("arch", sorted(VANISHING_TRAFFIC))
def test_vanishing_rule_traffic(arch):
    assert _xor_pass_traffic(arch, 16) == VANISHING_TRAFFIC[arch]


@pytest.mark.parametrize("arch", sorted(VANISHING_TRAFFIC_32))
def test_vanishing_rule_traffic_at_32_bits(arch):
    assert _xor_pass_traffic(arch, 32) == VANISHING_TRAFFIC_32[arch]


@pytest.mark.parametrize("arch, signal, original, mutated",
                         sorted(BUDGET_TRIPS))
def test_budget_trip_points(arch, signal, original, mutated):
    netlist = apply_mutation(generate_multiplier(arch, 8),
                             Mutation(signal, GateType(original),
                                      GateType(mutated)))
    with pytest.raises(BlowUpError) as excinfo:
        verify(netlist, method="mt-lr",
               budgets=Budgets(monomial_budget=20_000),
               find_counterexample=False)
    variable, monomials = BUDGET_TRIPS[arch, signal, original, mutated]
    assert str(excinfo.value) == (
        f"GB reduction exceeded the monomial budget at variable "
        f"{variable!r} ({monomials} > 20000)")
    assert excinfo.value.monomials == monomials

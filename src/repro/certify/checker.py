"""Independent certificate checker.

Deliberately minimal trusted base: this module imports only the algebra
primitive (:class:`~repro.algebra.polynomial.Polynomial`) plus the shared
error type — no verification engine, no vanishing tables, no netlist or
model code.  It re-derives every claim in a certificate from scratch:

1. **hash** — the content hash matches the canonical body serialization.
2. **structure** — required keys, types, and variable-index ranges.
3. **order** — every tail references only lower-indexed variables and no
   primary input owns a tail (acyclicity by construction).
4. **schedule** — the substitution schedule is an exact permutation of
   the model's lead variables (a dropped or duplicated step is reported
   with its index).
5. **vanishing** — each recorded cancellation replays to the exact zero
   polynomial through its cone of gate tails.
6. **model** — the rewritten model agrees with the gate-level circuit on
   every primary-input assignment (exhaustive up to 12 inputs, otherwise
   64 deterministic samples derived from the netlist hash), evaluated
   bit-parallel over all assignments at once with the one-assignment loop
   as reference and error path.
7. **replay** — substituting the schedule into the specification
   polynomial reproduces the recorded remainder (coefficients compared
   modulo the ring modulus, which the engine may apply at different
   points of the reduction).
8. **remainder/verdict** — the remainder mentions only primary inputs
   and is zero exactly when the verdict claims ``verified``.

Any violation raises :class:`~repro.errors.CertificateError` carrying the
stage name and, where meaningful, the 0-based step index.
"""

from __future__ import annotations

import hashlib
import json

from repro.algebra.polynomial import Polynomial
from repro.errors import CertificateError

#: Guard on intermediate replay size (far above any honest certificate).
REPLAY_TERM_LIMIT = 2_000_000

#: Widest lane, in bits per assignment, of the bit-parallel model check.
#: Honest certificates need at most 10; a certificate that would need more
#: (a hostile coefficient) is checked by the scalar loop instead, so it
#: cannot inflate the packed integers.
LANE_WIDTH_LIMIT = 64

#: The model stage is exhaustive up to this many primary inputs and
#: otherwise checks ``_SAMPLES`` assignments derived from the netlist hash.
_EXHAUSTIVE_INPUTS = 12
_SAMPLES = 64

_REQUIRED = {"method": str, "circuit": str, "specification": str,
             "verdict": str, "netlist_sha256": str, "variables": list,
             "inputs": list, "outputs": list, "gates": list, "model": list,
             "schedule": list, "spec_terms": list, "remainder": list,
             "vanishing": list}


def _fail(message: str, stage: str, step: int | None = None) -> None:
    raise CertificateError(message, stage=stage, step=step)


def _is_int(value) -> bool:
    """A JSON integer: ``true``/``false`` decode to ``bool``, which is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_terms(encoded, what: str, num_vars: int) -> dict[int, int]:
    terms: dict[int, int] = {}
    for entry in encoded:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], int) or isinstance(entry[0], bool)
                or not isinstance(entry[1], int) or isinstance(entry[1], bool)):
            _fail(f"{what}: malformed term entry {entry!r}", "structure")
        mask, coeff = entry
        if mask < 0 or mask >> num_vars:
            _fail(f"{what}: mask {mask:#x} outside the variable table",
                  "structure")
        if coeff == 0 or mask in terms:
            _fail(f"{what}: zero coefficient or duplicate mask {mask:#x}",
                  "structure")
        terms[mask] = coeff
    return terms


def _decode_tails(encoded, what: str, num_vars: int,
                  input_mask: int) -> dict[int, Polynomial]:
    tails: dict[int, Polynomial] = {}
    for entry in encoded:
        if not isinstance(entry, list) or len(entry) != 2 \
                or not _is_int(entry[0]) or not isinstance(entry[1], list):
            _fail(f"{what}: malformed tail entry", "structure")
        var, terms = entry
        if var < 0 or var >= num_vars or var in tails:
            _fail(f"{what}: bad or duplicate lead variable {var}", "structure")
        if (1 << var) & input_mask:
            _fail(f"{what}: primary input {var} owns a tail", "order")
        poly = Polynomial.from_term_masks(_decode_terms(terms, what, num_vars))
        if poly.support_mask() >> var:
            _fail(f"{what}: tail of variable {var} references a "
                  "not-lower-indexed variable", "order")
        tails[var] = poly
    return tails


def _normalized(poly: Polynomial, modulus: int | None) -> dict[int, int]:
    if modulus is None:
        return dict(poly.term_masks())
    return {mask: coeff % modulus for mask, coeff in poly.term_masks()
            if coeff % modulus}


def _sample_assignments(inputs: list[int], seed: str, count: int):
    """``count`` deterministic assignments derived from the netlist hash."""
    for index in range(count):
        bits = b""
        block = 0
        while len(bits) * 8 < len(inputs):
            bits += hashlib.sha256(
                f"{seed}:{index}:{block}".encode("utf-8")).digest()
            block += 1
        word = int.from_bytes(bits, "big")
        yield {var: (word >> position) & 1
               for position, var in enumerate(inputs)}


def _ones(count: int, width: int) -> int:
    """``count`` lanes of ``width`` bits holding 1 each (``count`` a power of 2)."""
    ones, filled = 1, 1
    while filled < count:
        ones |= ones << (filled * width)
        filled *= 2
    return ones


def _exhaustive_lanes(inputs: list[int], width: int) -> tuple[dict[int, int], int]:
    """Packed inputs of all ``2^len(inputs)`` assignments, plus the all-ones int.

    Lane ``i`` holds assignment ``i`` of the scalar loop: the input at
    position ``p`` is bit ``p`` of ``i``, so its lanes repeat a period of
    ``2^p`` zeros and ``2^p`` ones, built by doubling.
    """
    total = 1 << len(inputs)
    lanes: dict[int, int] = {}
    for position, var in enumerate(inputs):
        run = 1 << position
        pattern = _ones(run, width) << (run * width)
        period = 2 * run
        while period < total:
            pattern |= pattern << (period * width)
            period *= 2
        lanes[var] = pattern
    return lanes, _ones(total, width)


def _sampled_lanes(inputs: list[int], seed: str,
                   width: int) -> tuple[dict[int, int], int]:
    """Packed inputs of the ``_SAMPLES`` sampled assignments, plus the all-ones int."""
    lanes = dict.fromkeys(inputs, 0)
    for index, assignment in enumerate(
            _sample_assignments(inputs, seed, _SAMPLES)):
        for var, bit in assignment.items():
            if bit:
                lanes[var] |= 1 << (index * width)
    return lanes, _ones(_SAMPLES, width)


def _lane_width(tails) -> int:
    """Smallest lane width ``w >= 3`` with ``2^(w-2) >= max sum |coeff|``."""
    bound = max((sum(abs(coeff) for _, coeff in tail.term_masks())
                 for tail in tails), default=0)
    return max(3, (bound - 1).bit_length() + 2)


def _lane_sum(tail: Polynomial, values: dict[int, int], ones: int,
              bias: int) -> int:
    """``tail`` in every lane at once, on top of ``bias`` per lane."""
    total = bias
    for mask, coeff in tail.term_masks():
        indicator = ones
        while mask and indicator:
            low = mask & -mask
            indicator &= values[low.bit_length() - 1]
            mask ^= low
        total += coeff * indicator
    return total


def _lanes_agree(lanes: dict[int, int], ones: int, width: int,
                 gates: dict[int, Polynomial], model: dict[int, Polynomial],
                 schedule: list[int]) -> bool:
    """Bit-parallel model check: every packed assignment at once.

    ``lanes`` packs each primary input into one int: lane ``i``, the bits
    from ``i * width`` up, holds the input's value under assignment ``i``.
    A monomial's lane indicator is the AND of its variables' ints (the
    all-lanes-one int ``ones`` for the constant monomial), and a tail's
    value is the sum of ``coeff * indicator`` on top of a bias of
    ``2^(width-2)`` per lane.  ``width`` must satisfy ``2^(width-2) >=
    sum |coeff|`` for every tail (see :func:`_lane_width`), so every lane
    stays within ``[0, 2^(width-1)]`` and never borrows from or carries
    into its neighbour.  A gate is Boolean in every lane exactly when
    ``sum XOR bias`` has no bit outside lane bit 0; that int is then the
    gate's packed value.  A model tail agrees in every lane exactly when
    ``sum == bias + value``.  Returns ``False`` on the first violation,
    without saying where: :func:`_check_model_scalar` does that.
    """
    bias = ones << (width - 2)
    values = dict(lanes)
    for var in sorted(gates):
        value = _lane_sum(gates[var], values, ones, bias) ^ bias
        if value & ones != value:
            return False
        values[var] = value
    return all(_lane_sum(model[var], values, ones, bias) == bias + values[var]
               for var in schedule)


def _check_model_scalar(assignments, gates: dict[int, Polynomial],
                        model: dict[int, Polynomial],
                        schedule: list[int]) -> None:
    """The reference model check, one assignment at a time.

    Raises the stage-``model`` error of the first failure in assignment
    order: a gate outside the Boolean domain, else the first schedule
    step whose model polynomial disagrees with the circuit.
    """
    order = sorted(gates)
    for assignment in assignments:
        values = dict(assignment)
        for var in order:
            value = gates[var].evaluate(values)
            if value not in (0, 1):
                _fail(f"gate {var} evaluates outside the Boolean domain",
                      "model")
            values[var] = value
        for step, var in enumerate(schedule):
            if model[var].evaluate(values) != values[var]:
                _fail(f"model polynomial of variable {var} disagrees with "
                      f"the circuit (schedule step {step})", "model", step)


def _check_model(inputs: list[int], seed: str, gates: dict[int, Polynomial],
                 model: dict[int, Polynomial], schedule: list[int]) -> str:
    """Stage model: return the mode, or raise the scalar loop's first failure.

    The bit-parallel check decides acceptance.  The scalar loop runs in two
    cases: when the lanes find a violation, so the error names exactly the
    first failure in assignment order (if the loop then passes, the two
    kernels disagree and the certificate is rejected rather than
    accepted); and when a lane would be wider than
    :data:`LANE_WIDTH_LIMIT` bits.
    """
    exhaustive = len(inputs) <= _EXHAUSTIVE_INPUTS
    mode = "exhaustive" if exhaustive else "sampled"
    width = _lane_width([*gates.values(), *model.values()])
    packed = width <= LANE_WIDTH_LIMIT
    if packed:
        lanes, ones = (_exhaustive_lanes(inputs, width) if exhaustive
                       else _sampled_lanes(inputs, seed, width))
        if _lanes_agree(lanes, ones, width, gates, model, schedule):
            return mode
    if exhaustive:
        assignments = ({var: (index >> position) & 1
                        for position, var in enumerate(inputs)}
                       for index in range(1 << len(inputs)))
    else:
        assignments = _sample_assignments(inputs, seed, _SAMPLES)
    _check_model_scalar(assignments, gates, model, schedule)
    if packed:
        _fail("bit-parallel and scalar model evaluation disagree", "model")
    return mode


def check_certificate(document: dict) -> dict:
    """Check one certificate document; raise ``CertificateError`` on failure.

    Returns a small summary dict (verdict, hash, step and rule counts,
    model-check mode) for reporting; the return value carries no trust —
    a certificate is valid iff this function does not raise.
    """
    if not isinstance(document, dict) or document.get("format") != "repro-certificate":
        _fail("not a repro-certificate document", "structure")
    if document.get("version") != 1:
        _fail(f"unsupported certificate version {document.get('version')!r}",
              "structure")
    body = document.get("body")
    if not isinstance(body, dict):
        _fail("certificate body must be a JSON object", "structure")
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if document.get("sha256") != digest:
        _fail("content hash mismatch: certificate body was altered", "hash")

    for key, kind in _REQUIRED.items():
        if not isinstance(body.get(key), kind):
            _fail(f"missing or mistyped body key {key!r}", "structure")
    modulus = body.get("modulus")
    if modulus is not None and (not isinstance(modulus, int) or modulus < 2):
        _fail(f"bad modulus {modulus!r}", "structure")
    if body["verdict"] not in ("verified", "refuted"):
        _fail(f"unknown verdict {body['verdict']!r}", "structure")
    num_vars = len(body["variables"])
    inputs = body["inputs"]
    if not all(_is_int(var) and 0 <= var < num_vars for var in inputs):
        _fail("inputs outside the variable table", "structure")
    input_mask = 0
    for var in inputs:
        input_mask |= 1 << var

    gates = _decode_tails(body["gates"], "gates", num_vars, input_mask)
    model = _decode_tails(body["model"], "model", num_vars, input_mask)
    spec = Polynomial.from_term_masks(
        _decode_terms(body["spec_terms"], "spec_terms", num_vars))
    remainder = Polynomial.from_term_masks(
        _decode_terms(body["remainder"], "remainder", num_vars))
    if set(inputs) | set(gates) != set(range(num_vars)):
        _fail("variables are neither inputs nor gate outputs", "structure")
    if not set(model) <= set(gates):
        _fail("model lead variables are not gate outputs", "structure")

    # Stage: schedule — exact permutation of the model leads.
    schedule = body["schedule"]
    seen: set[int] = set()
    for step, var in enumerate(schedule):
        if not _is_int(var) or var not in model:
            _fail(f"schedule step {step} names {var!r}, which has no model "
                  "polynomial", "schedule", step)
        if var in seen:
            _fail(f"schedule step {step} substitutes variable {var} twice",
                  "schedule", step)
        seen.add(var)
    if seen != set(model):
        missing = sorted(set(model) - seen)
        _fail(f"schedule omits model variables {missing} "
              f"(step {len(schedule)} missing)", "schedule", len(schedule))

    # Stage: vanishing — each cancellation replays to exactly zero.
    for step, entry in enumerate(body["vanishing"]):
        if not isinstance(entry, list) or len(entry) != 2:
            _fail(f"vanishing rule {step} is malformed", "vanishing", step)
        mask, cone = entry
        if not _is_int(mask) or mask < 0 or mask >> num_vars \
                or not isinstance(cone, list) \
                or not all(_is_int(var) for var in cone):
            _fail(f"vanishing rule {step} is malformed", "vanishing", step)
        poly = Polynomial.from_term_masks({mask: 1})
        for var in sorted(set(cone), reverse=True):
            if var not in gates:
                _fail(f"vanishing rule {step} cites non-gate variable {var}",
                      "vanishing", step)
            poly = poly.substitute(var, gates[var])
            if poly.num_terms > REPLAY_TERM_LIMIT:
                _fail(f"vanishing rule {step} blew past the replay guard",
                      "vanishing", step)
        if not poly.is_zero:
            _fail(f"vanishing rule {step} (mask {mask:#x}) does not expand "
                  "to zero", "vanishing", step)

    # Stage: model — gate circuit and rewritten model agree pointwise.
    mode = _check_model(inputs, body["netlist_sha256"], gates, model,
                        schedule)

    # Stage: replay — the schedule reproduces the recorded remainder.
    replayed = spec
    if modulus is not None:
        replayed = replayed.drop_coefficient_multiples(modulus)
    for step, var in enumerate(schedule):
        replayed = replayed.substitute(var, model[var], modulus)
        if replayed.num_terms > REPLAY_TERM_LIMIT:
            _fail(f"replay blew past {REPLAY_TERM_LIMIT} terms at step {step}",
                  "replay", step)
    if _normalized(replayed, modulus) != _normalized(remainder, modulus):
        _fail("replayed remainder disagrees with the recorded remainder",
              "replay", len(schedule))

    # Stage: remainder/verdict — the remainder decides the claim.
    if remainder.support_mask() & ~input_mask:
        _fail("remainder mentions non-input variables", "remainder")
    is_zero = not _normalized(remainder, modulus)
    if is_zero != (body["verdict"] == "verified"):
        _fail(f"verdict {body['verdict']!r} contradicts the remainder",
              "verdict")
    return {"verdict": body["verdict"], "sha256": document["sha256"],
            "steps": len(schedule), "vanishing_rules": len(body["vanishing"]),
            "model_check": mode, "circuit": body["circuit"],
            "method": body["method"]}

"""Span recording around the program's layer boundaries, for traced runs.

Nothing here changes the program: :func:`install` replaces the public
functions of each layer, in every ``repro`` module that bound them, with
wrappers that record a span (name, start, end, parent span, request id,
and a few counts read off the call's arguments or result).  Spans stay in
memory until the run ends.

Per-layer metrics are computed from the spans of the timed requests
only.  A span's *self time* is its duration minus the part of it that
its child spans cover.  Pool workers of the batch runner are forked
processes whose spans are not collected; their share comes from the job
times the runner already returns on each row, and the parent records the
interval from handing a job to a worker until its row comes back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER = (
    ("generators.self_ms", "ms"),
    ("modeling.self_ms", "ms"),
    ("circuit.verilog.parse_ms", "ms"),
    ("circuit.verilog.bytes", "bytes"),
    ("verification.rewriting.self_ms", "ms"),
    ("verification.rewriting.vanishing_hit_ratio", "ratio"),
    ("verification.rewriting.cvm", "count"),
    ("verification.reduction.self_ms", "ms"),
    ("verification.reduction.substitutions", "count"),
    ("verification.reduction.peak_monomials", "count"),
    ("verification.reduction.budget_trips", "count"),
    ("verification.reduction.wasted_ms", "ms"),
    ("verification.engine.self_ms", "ms"),
    ("circuit.simulate.self_ms", "ms"),
    ("baselines.sat.self_ms", "ms"),
    ("baselines.sat.conflicts", "count"),
    ("certify.certificate.self_ms", "ms"),
    ("certify.certificate.bytes", "bytes"),
    ("certify.checker.self_ms", "ms"),
    ("experiments.runner.cache_key_ms", "ms"),
    ("experiments.runner.cache_get_ms", "ms"),
    ("experiments.runner.cache_put_ms", "ms"),
    ("experiments.runner.hit_share", "ratio"),
    ("experiments.runner.dispatch_ms", "ms"),
    ("experiments.runner.executed", "count"),
    ("api.service.self_ms", "ms"),
    ("api.report.self_ms", "ms"),
    ("api.report.bytes", "bytes"),
    ("server.handler_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("setup.import_ms", "ms"),
)

#: Span name -> the metric its self time adds to.
SELF_TIME_METRICS = {
    "generators": "generators.self_ms",
    "modeling": "modeling.self_ms",
    "circuit.verilog.parse": "circuit.verilog.parse_ms",
    "verification.rewriting": "verification.rewriting.self_ms",
    "verification.reduction": "verification.reduction.self_ms",
    "verification.engine": "verification.engine.self_ms",
    "circuit.simulate": "circuit.simulate.self_ms",
    "baselines.sat": "baselines.sat.self_ms",
    "certify.certificate": "certify.certificate.self_ms",
    "certify.checker": "certify.checker.self_ms",
    "experiments.runner.cache_key": "experiments.runner.cache_key_ms",
    "experiments.runner.cache_get": "experiments.runner.cache_get_ms",
    "experiments.runner.cache_put": "experiments.runner.cache_put_ms",
    "experiments.runner.run": "experiments.runner.dispatch_ms",
    "api.service": "api.service.self_ms",
    "api.report": "api.report.self_ms",
    "server.handler": "server.handler_ms",
}

POOL_JOB = "experiments.runner.pool_job"


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
            local.pool = None
        return local

    def set_request(self, request_id) -> None:
        """Attribute the calling thread's next spans to ``request_id``."""
        self._state().request = request_id

    def wrap(self, name: str, func, extra=None, on_error=None):
        """``func`` recording a span.

        ``extra(args, kwargs, result)`` adds counts to the span of a call
        that returns, ``on_error(args, kwargs, error)`` to one that raises.
        """
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            record = [name, recorder.clock(), None,
                      state.stack[-1] if state.stack else None, state.request, None]
            recorder.spans.append(record)
            state.stack.append(record)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                counts = on_error(args, kwargs, error) if on_error is not None else {}
                record[5] = {**counts, "error": type(error).__name__}
                raise
            finally:
                record[2] = recorder.clock()
                state.stack.pop()
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def export(self) -> list[list]:
        """Spans as ``[name, start, end, parent index, request id, extra]``."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        return [[name, start, end, index.get(id(parent)), request, extra]
                for name, start, end, parent, request, extra in self.spans]


def _replace_everywhere(module_name: str, attribute: str, wrapper) -> None:
    """Rebind a function in every loaded ``repro`` module that imported it."""
    original = getattr(sys.modules[module_name], attribute)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, attribute, None) is original):
            setattr(module, attribute, wrapper)


def _rewriting_counts(args, kwargs, rewritten) -> dict:
    hits = sum(stats.vanishing_cache_hits for stats in rewritten.statistics)
    misses = sum(stats.vanishing_cache_misses for stats in rewritten.statistics)
    return {"hits": hits, "misses": misses,
            "cvm": rewritten.cancelled_vanishing_monomials}


def _reduction_counts(args, kwargs, outcome) -> dict:
    """Counts off the trace argument, also of a reduction that hit its budget."""
    trace = args[4] if len(args) > 4 else kwargs.get("trace")
    if trace is None:
        return {}
    peak = trace.peak_monomials
    if isinstance(outcome, BaseException):
        # A BlowUpError carries the size of the step that tripped the budget.
        peak = max(peak, getattr(outcome, "monomials", None) or 0)
    return {"substitutions": trace.substitutions, "peak": peak}


def install(recorder: Recorder, server: bool = False) -> None:
    """Wrap every traced layer of the program (and the app, with ``server``)."""
    import repro.api.report
    import repro.api.service
    import repro.baselines.sat.miter
    import repro.certify
    import repro.circuit.simulate
    import repro.circuit.verilog
    import repro.experiments.runner
    import repro.generators.multipliers
    import repro.modeling.model
    import repro.verification.engine
    import repro.verification.reduction
    import repro.verification.rewriting

    functions = (
        ("repro.generators.multipliers", "generate_multiplier", "generators", None),
        ("repro.circuit.verilog", "parse_verilog", "circuit.verilog.parse",
         lambda args, kwargs, result: {"bytes": len(args[0])}),
        ("repro.verification.engine", "verify", "verification.engine", None),
        ("repro.verification.rewriting", "logic_reduction_rewriting",
         "verification.rewriting", _rewriting_counts),
        ("repro.circuit.simulate", "simulate", "circuit.simulate", None),
        ("repro.baselines.sat.miter", "sat_equivalence_check", "baselines.sat",
         lambda args, kwargs, result: {"conflicts": result.conflicts}),
        ("repro.certify.certificate", "build_certificate", "certify.certificate", None),
        ("repro.certify.checker", "check_certificate", "certify.checker", None),
    )
    for module_name, attribute, span, extra in functions:
        original = getattr(sys.modules[module_name], attribute)
        _replace_everywhere(module_name, attribute,
                            recorder.wrap(span, original, extra))
    # A reduction that trips its budget has counted its steps before raising.
    _replace_everywhere("repro.verification.reduction", "groebner_basis_reduction",
                        recorder.wrap("verification.reduction",
                                      repro.verification.reduction.groebner_basis_reduction,
                                      _reduction_counts, on_error=_reduction_counts))

    model = repro.modeling.model.AlgebraicModel
    model.from_netlist = classmethod(recorder.wrap(
        "modeling", model.__dict__["from_netlist"].__func__))

    service = repro.api.service.VerificationService
    for method in ("submit", "run_batch"):
        setattr(service, method, recorder.wrap("api.service", getattr(service, method)))

    report = repro.api.report.VerificationReport
    report.to_json = recorder.wrap(
        "api.report", report.to_json,
        lambda args, kwargs, result: {"bytes": len(result)})
    report.to_dict = recorder.wrap("api.report", report.to_dict)
    report.from_dict = classmethod(recorder.wrap(
        "api.report", report.__dict__["from_dict"].__func__))

    runner = repro.experiments.runner
    cache = runner.ResultCache
    cache.key = recorder.wrap("experiments.runner.cache_key", cache.key)
    cache.get = recorder.wrap("experiments.runner.cache_get", cache.get,
                              lambda args, kwargs, row: {"hit": row is not None})
    cache.put = recorder.wrap("experiments.runner.cache_put", cache.put)
    _wrap_pool(recorder, runner)

    if server:
        import repro.server.app

        app = repro.server.app.VerificationServerApp
        handle = recorder.wrap("server.handler", app.handle,
                               lambda args, kwargs, response: {"bytes": len(response.body)})
        # The benchmark is the only client and sends one request at a time,
        # so arrival order numbers the requests.
        request_ids = itertools.count()

        def handle_request(self, *args, **kwargs):
            recorder.set_request(next(request_ids))
            try:
                return handle(self, *args, **kwargs)
            finally:
                recorder.set_request(None)

        app.handle = handle_request


def _wrap_pool(recorder: Recorder, runner) -> None:
    """Span ``ParallelRunner.run`` plus one interval per pool job it hands out."""
    original_run = runner.ParallelRunner.run
    original_assign = runner._PoolWorker.assign

    def assign(self, token, job, task_timeout_s):
        state = recorder._state()
        if state.pool is not None:
            state.pool[id(job)] = recorder.clock()
        return original_assign(self, token, job, task_timeout_s)

    def run(self, jobs, on_result=None):
        state = recorder._state()
        starts: dict[int, float] = {}

        def delivered(job, row):
            start = starts.pop(id(job), None)
            if start is not None:
                recorder.spans.append([POOL_JOB, start, recorder.clock(), record,
                                       state.request, {
                                           "rewrite_ms": 1000 * row.get("rewrite_time_s", 0.0),
                                           "reduction_ms": 1000 * row.get("reduction_time_s", 0.0),
                                           "cvm": row.get("cancelled_vanishing_monomials", 0),
                                           "peak": row.get("peak_remainder", 0)}])
            if on_result is not None:
                on_result(job, row)

        record = ["experiments.runner.run", recorder.clock(), None,
                  state.stack[-1] if state.stack else None, state.request, None]
        recorder.spans.append(record)
        state.stack.append(record)
        previous, state.pool = state.pool, starts
        try:
            return original_run(self, jobs, on_result=delivered)
        finally:
            state.pool = previous
            state.stack.pop()
            record[2] = recorder.clock()
            record[5] = {"executed": self.last_executed, "hits": self.last_cache_hits}

    runner._PoolWorker.assign = assign
    runner.ParallelRunner.run = run


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = None
    for low, high in sorted(intervals):
        if end is None or low > end:
            total += high - low
            end = high
        elif high > end:
            total += high - end
            end = high
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time (seconds) of every exported span."""
    children: dict[int, list[int]] = defaultdict(list)
    for position, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(position)
    result = []
    for position, (_, start, end, _, _, _) in enumerate(spans):
        inner = [(max(spans[child][1], start), min(spans[child][2], end))
                 for child in children.get(position, ())]
        inner = [(low, high) for low, high in inner if high > low]
        result.append(max(0.0, (end - start) - _covered(inner)))
    return result


def layer_metrics(spans: list[list], requests: dict, import_ms: float) -> dict:
    """Per-layer metrics over the timed requests.

    ``requests`` maps each timed request id to ``{"latency_ms", "verdict",
    "certificate_bytes"}`` as the benchmark measured them; for requests
    sent over HTTP it also carries ``"http": True``.  Returns
    ``{metric: {"value", "unit", "requests"}}`` plus, under ``None``, the
    share of end-to-end latency that no span covers.
    """
    values: dict[str, float] = defaultdict(float)
    touched: dict[str, set] = defaultdict(set)
    selfs = self_times(spans)
    hits = misses = gets = cache_hits = 0
    handler_ms: dict = defaultdict(float)
    by_request: dict = defaultdict(list)

    def add(metric: str, amount: float, request) -> None:
        values[metric] += amount
        if amount:
            touched[metric].add(request)

    for position, span in enumerate(spans):
        name, start, end, _, request, extra = span
        if request not in requests:
            continue
        extra = extra or {}
        by_request[request].append((start, end))
        metric = SELF_TIME_METRICS.get(name)
        if metric is not None:
            add(metric, 1000 * selfs[position], request)
        if name == "server.handler":
            handler_ms[request] += 1000 * (end - start)
            add("server.response_bytes", extra.get("bytes", 0), request)
        elif name == "circuit.verilog.parse":
            add("circuit.verilog.bytes", extra.get("bytes", 0), request)
        elif name == "verification.rewriting":
            hits += extra.get("hits", 0)
            misses += extra.get("misses", 0)
            if extra.get("hits") or extra.get("misses"):
                touched["verification.rewriting.vanishing_hit_ratio"].add(request)
            add("verification.rewriting.cvm", extra.get("cvm", 0), request)
        elif name in ("verification.reduction", POOL_JOB):
            if name == POOL_JOB:
                add("verification.rewriting.self_ms", extra["rewrite_ms"], request)
                add("verification.reduction.self_ms", extra["reduction_ms"], request)
                add("verification.rewriting.cvm", extra["cvm"], request)
            else:
                add("verification.reduction.substitutions",
                    extra.get("substitutions", 0), request)
                if extra.get("error") == "BlowUpError":
                    add("verification.reduction.budget_trips", 1, request)
            values["verification.reduction.peak_monomials"] = max(
                values["verification.reduction.peak_monomials"], extra.get("peak", 0))
            touched["verification.reduction.peak_monomials"].add(request)
        elif name == "baselines.sat":
            add("baselines.sat.conflicts", extra.get("conflicts", 0), request)
        elif name == "api.report":
            add("api.report.bytes", extra.get("bytes", 0), request)
        elif name == "experiments.runner.cache_get":
            gets += 1
            cache_hits += bool(extra.get("hit"))
            touched["experiments.runner.hit_share"].add(request)
        elif name == "experiments.runner.run":
            add("experiments.runner.executed", extra.get("executed", 0), request)

    for request, outcome in requests.items():
        if outcome["verdict"] == "budget":
            add("verification.reduction.wasted_ms", outcome["latency_ms"], request)
        add("certify.certificate.bytes", outcome.get("certificate_bytes", 0), request)
        if outcome.get("http"):
            add("server.transport_ms",
                max(0.0, outcome["latency_ms"] - handler_ms[request]), request)
    values["verification.rewriting.vanishing_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    values["experiments.runner.hit_share"] = cache_hits / gets if gets else 0.0
    values["setup.import_ms"] = import_ms
    touched["setup.import_ms"] = {"launch"}

    metrics = {name: {"value": values.get(name, 0.0), "unit": unit,
                      "requests": len(touched.get(name, ()))}
               for name, unit in PER_LAYER}
    latency = sum(outcome["latency_ms"] for outcome in requests.values())
    covered = sum(1000 * _covered(by_request[request]) for request in requests)
    metrics[None] = max(0.0, latency - covered) / latency if latency else 0.0
    return metrics

"""The repository's benchmark: four closed-loop workloads, timed from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide-verify --seed 1 --seconds 5 --trace 0

Workloads (one single client each; it sends a request only once the
previous one is answered, like the CI scripts and table runs that call
the system):

``wide-verify``
    In-process ``VerificationService.submit`` with mt-lr and no
    counterexample search on the ten Table I/II architectures at 16-25
    bits: the paper's workload.
``mutant-refute``
    ``POST /v1/verify`` of single-gate mutants of 8-bit Table I/II
    multipliers as Verilog text, with counterexample search and a 20000
    monomial budget: bug-hunting traffic.
``batch-replay``
    ``POST /v1/batch`` of 16 small catalog cells against a server with a
    result cache; 12 cells per batch were answered earlier in the run:
    CI re-verification traffic.
``certify``
    In-process ``submit(certificate=True)``, canonical-JSON handoff, then
    ``check_certificate``.

The HTTP workloads talk to a separate ``repro-verify serve --jobs 2``
process over one keep-alive connection.  ``setup_s`` is the median over
several cold launches of the time from launch until the workload's probe
request is answered; the timed run has a launch of its own amid them, so
the launches sample the host before and after it.

Every time is stated at the reference speed of ``hostspeed.py``: the
benchmark runs that fixed computation, untimed, around each request and
each launch, and scales the time measured between two of its runs by
``REFERENCE_MS`` over their mean.  The host's drift in speed thus
cancels, while a change to the program moves the figures one for one.
The results file keeps the unscaled figures and the scale.  A run
measures for at least ``--seconds`` and at least ``MIN_SAMPLES`` requests,
so its p90 always has ten samples beyond it, and stops only between two
passes over the workload's fixed request list (see ``plans.py``), or at
the end of its plan (a ``batch-replay`` plan is 100 batches).

Every verdict is checked: wide, batch and certify reports must be
``verified`` (and certificates must check); a mutant verdict must agree
with the independent exhaustive oracle in ``oracle.py``, and a refutation
must carry an agreeing SAT cross-check and a confirmed counterexample.

``--trace 1`` measures the same plan twice, untraced and then with the
span recorders of ``tracing.py`` installed, back to back; the difference
in ``reports_per_s``, both at the reference speed, is reported as the
tracing overhead.  It prints the per-layer metrics and writes a report
next to the run's results in ``perfbench/results/``.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import plans
import tracing
from oracle import MultiplierOracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Requests a run measures at least, whole passes of its list (``plans``).
#: A request's time at the reference speed still varies by about 0.1
#: (standard deviation of its logarithm) from run to run, as the host's
#: load changes within a request.  ``wide-verify`` and ``mutant-refute``
#: runs therefore measure two passes: their p90 falls where the costs of
#: the listed requests climb steeply, and one pass let it spread by up to
#: 0.13 (wide-verify) and 0.15 (mutant-refute) of its median over runs.
MIN_SAMPLES = {"wide-verify": 200, "certify": 100, "mutant-refute": 200,
               "batch-replay": 100}
LAUNCHES = 7
HTTP_WORKLOADS = {"mutant-refute": "/v1/verify", "batch-replay": "/v1/batch"}
#: Workloads whose verifications run in one thread; their runs are kept on
#: one CPU, where the host-speed reference runs too.  ``batch-replay``
#: spreads each batch over two pool workers.
ONE_CPU_WORKLOADS = ("wide-verify", "certify", "mutant-refute")
DECIDED = ("verified", "refuted")


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to measuring a wrong answer)."""


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    values = [int(value) for value in fields[:8]]
    return values[7] if len(values) > 7 else 0, sum(values)


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def diagnostics(steal_start: tuple[int, int], bytecode: bool | None) -> dict:
    steal, total = cpu_times()
    elapsed = total - steal_start[1]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "dont_write_bytecode": bytecode,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_steal_share": (steal - steal_start[0]) / elapsed if elapsed > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM a launched process and wait; SIGKILL what is left of its group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise BenchmarkError("no VmHWM in /proc status")


class Server:
    """One ``repro-verify serve --jobs 2`` process (optionally traced)."""

    def __init__(self, workload: str, run_dir: Path, index: int, traced: bool) -> None:
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "2"]
        if workload == "batch-replay":
            serve += ["--cache", str(run_dir / f"cache-{index}")]
        self.spans_path = run_dir / f"spans-{index}.json"
        if traced:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        self.errors: list[str] = []
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     start_new_session=True)
        try:
            self.port = self._await_announce()
        except BaseException:
            stop(self.proc)
            raise
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        self.connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                     timeout=150)

    def _await_announce(self) -> int:
        for line in self.proc.stderr:
            self.errors.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        raise BenchmarkError("server exited before listening:\n" + "".join(self.errors))

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.errors.append(line)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self.connection.request("POST", path, body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> float:
        """Stop the server; returns its peak resident memory in MB."""
        self.connection.close()
        try:
            return peak_rss_mb(self.proc.pid)
        finally:
            stop(self.proc)
            self._drain.join(timeout=10)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_mutant(report: dict, mismatches: int, oracle) -> str | None:
    """Why a mutant report is wrong, or ``None``."""
    verdict = report.get("verdict")
    if verdict == "budget":
        return None
    if verdict == "verified":
        return None if mismatches == 0 else "verified a faulty circuit"
    if verdict != "refuted":
        return f"unexpected verdict {verdict!r}"
    if mismatches == 0:
        return "refuted a correct circuit"
    check = report.get("cross_check") or {}
    if check.get("agrees") is not True or check.get("counterexample_confirmed") is not True:
        return f"refutation without agreeing cross-check: {check}"
    counterexample = report.get("counterexample")
    if not counterexample or not (mismatches >> oracle.vector(counterexample)) & 1:
        return "counterexample does not expose the fault"
    return None


def check_batch(envelope: dict, new: int) -> str | None:
    reports = envelope.get("reports") or []
    if len(reports) != plans.BATCH_SIZE:
        return f"{len(reports)} reports for {plans.BATCH_SIZE} requests"
    wrong = [report.get("verdict") for report in reports
             if report.get("verdict") != "verified"]
    if wrong:
        return f"verdicts {wrong}"
    hits = plans.BATCH_SIZE - new
    if envelope.get("executed") != new or envelope.get("cache_hits") != hits:
        return (f"cache hits {envelope.get('cache_hits')} / executed "
                f"{envelope.get('executed')}, expected {hits} / {new}")
    return None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def launch_inprocess(command: list[str], run_dir: Path, timeout: float) -> float:
    """Run one in-process runner to its end; seconds from launch to ``ready``."""
    stderr_path = run_dir / "inproc-stderr.txt"
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        launched = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=stderr,
                                start_new_session=True)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - launched
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("in-process runner did not finish") from None
        finally:
            stop(proc)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError("in-process runner failed:\n"
                             + stderr_path.read_text(encoding="utf-8")[-4000:])
    return setup


def measure_inprocess(workload: str, plan: dict, probe: dict, seconds: float,
                      traced: bool, launches: int, run_dir: Path) -> dict:
    """``launches`` timed probe-only launches, with the timed run amid them."""
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps({"requests": plan["requests"],
                                     "block_starts": plan["block_starts"]}),
                         encoding="utf-8")
    out = run_dir / f"inproc-{int(traced)}.json"
    command = [sys.executable, str(HERE / "inproc.py"), "--workload", workload,
               "--probe", json.dumps(probe), "--trace", str(int(traced))]
    setups, launch_reference = [], []
    for launch in range(launches):
        if launch == launches // 2:
            timed = ["--plan", str(plan_path), "--seconds", str(seconds),
                     "--min-samples", str(MIN_SAMPLES[workload]), "--out", str(out)]
            launch_inprocess(command + timed, run_dir, seconds + 150)
        before = hostspeed.reference_ms()
        setups.append(launch_inprocess(command + ["--probe-only"], run_dir, 150))
        launch_reference.append([before, hostspeed.reference_ms()])
    result = json.loads(out.read_text(encoding="utf-8"))
    outcomes = result["outcomes"]
    samples = [{"latency_ms": latency, "verdict": outcome["verdict"],
                "reports": 1, "decided": int(outcome["verdict"] in DECIDED),
                "failed": outcome["verdict"] == "error",
                "wrong": None if outcome["ok"] or outcome["verdict"] == "error"
                else f"verdict {outcome['verdict']}",
                "certificate_bytes": outcome.get("certificate_bytes", 0)}
               for latency, outcome in zip(result["latencies_ms"], outcomes)]
    errors = [outcome["error"] for outcome in outcomes if "error" in outcome]
    return {"setups_s": setups, "launch_reference_ms": launch_reference,
            "samples": samples, "wall_s": result["wall_s"],
            "reference_ms": result["reference_ms"],
            "peak_rss_mb": result["peak_rss_mb"], "import_ms": result["import_ms"],
            "dont_write_bytecode": result["dont_write_bytecode"],
            "spans": result["spans"], "errors": errors[:5], "request_offset": 0,
            "reports_per_request": 1}


def serve_plan(server: Server, workload: str, plan: dict, seconds: float,
               oracle) -> dict:
    """Send the plan closed-loop over ``server``'s connection; the samples.

    The host-speed reference runs, untimed, before the first request and
    after each one.
    """
    path = HTTP_WORKLOADS[workload]
    offset = 1
    if workload == "batch-replay":
        status, body = server.post(path, json.dumps(plan["priming"]).encode("utf-8"))
        problem = (check_batch(json.loads(body), new=plans.BATCH_SIZE)
                   if status == 200 else status)
        if problem is not None:
            raise BenchmarkError(f"priming batch failed: {problem}")
        offset = 2
    bodies = [json.dumps(request).encode("utf-8") for request in plan["requests"]]
    block_starts = set(plan.get("block_starts", range(len(bodies))))
    samples, errors = [], []
    began = time.perf_counter()
    reference = [hostspeed.reference_ms()]
    deadline = began + seconds
    for index, body in enumerate(bodies):
        if (index in block_starts and time.perf_counter() >= deadline
                and index >= MIN_SAMPLES[workload]):
            break
        sent = time.perf_counter()
        try:
            status, answer = server.post(path, body)
        except (OSError, http.client.HTTPException) as error:
            errors.append(f"{type(error).__name__}: {error}")
            samples.append({"latency_ms": None, "verdict": "error", "reports": 0,
                            "decided": 0, "failed": True, "wrong": None})
            break
        latency_ms = 1000 * (time.perf_counter() - sent)
        sample = {"latency_ms": latency_ms, "failed": status != 200,
                  "wrong": None, "http": True}
        if status != 200:
            errors.append(f"HTTP {status}: {answer[:300]!r}")
            sample.update(verdict="error", reports=0, decided=0)
        elif workload == "batch-replay":
            envelope = json.loads(answer)
            reports = envelope.get("reports") or []
            sample.update(verdict="batch", reports=len(reports),
                          decided=sum(report.get("verdict") in DECIDED
                                      for report in reports),
                          wrong=check_batch(
                              envelope, new=plans.BATCH_SIZE - plans.BATCH_REPEATS))
        else:
            report = json.loads(answer)
            sample.update(verdict=report.get("verdict"), reports=1,
                          decided=int(report.get("verdict") in DECIDED),
                          wrong=check_mutant(report, plan["mismatches"][index], oracle))
        samples.append(sample)
        reference.append(hostspeed.reference_ms())
    return {"samples": samples, "errors": errors[:5], "request_offset": offset,
            "wall_s": time.perf_counter() - began - sum(reference) / 1000,
            "reference_ms": reference}


def launch_server(workload: str, probe_body: bytes, run_dir: Path, index: int,
                  traced: bool) -> tuple[Server, float]:
    """A server that has answered the probe, and its setup time."""
    server = Server(workload, run_dir, index, traced)
    try:
        status, body = server.post(HTTP_WORKLOADS[workload], probe_body)
        setup = time.perf_counter() - server.launched
        if status != 200:
            raise BenchmarkError(f"probe answered {status}: {body[:300]!r}")
    except BaseException:
        stop(server.proc)
        raise
    return server, setup


def measure_http(workload: str, plan: dict, probe: dict, seconds: float,
                 traced: bool, launches: int, run_dir: Path, oracle) -> dict:
    """``launches`` timed probe-only launches, with the timed run amid them."""
    probe_body = json.dumps(probe).encode("utf-8")
    setups, launch_reference = [], []
    for launch in range(launches):
        if launch == launches // 2:
            server, _ = launch_server(workload, probe_body, run_dir, launches, traced)
            spans_path = server.spans_path
            try:
                measured = serve_plan(server, workload, plan, seconds, oracle)
            finally:
                measured_rss = server.close()
        before = hostspeed.reference_ms()
        server, setup = launch_server(workload, probe_body, run_dir, launch, traced)
        server.close()
        setups.append(setup)
        launch_reference.append([before, hostspeed.reference_ms()])
    spans, import_ms, bytecode = None, None, None
    if traced:
        document = json.loads(spans_path.read_text(encoding="utf-8"))
        spans, import_ms = document["spans"], document["import_ms"]
        bytecode = document["dont_write_bytecode"]
    return {**measured, "peak_rss_mb": measured_rss, "setups_s": setups,
            "launch_reference_ms": launch_reference, "import_ms": import_ms,
            "dont_write_bytecode": bytecode, "spans": spans,
            "reports_per_request": plans.BATCH_SIZE if workload == "batch-replay" else 1}


def measure(workload: str, plan: dict, seconds: float, traced: bool, launches: int,
            run_dir: Path, oracle) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    probe = plans.probe(workload)
    if workload in HTTP_WORKLOADS:
        return measure_http(workload, plan, probe, seconds, traced, launches,
                            run_dir, oracle)
    return measure_inprocess(workload, plan, probe, seconds, traced, launches, run_dir)


def end_to_end(measured: dict, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics of one measurement, plus its sample counts.

    With ``scaled``, times are stated at the reference speed: a request's
    latency by the reference runs just before and just after it, a
    launch's setup time likewise, and the timed wall clock by the mean
    scale of the requests, weighted by their latency.
    """
    samples = measured["samples"]
    reference = measured["reference_ms"]
    timed = [(sample["latency_ms"],
              hostspeed.scale(reference[index:index + 2]) if scaled else 1.0)
             for index, sample in enumerate(samples) if not sample["failed"]]
    if len(timed) < 2:
        raise BenchmarkError("fewer than two requests answered")
    latencies = sorted(latency * speed for latency, speed in timed)
    speed = sum(latencies) / sum(latency for latency, _ in timed)
    setups = [setup * (hostspeed.scale(bracket) if scaled else 1.0)
              for setup, bracket in zip(measured["setups_s"],
                                        measured["launch_reference_ms"])]
    p90 = statistics.quantiles(latencies, n=10)[8]
    reports = sum(sample["reports"] for sample in samples)
    attempted_reports = measured["reports_per_request"] * len(samples)
    decided = sum(sample["decided"] for sample in samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "reports_per_s": (reports / (speed * measured["wall_s"]), "reports/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "decided_share": (decided / attempted_reports, "ratio"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    counts = {"samples": len(latencies),
              "beyond_p90": sum(latency > p90 for latency in latencies),
              "speed_scale": speed}
    return metrics, counts


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_plan(workload: str, seed: int):
    """The plan, plus the oracle verdicts of ``mutant-refute`` requests."""
    plan = plans.build(workload, seed)
    oracle = None
    if workload == "mutant-refute":
        oracle = MultiplierOracle(8)
        mismatches = {}
        for request in plan["requests"]:
            text = request["verilog_text"]
            if text not in mismatches:
                mismatches[text] = oracle.mismatches(text)
        plan["mismatches"] = [mismatches[request["verilog_text"]]
                              for request in plan["requests"]]
    return plan, oracle


def verdict_problems(measured: dict) -> list[str]:
    problems = [f"request {index}: {sample['wrong']}"
                for index, sample in enumerate(measured["samples"]) if sample["wrong"]]
    failed = sum(sample["failed"] for sample in measured["samples"])
    if failed:
        problems.append(f"{failed} failed requests: {measured['errors']}")
    return problems


def format_line(metrics: dict) -> str:
    return ", ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())


def layer_report(workload: str, seed: int, layers: dict, untraced_rate: float,
                 traced_rate: float, requests: int, latency_ms: float) -> str:
    overhead = 1 - traced_rate / untraced_rate if untraced_rate else 0.0
    lines = [f"Traced run: workload {workload}, seed {seed}, {requests} timed requests, "
             f"{latency_ms:.1f} ms summed end-to-end latency.",
             "",
             f"{'metric':<44} {'value':>14} {'unit':<6} {'requests':>8} {'share':>7}"]
    for name, entry in layers.items():
        if name is None:
            continue
        share = (f"{100 * entry['value'] / latency_ms:6.2f}%"
                 if entry["unit"] == "ms" and latency_ms and name != "setup.import_ms"
                 else "")
        lines.append(f"{name:<44} {entry['value']:>14.6g} {entry['unit']:<6} "
                     f"{entry['requests']:>8} {share:>7}")
    lines += ["",
              f"Latency no span covers: {100 * layers[None]:.2f}% of end-to-end latency.",
              "Times are stated at the reference speed of hostspeed.py.  "
              "Shares are self time over summed latency.  Pool-worker rewriting and "
              "reduction come from job times and overlap experiments.runner.dispatch "
              "waits; server.transport is client latency minus the handler span.",
              f"Tracing overhead: reports_per_s {untraced_rate:.6g} untraced, "
              f"{traced_rate:.6g} traced ({100 * overhead:.2f}% lower traced)."]
    return "\n".join(lines) + "\n"


def summarize(args: argparse.Namespace, measured: dict) -> tuple[dict, dict, list]:
    """Metrics, counts (with the unscaled metrics and the timings behind
    them) and verdict problems of one measurement."""
    metrics, counts = end_to_end(measured)
    counts["unscaled"] = end_to_end(measured, scaled=False)[0]
    problems = verdict_problems(measured)
    if counts["beyond_p90"] < 10:
        problems.append(f"only {counts['beyond_p90']} samples beyond p90")
    print(f"{args.workload} seed {args.seed}: {format_line(metrics)}; "
          f"{counts['samples']} latency samples, {counts['beyond_p90']} beyond p90")
    print(f"  unscaled (host speed scale {counts['speed_scale']:.4f}): "
          f"{format_line(counts['unscaled'])}")
    counts["timings"] = {name: measured[name] for name in
                         ("setups_s", "launch_reference_ms", "reference_ms", "wall_s")}
    counts["timings"]["latencies_ms"] = [sample["latency_ms"]
                                         for sample in measured["samples"]]
    return metrics, counts, problems


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload in ONE_CPU_WORKLOADS:
        hostspeed.pin_to_one_cpu()
    steal_start = cpu_times()
    RESULTS.mkdir(exist_ok=True)
    run_dir = RESULTS / f"tmp-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        plan, oracle = build_plan(args.workload, args.seed)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds}
        measured = measure(args.workload, plan, args.seconds, False,
                           1 if args.trace else LAUNCHES, run_dir / "untraced", oracle)
        metrics, counts, problems = summarize(args, measured)
        result["untraced"] = {"metrics": metrics, **counts}
        baseline = metrics["reports_per_s"][0]
        output = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in metrics.items()}
        if args.trace:
            measured = measure(args.workload, plan, args.seconds, True, 1,
                               run_dir / "traced", oracle)
            traced_metrics, traced_counts, traced_problems = summarize(args, measured)
            problems += traced_problems
            offset = measured["request_offset"]
            requests = {offset + index: sample
                        for index, sample in enumerate(measured["samples"])
                        if not sample["failed"]}
            layers = tracing.layer_metrics(measured["spans"], requests,
                                           measured["import_ms"])
            # Per-layer times are stated at the reference speed too.
            speed = traced_counts["speed_scale"]
            for name, entry in layers.items():
                if name is not None and entry["unit"] == "ms":
                    entry["value"] *= speed
            latency_ms = speed * sum(sample["latency_ms"] for sample in requests.values())
            report = layer_report(args.workload, args.seed, layers, baseline,
                                  traced_metrics["reports_per_s"][0],
                                  len(requests), latency_ms)
            report_path = RESULTS / f"{args.workload}-seed{args.seed}-trace-report.txt"
            report_path.write_text(report, encoding="utf-8")
            print(report, end="")
            output = {name: {"value": entry["value"], "unit": entry["unit"]}
                      for name, entry in layers.items() if name is not None}
            result["traced"] = {"metrics": traced_metrics, **traced_counts,
                                "layers": {name: entry for name, entry in layers.items()
                                           if name is not None},
                                "uncovered_share": layers[None]}
        bytecode = measured["dont_write_bytecode"]
        if bytecode is None:
            bytecode = sys.dont_write_bytecode
        result["diagnostics"] = diagnostics(steal_start, bytecode)
        result["problems"] = problems
        print("diagnostics: " + json.dumps(result["diagnostics"], sort_keys=True))
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
        return {"correct": not problems, "attempted": len(measured["samples"]),
                "failed": sum(sample["failed"] for sample in measured["samples"]),
                "metrics": output}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, OSError, ImportError, subprocess.SubprocessError) as error:
        print(f"benchmark failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

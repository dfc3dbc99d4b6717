"""One launched process of an in-process workload (wide-verify, certify).

The process imports the package, answers the workload's probe through
:class:`repro.api.VerificationService` and prints ``ready``; the parent
times setup from launch to that line.  With ``--probe-only`` it exits
there.  Otherwise it runs the plan closed-loop — each request waits for
the previous one — until ``--seconds`` have passed and at least
``--min-samples`` requests are answered, stopping only at one of the
plan's ``block_starts``, then writes its measurements as JSON to
``--out``.  It runs the host-speed reference of ``hostspeed.py``,
untimed, before the first request and after each one.

A ``certify`` request is ``submit(certificate=True)``, the canonical
report JSON handed over as text, and ``check_certificate`` on the parsed
certificate; its latency covers all three.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def answer(service, workload: str, document: dict) -> dict:
    """Run one request; ``{"verdict", "ok", "certificate_bytes"}``."""
    import repro.certify
    from repro.api.request import VerificationRequest

    report = service.submit(VerificationRequest(**document))
    if workload != "certify":
        return {"verdict": report.verdict, "ok": report.verdict == "verified"}
    text = report.to_json()
    certificate = json.loads(text)["certificate"]
    summary = repro.certify.check_certificate(certificate)
    return {"verdict": report.verdict,
            "ok": report.verdict == "verified" and summary["verdict"] == "verified",
            "certificate_bytes": len(text)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--probe", required=True, help="probe request JSON")
    parser.add_argument("--plan", help="plan JSON file")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--probe-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.api
    import repro.certify
    import_ms = 1000 * (time.perf_counter() - start)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    service = repro.api.VerificationService()

    probe = answer(service, args.workload, json.loads(args.probe))
    if not probe["ok"]:
        print(f"probe failed: {probe}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.probe_only:
        return 0

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    block_starts = set(plan["block_starts"])
    latencies, outcomes = [], []
    began = time.perf_counter()
    reference = [hostspeed.reference_ms()]
    deadline = began + args.seconds
    for index, document in enumerate(plan["requests"]):
        if (index in block_starts and time.perf_counter() >= deadline
                and index >= args.min_samples):
            break
        if recorder is not None:
            recorder.set_request(index)
        sent = time.perf_counter()
        try:
            outcome = answer(service, args.workload, document)
        except Exception as error:  # noqa: BLE001 - a failed request is counted
            outcome = {"verdict": "error", "ok": False,
                       "error": f"{type(error).__name__}: {error}"}
        latencies.append(1000 * (time.perf_counter() - sent))
        outcomes.append(outcome)
        reference.append(hostspeed.reference_ms())
    wall_s = time.perf_counter() - began - sum(reference) / 1000
    if recorder is not None:
        recorder.set_request(None)

    result = {
        "latencies_ms": latencies,
        "outcomes": outcomes,
        "wall_s": wall_s,
        "reference_ms": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_ms": import_ms,
        "dont_write_bytecode": sys.dont_write_bytecode,
        "spans": recorder.export() if recorder is not None else None,
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

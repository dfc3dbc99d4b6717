"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.circuit.verilog import save_verilog
from repro.circuit.mutate import apply_mutation, list_mutations
from repro.generators.multipliers import generate_multiplier


def test_verify_command_on_correct_multiplier(capsys):
    assert main(["verify", "-a", "SP-WT-CL", "-w", "3"]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    assert "#P=" in out


def test_verify_command_on_adder(capsys):
    assert main(["verify", "--adder", "-a", "KS", "-w", "6"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_command_detects_bug(tmp_path, capsys):
    netlist = generate_multiplier("SP-AR-RC", 3)
    buggy = apply_mutation(netlist, [m for m in list_mutations(netlist)
                                     if m.signal.startswith("pp")][0])
    path = tmp_path / "buggy.v"
    save_verilog(buggy, str(path))
    assert main(["verify-verilog", str(path), "--spec", "multiplier"]) == 2
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "counterexample" in out


def test_generate_command_writes_verilog(tmp_path, capsys):
    out_file = tmp_path / "mult.v"
    assert main(["generate", "-a", "BP-WT-CL", "-w", "4", "-o", str(out_file)]) == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert "module BP_WT_CL_4x4" in text


def test_generate_command_prints_to_stdout(capsys):
    assert main(["generate", "-a", "SP-AR-RC", "-w", "2"]) == 0
    assert "module SP_AR_RC_2x2" in capsys.readouterr().out


def test_timeout_exit_code(capsys):
    code = main(["verify", "-a", "BP-RT-KS", "-w", "6", "--method", "mt-fo",
                 "--monomial-budget", "500", "--time-budget", "5"])
    assert code == 3


def test_error_exit_code_for_unknown_architecture(capsys):
    assert main(["verify", "-a", "XX-YY-ZZ", "-w", "4"]) == 1


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("verify", "verify-verilog", "check-certificate",
                    "generate", "table", "batch"):
        assert command in text


def test_batch_verdicts_identical_serial_vs_parallel(capsys):
    """--jobs must not change the verdict output in any byte."""
    args = ["batch", "-a", "SP-AR-RC,SP-WT-CL,SP-CT-BK", "-w", "3",
            "-m", "mt-lr,mt-fo"]
    assert main(args + ["--jobs", "1"]) == 0
    serial_output = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel_output = capsys.readouterr().out
    assert serial_output == parallel_output
    assert "summary: pass=6" in serial_output


def test_batch_writes_json_results(tmp_path, capsys):
    out_file = tmp_path / "rows.json"
    assert main(["batch", "-a", "SP-AR-RC", "-w", "3", "-m", "mt-lr",
                 "-o", str(out_file)]) == 0
    import json
    rows = json.loads(out_file.read_text())
    assert rows[0]["architecture"] == "SP-AR-RC"
    assert rows[0]["verified"] is True
    assert "time_s" in rows[0]


def test_batch_rejects_unknown_method(capsys):
    assert main(["batch", "-a", "SP-AR-RC", "-w", "3", "-m", "bogus"]) == 1
    assert "unknown method" in capsys.readouterr().err


def test_verify_stats_surfaces_engine_and_vanishing_counters(capsys):
    assert main(["verify", "-a", "SP-AR-RC", "-w", "4", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "rewrite[xor-rewriting]:" in out
    assert "vanishing-cache[xor-rewriting]:" in out
    assert "hits=" in out and "misses=" in out and "size=" in out
    assert "witness-hits=" in out
    assert "batches=" in out and "batched-steps=" in out
    assert "reduction: substitutions=" in out


def test_verify_json_emits_one_report_object(capsys):
    import json
    assert main(["verify", "-a", "SP-WT-CL", "-w", "3", "--json"]) == 0
    from repro.api.report import REPORT_SCHEMA
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == REPORT_SCHEMA
    assert report["verdict"] == "verified"
    assert report["method"] == "mt-lr"
    assert report["circuit"] == "SP-WT-CL"
    assert report["width"] == 3
    assert "counters" in report


def test_verify_json_budget_trip_exit_3(capsys):
    import json
    code = main(["verify", "-a", "BP-RT-KS", "-w", "6", "--method", "mt-fo",
                 "--monomial-budget", "500", "--json"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "budget"
    assert report["status"] == "TO"
    assert report["reason"]


def test_verify_verilog_json_and_refuted_exit_2(tmp_path, capsys):
    import json
    netlist = generate_multiplier("SP-AR-RC", 3)
    buggy = apply_mutation(netlist, [m for m in list_mutations(netlist)
                                     if m.signal.startswith("pp")][0])
    path = tmp_path / "buggy.v"
    save_verilog(buggy, str(path))
    assert main(["verify-verilog", str(path), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "refuted"
    assert report["counterexample"]
    assert report["remainder"]


def _tripping_verilog(tmp_path):
    """A buggy 4-bit multiplier whose reduction trips ``--monomial-budget 20``."""
    netlist = generate_multiplier("SP-AR-RC", 4)
    path = tmp_path / "buggy.v"
    save_verilog(apply_mutation(netlist, list_mutations(netlist)[5]),
                 str(path))
    return path


def test_budget_trip_refuted_by_simulation_json(tmp_path, capsys):
    import json
    path = _tripping_verilog(tmp_path)
    assert main(["verify-verilog", str(path), "--json",
                 "--monomial-budget", "20"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "refuted"
    assert report["counters"] == {"simulated_vectors": 4096}
    assert report["remainder"] is None
    assert "monomial budget" in report["reason"]
    assert report["cross_check"]["conflicts"] == 0


def test_budget_trip_refuted_by_simulation_human_output(tmp_path, capsys):
    path = _tripping_verilog(tmp_path)
    assert main(["verify-verilog", str(path), "--stats",
                 "--monomial-budget", "20"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "MISMATCH" in lines[0]
    assert lines[1].startswith("refuted by simulation over 4096 vectors "
                               "after GB reduction exceeded the monomial "
                               "budget")
    assert lines[2].startswith("counterexample: a0=")
    assert len(lines) == 3, "no engine counters: the engine tripped"


def test_verify_sat_and_bdd_methods_through_the_cli(capsys):
    assert main(["verify", "-a", "SP-AR-RC", "-w", "3",
                 "--method", "sat-cec"]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    assert main(["verify", "-a", "SP-AR-RC", "-w", "3",
                 "--method", "bdd-cec"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_batch_json_emits_one_line_per_row(capsys):
    import json
    assert main(["batch", "-a", "SP-AR-RC,SP-CT-BK", "-w", "3",
                 "-m", "mt-lr,sat-cec", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    reports = [json.loads(line) for line in lines]
    assert all(report["verdict"] == "verified" for report in reports)
    assert [r["method"] for r in reports] == ["mt-lr", "sat-cec"] * 2


def test_batch_and_verify_share_the_report_schema(capsys):
    import json
    assert main(["verify", "-a", "SP-AR-RC", "-w", "3", "--json"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert main(["batch", "-a", "SP-AR-RC", "-w", "3", "-m", "mt-lr",
                 "--json"]) == 0
    batch = json.loads(capsys.readouterr().out.strip())
    assert list(single) == list(batch)


def test_verify_vanishing_cache_limit_flag(capsys):
    assert main(["verify", "-a", "SP-AR-RC", "-w", "4", "--stats",
                 "--vanishing-cache-limit", "4"]) == 0
    out = capsys.readouterr().out
    assert "VERIFIED" in out
    # A tiny cap forces at least one whole-cache reset, visible in --stats.
    assert "resets=0" not in out.split("vanishing-cache", 1)[1].splitlines()[0]


def test_verify_certificate_flag_writes_checkable_proof(tmp_path, capsys):
    proof = tmp_path / "proof.json"
    assert main(["verify", "-a", "SP-AR-RC", "-w", "4",
                 "--certificate", str(proof)]) == 0
    assert proof.exists()
    assert main(["check-certificate", str(proof)]) == 0
    out = capsys.readouterr().out
    assert "valid verified" in out


def test_check_certificate_refutation_exit_2(tmp_path, capsys):
    netlist = generate_multiplier("SP-AR-RC", 4)
    buggy = apply_mutation(netlist, list_mutations(netlist)[5])
    path = tmp_path / "buggy.v"
    save_verilog(buggy, str(path))
    proof = tmp_path / "refuted.json"
    assert main(["verify-verilog", str(path),
                 "--certificate", str(proof)]) == 2
    assert main(["check-certificate", str(proof)]) == 2
    assert "valid refuted" in capsys.readouterr().out


def test_check_certificate_rejects_tampering_exit_1(tmp_path, capsys):
    import json
    proof = tmp_path / "proof.json"
    assert main(["verify", "-a", "SP-AR-RC", "-w", "3",
                 "--certificate", str(proof)]) == 0
    document = json.loads(proof.read_text())
    document["body"]["verdict"] = "refuted"
    proof.write_text(json.dumps(document))
    assert main(["check-certificate", str(proof)]) == 1
    assert "INVALID [hash]" in capsys.readouterr().err


def test_check_certificate_malformed_file_among_several(tmp_path, capsys):
    """A malformed certificate is reported and the other files still check."""
    import json

    from repro.certify import certificate_hash
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    for path in paths:
        assert main(["verify", "-a", "SP-AR-RC", "-w", "3",
                     "--certificate", str(path)]) == 0
    document = json.loads(paths[1].read_text())
    document["body"]["vanishing"][0][1] = [5, "x"]
    document["sha256"] = certificate_hash(document["body"])
    paths[1].write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["check-certificate", *map(str, paths)]) == 1
    captured = capsys.readouterr()
    assert f"{paths[1]}: INVALID [vanishing step 0]" in captured.err
    assert f"{paths[0]}: valid verified" in captured.out
    assert f"{paths[2]}: valid verified" in captured.out


def test_check_certificate_missing_file_exit_1(tmp_path, capsys):
    assert main(["check-certificate", str(tmp_path / "nope.json")]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_check_certificate_is_engine_free():
    """The checker's trusted base is the algebra primitive plus stdlib.

    ``repro/__init__`` eagerly re-exports the engine, so a runtime
    ``sys.modules`` probe cannot separate the checker from the package
    init; the enforceable invariant is the checker module's own import
    statements.
    """
    import ast
    import repro.certify.checker as checker
    tree = ast.parse(open(checker.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "hashlib", "json",
                        "repro.algebra.polynomial", "repro.errors"}


def test_campaign_smoke(tmp_path, capsys):
    import json
    assert main(["campaign", "-a", "SP-AR-RC", "-w", "4", "--sample", "5",
                 "--seed", "9", "--out", str(tmp_path / "rows.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tasks"] == 6
    assert summary["cross_checked"] == summary["verdicts"].get("refuted", 0)
    assert summary["cross_check_disagreements"] == 0
    rows = (tmp_path / "rows.jsonl").read_text(encoding="utf-8")
    assert len(rows.splitlines()) == 6


@pytest.mark.parametrize("argv", [
    ["verify", "-a", "SP-AR-RC", "-w", "4", "--incremental"],
    ["verify", "-a", "SP-AR-RC", "-w", "4", "--cone-cache", "cones"],
    ["verify-verilog", "m.v", "--incremental"],
    ["verify-verilog", "m.v", "--cone-cache", "cones"],
    ["serve", "--cone-cache", "cones"],
    ["campaign", "-a", "SP-AR-RC", "-w", "4", "--cone-cache", "cones"],
    ["campaign", "-a", "SP-AR-RC", "-w", "4", "--cross-check", "2"],
], ids=["verify--incremental", "verify--cone-cache",
        "verify-verilog--incremental", "verify-verilog--cone-cache",
        "serve--cone-cache", "campaign--cone-cache", "campaign--cross-check"])
def test_removed_flags_are_usage_errors(argv, capsys):
    """The per-cone path's flags are gone: argparse refuses them (exit 2)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

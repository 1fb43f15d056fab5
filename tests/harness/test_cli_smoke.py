"""Tier-1 smoke test: the CLI end-to-end with --jobs and the cache.

Drives ``python -m repro.harness fig9`` at a tiny scale through the
parallel executor, saves the artifact, and checks it loads and diffs
clean against itself; a second run must be served from the result cache
and produce an identical artifact.
"""

from repro.harness import BENCHMARK_ORDER, diff_artifacts, load_artifact
from repro.harness.__main__ import main


def test_cli_fig9_parallel_save_and_cache(tmp_path, capsys):
    save_first = tmp_path / "artifacts-1"
    save_second = tmp_path / "artifacts-2"
    cache = tmp_path / "cache"
    base = ["fig9", "--scale", "0.1", "--threads", "2", "--seed", "3",
            "--jobs", "2", "--cache-dir", str(cache)]

    assert main(base + ["--save", str(save_first)]) == 0
    assert "Figure 9" in capsys.readouterr().out
    first = load_artifact(str(save_first / "fig9.json"))
    assert set(first["data"]) == set(BENCHMARK_ORDER)
    assert diff_artifacts(first, first) == []

    # One cache entry per grid cell was written.
    assert len(list(cache.glob("*.json"))) == len(BENCHMARK_ORDER) * 4

    # Second run: all cells come from the cache, artifact identical.
    assert main(base + ["--save", str(save_second)]) == 0
    second = load_artifact(str(save_second / "fig9.json"))
    assert diff_artifacts(first, second, tolerance=0.0) == []


def test_cli_no_cache_flag(tmp_path):
    save = tmp_path / "artifacts"
    assert main(["fig9", "--scale", "0.1", "--threads", "2", "--seed",
                 "3", "--no-cache", "--save", str(save)]) == 0
    assert (save / "fig9.json").exists()
    assert not list(tmp_path.glob("**/cache*"))


def test_cli_trace_writes_valid_chrome_trace(tmp_path, capsys):
    """Acceptance: the trace command emits schema-valid trace JSON."""
    import json

    from repro.sim import validate_trace_document

    out = tmp_path / "t.json"
    assert main(["trace", "array_swaps", "--design", "PMEMSpec",
                 "--trace-out", str(out)]) == 0
    assert "trace written to" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert validate_trace_document(document) == []
    spans = [e for e in document["traceEvents"]
             if e.get("ph") == "X" and e.get("cat") == "persist-path"]
    assert len(spans) >= 1


def test_cli_metrics_summary_sparklines(capsys):
    assert main(["metrics", "array_swaps", "--design", "PMEM-Spec",
                 "--threads", "2", "--summary",
                 "--metrics-window", "5000"]) == 0
    out = capsys.readouterr().out
    assert "Time series" in out
    assert "wpq_depth" in out


def test_cli_metrics_json(capsys):
    import json

    assert main(["metrics", "array_swaps", "--design", "PMEM-Spec",
                 "--threads", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "series" in payload and "window_cycles" in payload


def test_cli_trace_unknown_benchmark_is_user_error(capsys):
    assert main(["trace", "not_a_benchmark"]) == 2


def test_cli_validate_clean_campaign(tmp_path, capsys):
    """A tiny power-cut campaign is consistent, exits 0, and writes the
    CampaignReport artifact."""
    import json

    out = tmp_path / "campaign.json"
    assert main(["validate", "--planner", "stratified", "--budget", "6",
                 "--benchmarks", "array_swaps", "--designs",
                 "IntelX86,PMEM-Spec", "--report-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Crash-consistency campaign" in printed
    assert "CONSISTENT" in printed
    payload = json.loads(out.read_text())
    assert payload["consistent"] is True
    assert payload["total_trials"] > 0


def test_cli_validate_rejects_batch_below_one(capsys):
    """``--batch`` is a chunk size with no off mode: 0 is a user error
    (exit 2) before any trial runs."""
    assert main(["validate", "--budget", "2", "--benchmarks",
                 "array_swaps", "--designs", "PMEM-Spec",
                 "--batch", "0"]) == 2
    assert "Crash-consistency campaign" not in capsys.readouterr().out


def test_cli_submit_rejects_batch_below_one():
    """The service JobSpec refuses it too, before contacting a server."""
    assert main(["submit", "--url", "http://127.0.0.1:9",
                 "--benchmarks", "array_swaps", "--designs",
                 "PMEM-Spec", "--batch", "0"]) == 2


def test_cli_validate_exits_nonzero_on_violations(capsys):
    """The torn-log fault (the deliberate-bug fixture) must gate: the
    command exits 1 and the table names the violated invariant."""
    assert main(["validate", "--fault", "torn-log", "--budget", "40",
                 "--benchmarks", "array_swaps", "--designs", "PMEM-Spec",
                 "--no-shrink"]) == 1
    printed = capsys.readouterr().out
    assert "structural" in printed
    assert "FAILING" in printed

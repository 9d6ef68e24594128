"""Tests for ``tools/bench_summary.py``: the artifact aggregator.

Built around a synthetic ``BENCH_*.json`` tree rather than real
benchmark runs -- the tool's job is structural extraction and
rendering, which a handful of crafted artifacts (heterogeneous
schemas, a gated headline, junk files) exercises completely.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_summary  # noqa: E402


def write_artifacts(root: Path) -> list[Path]:
    artifacts = {
        # a gated benchmark: "speedup" is its HEADLINES entry
        "BENCH_parallel.json": {
            "workers": 4,
            "speedup": 3.25,
            "serial": {"records_per_s": 120_000.0},
        },
        # nested headline path (e2e gates on gate.e2e_speedup)
        "BENCH_e2e.json": {
            "gate": {"e2e_speedup": 2.5},
            "detail": {"ratio": 0.8},
        },
        # a ceiling-gated headline (lower is better) plus an ungated
        # sibling leaf under another path
        "BENCH_obs.json": {
            "overhead": {"disabled_overhead_ratio": 0.004},
            "gate": {"disabled_overhead_ratio": 0.004},
            "notes": "not a number",
        },
    }
    paths = []
    for name, payload in artifacts.items():
        path = root / name
        path.write_text(json.dumps(payload))
        paths.append(path)
    return paths


class TestNumericLeaves:
    def test_extracts_comparison_shaped_leaves_with_paths(self):
        data = {"a": {"speedup": 2.0, "count": 7}, "ratio": 0.5}
        leaves = dict(bench_summary.numeric_leaves(data))
        assert leaves == {"a.speedup": 2.0, "ratio": 0.5}

    def test_ignores_bools_and_strings(self):
        data = {"speedup": True, "ratio": "fast"}
        assert list(bench_summary.numeric_leaves(data)) == []


class TestSummarize:
    def test_renders_markdown_table_with_gated_rows_first(self, tmp_path):
        paths = write_artifacts(tmp_path)
        table = bench_summary.summarize(paths)
        lines = table.splitlines()
        assert lines[0].startswith("| benchmark ")
        # e2e's nested headline and parallel's flat one are gated
        gated = [line for line in lines if "**gated**" in line]
        assert any("gate.e2e_speedup" in line for line in gated)
        assert any(
            "parallel" in line and "| speedup |" in line for line in gated
        )
        # obs gates only the gate.* path; the overhead.* sibling stays plain
        assert any("gate.disabled_overhead_ratio" in line for line in gated)
        ungated = [line for line in lines if "**gated**" not in line]
        assert any("overhead.disabled_overhead_ratio" in line for line in ungated)

    def test_bench_name_strips_prefix(self):
        assert bench_summary.bench_name(Path("BENCH_obs.json")) == "obs"
        assert bench_summary.bench_name(Path("other.json")) == "other"

    def test_unreadable_artifact_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "BENCH_broken.json"
        bad.write_text("{not json")
        table = bench_summary.summarize([bad])
        assert "(unreadable)" in table

    def test_artifact_without_metrics_reported(self, tmp_path):
        empty = tmp_path / "BENCH_empty.json"
        empty.write_text(json.dumps({"note": "nothing numeric"}))
        table = bench_summary.summarize([empty])
        assert "(no metrics)" in table


class TestMain:
    def test_main_prints_table_and_appends_out(self, tmp_path, capsys):
        paths = write_artifacts(tmp_path)
        out = tmp_path / "summary.md"
        rc = bench_summary.main(
            [str(p) for p in paths] + ["--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "| benchmark |" in printed
        written = out.read_text()
        assert "## Benchmark summary" in written
        assert "e2e_speedup" in written
        # append mode: a second run must not truncate the first
        bench_summary.main([str(paths[0]), "--out", str(out)])
        assert out.read_text().count("## Benchmark summary") == 2

    def test_main_without_artifacts_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert bench_summary.main([]) == 1
        assert "no BENCH_" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value,rendered",
    [(3.25, "3.25"), (120000.0, "120,000"), (0.004, "0.00")],
)
def test_fmt(value, rendered):
    assert bench_summary.fmt(value) == rendered

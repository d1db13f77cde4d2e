"""Consolidated results report generator.

Reads every JSON record under ``benchmarks/results/`` (written by the
benchmark files) and renders one markdown document — a regenerable
companion to EXPERIMENTS.md holding the actual numbers of the latest run.

Usage::

    python -m repro report            # writes benchmarks/results/RESULTS.md
    python -m repro report --stdout
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.runner import format_bars, format_table, results_dir

__all__ = ["collect_records", "render_markdown", "write_report"]

#: canonical ordering of experiments in the report
_ORDER = [
    "table1", "table3", "table4", "fig2", "fig3", "fig4", "fig5",
    "table5", "fig6", "fig7", "table6", "fig8", "selector_accuracy",
    "batch_variance", "weight_sensitivity", "model_sensitivity", "ablation_components",
    "ablation_dp", "ablation_transfer_modes", "ext_multi_gpu", "ext_incore",
    "kernels", "transfers", "cluster", "dynamic", "serve",
]


def collect_records(directory: str | Path | None = None) -> list[dict]:
    """Load all saved experiment records, canonical order first."""
    directory = Path(directory) if directory else results_dir()
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict) and "experiment" in data:
            records.append(data)
    rank = {name: i for i, name in enumerate(_ORDER)}
    records.sort(key=lambda r: rank.get(r["experiment"], len(_ORDER)))
    return records


def render_markdown(records: list[dict]) -> str:
    """Render the records as one markdown document."""
    lines = [
        "# Benchmark results",
        "",
        "Regenerated from `benchmarks/results/*.json` "
        "(`pytest benchmarks/ --benchmark-only`, then `python -m repro report`).",
        "",
    ]
    for rec in records:
        lines.append(f"## {rec['experiment']} — {rec['title']}")
        lines.append("")
        lines.append(f"*Paper expectation:* {rec['paper_expectation']}")
        lines.append("")
        if rec["rows"]:
            lines.append("```")
            lines.append(format_table(rec["rows"]))
            bar_key = next(
                (k for k in ("speedup", "dp_speedup", "batching_speedup", "johnson_s")
                 if rec["rows"] and k in rec["rows"][0]),
                None,
            )
            label_key = next(
                (k for k in ("graph", "device", "edge_factor", "quantity", "n")
                 if rec["rows"] and k in rec["rows"][0]),
                None,
            )
            if bar_key and label_key and rec["experiment"].startswith(("fig", "ablation", "ext")):
                lines.append("")
                lines.append(format_bars(rec["rows"], label_key, bar_key))
            lines.append("```")
        for note in rec.get("notes", []):
            lines.append(f"> {note}")
        lines.append("")
    if not records:
        lines.append("_No records found — run the benchmarks first._")
    return "\n".join(lines)


def write_report(directory: str | Path | None = None, *, output: str | Path | None = None) -> Path:
    """Collect, render, and write ``RESULTS.md``; returns the path."""
    directory = Path(directory) if directory else results_dir()
    text = render_markdown(collect_records(directory))
    out = Path(output) if output else directory / "RESULTS.md"
    out.write_text(text)
    return out

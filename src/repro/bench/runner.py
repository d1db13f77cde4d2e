"""Experiment runner utilities shared by all benchmark files."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cpumodel.model import HASWELL_32, XEON_E5_2680, CpuSpec
from repro.gpu.device import K80, V100, DeviceSpec

__all__ = [
    "ExperimentRecord",
    "cpu_profile",
    "device_profile",
    "format_bars",
    "format_table",
    "results_dir",
]

#: default linear scale for benchmark experiments (matches the suite)
BENCH_SCALE = 1.0 / 64.0


def device_profile(
    profile: str = "ratio",
    *,
    base: DeviceSpec = V100,
    scale: float = BENCH_SCALE,
) -> DeviceSpec:
    """Per-experiment device operating points.

    * ``"ratio"`` — the default: compute rates and PCIe throughput both
      scale with ``s``, preserving every cross-device/cross-algorithm ratio
      whose work terms share a scaling exponent (Figs 2–7, Table V).
    * ``"transfer"`` — physical PCIe speed retained (``transfer_exponent=0``)
      so the boundary algorithm's small strided copies stay in the paper's
      latency-bound regime (Fig 8's ablation).
    * ``"crossover"`` — ``relax_exponent=0.5`` positions the FW/Johnson
      crossover at the paper's average-degree operating point (Table VI).
    """
    if profile == "ratio":
        return base.scaled(scale)
    if profile == "transfer":
        return base.scaled(scale, transfer_exponent=0.0)
    if profile == "crossover":
        return base.scaled(scale, relax_exponent=0.5)
    raise ValueError(f"unknown device profile {profile!r}")


def cpu_profile(*, base: CpuSpec = XEON_E5_2680, scale: float = BENCH_SCALE) -> CpuSpec:
    """The CPU model matching :func:`device_profile`'s scale."""
    return base.scaled(scale)


def results_dir() -> Path:
    """Directory where experiment records are written (created on demand).

    Overridable with ``REPRO_RESULTS_DIR`` so CI can redirect output.
    """
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class ExperimentRecord:
    """Rows of one regenerated table/figure plus paper-expectation metadata."""

    experiment: str  # e.g. "fig2"
    title: str
    paper_expectation: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **row) -> dict:
        self.rows.append(row)
        return row

    def note(self, text: str) -> None:
        self.notes.append(text)

    def note_config(self, config: dict, **extra) -> None:
        """Note one configuration as ``name: key=value, ...``: its
        parameters, then ``extra``."""
        fields = {**config, **extra}
        name = fields.pop("name")
        self.note(f"{name}: " + ", ".join(f"{k}={v}" for k, v in fields.items()))

    def save(self) -> Path:
        path = results_dir() / f"{self.experiment}.json"
        path.write_text(json.dumps(asdict(self), indent=2, default=str))
        return path

    def print(self) -> None:
        print(f"\n=== {self.experiment}: {self.title} ===")
        print(f"paper: {self.paper_expectation}")
        if self.rows:
            print(format_table(self.rows))
        for note in self.notes:
            print(f"note: {note}")


def format_bars(
    rows: list[dict],
    label_key: str,
    value_key: str,
    *,
    width: int = 48,
) -> str:
    """ASCII bar chart — the terminal rendering of the paper's figures."""
    vals = [float(r.get(value_key, 0) or 0) for r in rows]
    if not vals:
        return "(no rows)"
    peak = max(vals) or 1.0
    label_w = max(len(str(r.get(label_key, ""))) for r in rows)
    lines = []
    for row, v in zip(rows, vals):
        bar = "█" * max(1 if v > 0 else 0, round(width * v / peak))
        lines.append(f"{str(row.get(label_key, '')):<{label_w}}  {bar} {v:.3g}")
    return "\n".join(lines)


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Align a list of row dicts into a text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:  # union of keys, first-seen order
            for key in row:
                if key not in columns:
                    columns.append(key)

    def fmt(v) -> str:
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000 or abs(v) < 0.001:
                return f"{v:.3g}"
            return f"{v:.3f}"
        return str(v)

    table = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(columns[i]), max(len(r[i]) for r in table)) for i in range(len(columns))
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in table]
    return "\n".join(lines)

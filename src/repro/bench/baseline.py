"""Shared steps of the committed ``BENCH_*.json`` baselines.

Each bench module (:mod:`~repro.bench.transfers`, :mod:`~repro.bench.cluster`,
:mod:`~repro.bench.dynamic`, :mod:`~repro.bench.serve`,
:mod:`~repro.bench.kernels`) records one JSON file at the repository root;
the four modeled ones re-collect it under ``--check`` and diff the two.
This module holds what they share: where a file lives, reading it,
writing it only when its text changes (plus the report mirror under
``benchmarks/results/``), and the nested per-configuration diff.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.bench.runner import results_dir

__all__ = [
    "REPO_ROOT",
    "baseline_path",
    "diff_configs",
    "read_json",
    "record",
    "write_if_changed",
]

#: where the canonical ``BENCH_*.json`` files live
REPO_ROOT = Path(__file__).resolve().parents[3]


def baseline_path(filename: str, env: str) -> Path:
    """``$env`` when set, else ``filename`` at the repository root."""
    override = os.environ.get(env)
    return Path(override) if override else REPO_ROOT / filename


def read_json(path: Path | str) -> dict:
    """Read one baseline file."""
    return json.loads(Path(path).read_text())


def write_if_changed(path: Path | str, payload: dict, *, sort_keys: bool = True) -> Path:
    """Write ``payload`` as indented JSON unless the file already holds
    exactly that text — keeps mtimes (and VCS status) quiet across no-op
    re-runs."""
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n"
    if not (path.exists() and path.read_text() == text):
        path.write_text(text)
    return path


def record(
    payload: dict,
    path: Path | str,
    *,
    sort_keys: bool = True,
    mirror: Callable[[dict], dict] | None = None,
) -> Path:
    """Write a baseline, and its report record when ``mirror`` is given.

    The record goes to ``<results_dir>/<experiment>.json`` only when
    ``path`` is the canonical ``BENCH_<experiment>.json`` at the root, so
    a test- or env-redirected run never touches the committed mirror.
    """
    path = write_if_changed(path, payload, sort_keys=sort_keys)
    name = payload["experiment"]
    if mirror is not None and path.resolve() == REPO_ROOT / f"BENCH_{name}.json":
        write_if_changed(results_dir() / f"{name}.json", mirror(payload))
    return path


def diff_configs(
    baseline: dict,
    current: dict,
    fields: Sequence[str],
    *,
    rows: str | None = None,
    label: str = "",
) -> list[str]:
    """Drift messages between two ``{"configs": {name: entry}}`` payloads.

    Without ``rows`` each entry's ``fields`` are compared directly
    (``"<name>: <field> drifted a -> b"``). With ``rows``, each entry
    holds a dict of rows under that key, compared row by row and named
    ``"<name>/<label><key>"``. Missing and new configurations are
    reported too; an empty list means no drift.
    """
    recorded_configs = baseline.get("configs", {})
    current_configs = current["configs"]
    drifts: list[str] = []
    for name, entry in recorded_configs.items():
        cur = current_configs.get(name)
        if cur is None:
            drifts.append(f"{name}: configuration missing from current run")
            continue
        pairs: list[tuple[str, Any, Any]] = (
            [(name, entry, cur)]
            if rows is None
            else [
                (f"{name}/{label}{key}", row, cur[rows].get(key))
                for key, row in entry[rows].items()
            ]
        )
        for where, recorded, actual in pairs:
            if actual is None:
                drifts.append(f"{where}: missing from current run")
                continue
            drifts += [
                f"{where}: {field} drifted "
                f"{recorded.get(field)!r} -> {actual.get(field)!r}"
                for field in fields
                if recorded.get(field) != actual.get(field)
            ]
    drifts += [
        f"{name}: new configuration not in baseline (re-record)"
        for name in current_configs
        if name not in recorded_configs
    ]
    return drifts

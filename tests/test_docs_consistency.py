"""Docs/code consistency gates.

A reproduction's documentation is part of its deliverable: the DESIGN.md
experiment index must reference benchmark files that exist, every benchmark
file must be indexed, and the claims-bearing docs must mention every
experiment id they promise.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"


def bench_files_on_disk() -> set[str]:
    return {
        p.name
        for p in BENCH_DIR.glob("test_*.py")
    }


def test_design_index_references_existing_benches():
    design = (ROOT / "DESIGN.md").read_text()
    referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
    assert referenced, "DESIGN.md lists no benchmark targets"
    missing = referenced - bench_files_on_disk()
    assert not missing, f"DESIGN.md references nonexistent benches: {missing}"


def test_every_bench_is_documented():
    design = (ROOT / "DESIGN.md").read_text()
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    docs = design + experiments
    undocumented = [
        name for name in bench_files_on_disk()
        if name not in docs
    ]
    assert not undocumented, f"benches missing from DESIGN/EXPERIMENTS: {undocumented}"


def test_experiments_covers_every_paper_artifact():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in [
        "Table I", "Table II", "Table III", "Table IV", "Table V",
        "Table VI", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Figs 6", "Fig 8",
        "selector accuracy", "batch variance",
    ]:
        assert artifact.lower() in experiments.lower(), artifact


def test_committed_results_report_is_the_render_of_its_records():
    """``benchmarks/results/RESULTS.md`` is what ``python -m repro report``
    renders from the JSON records committed beside it."""
    from repro.bench.report import collect_records, render_markdown

    results = BENCH_DIR / "results"
    assert (results / "RESULTS.md").read_text() == render_markdown(collect_records(results))


def test_readme_links_resolve():
    readme = (ROOT / "README.md").read_text()
    for link in re.findall(r"\]\(([\w./]+\.md)\)", readme):
        assert (ROOT / link).exists(), link


def test_examples_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in readme, f"{example.name} not mentioned in README"

"""The one audit record every schedule verifier reports.

``verify-plan``, ``verify-cluster`` and ``verify-update`` return the same
:class:`~repro.verifyplan.Verification` of :class:`~repro.verifyplan.Audit`
records. A failure in any single part — a residency/transfer finding, a
closed-form bound, a happens-before finding or a named check — must turn
the verdict, name that part in the text and exit the command with 1.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.cluster import ClusterSpec, verify_cluster
from repro.dynamic import DEFAULT_UPDATE_CONFIGS, verify_update
from repro.gpu.device import TEST_DEVICE
from repro.graphs.generators import rmat
from repro.verifyplan import BoundCheck, Check, HBFinding, PlanFinding, verify_plan

GRAPH = ["rmat:n=96,m=576,seed=3", "--device", "test", "--scale", "1"]

#: name -> (build a clean report, module the CLI imports it from, CLI argv)
VERIFIERS = {
    "verify-plan": (
        lambda: verify_plan(rmat(96, 576, seed=3), TEST_DEVICE),
        "repro.verifyplan.verify_plan", ["verify-plan", *GRAPH],
    ),
    "verify-cluster": (
        lambda: verify_cluster(96, ClusterSpec.make(2, 1), graph=rmat(96, 576, seed=3)),
        "repro.cluster.verify_cluster", ["verify-cluster", *GRAPH],
    ),
    "verify-update": (
        lambda: verify_update(TEST_DEVICE, DEFAULT_UPDATE_CONFIGS[1:2]),
        "repro.dynamic.verify_update", ["verify-update"],
    ),
}


@pytest.fixture(scope="module")
def clean_reports():
    return {name: build() for name, (build, _, _) in VERIFIERS.items()}


def _break(part: str, ver) -> str:
    """Fail one part of ``ver`` in place; return the text naming it."""
    audit = next(iter(ver.audits.values()))
    if part == "finding":
        audit.findings.append(
            PlanFinding("undefined-read", "seeded-buffer", "seeded finding", 3)
        )
        return "undefined-read: buffer 'seeded-buffer'"
    if part == "bound":
        audit.bounds.append(BoundCheck("seeded-bound", expected=1, actual=2))
        return "seeded-bound: actual 2 == expected 1 [FAILED]"
    if part == "hb":
        audit.hb.findings.append(HBFinding(
            "unordered-conflict", "seeded-buffer", ("copy", "compute"),
            "#1:h2d@copy", "#2:k@compute", "seeded race",
        ))
        return "[unordered-conflict] on seeded-buffer"
    if part == "audit-check":
        audit.checks.append(Check("seeded-audit-check", False, "seeded"))
        return "seeded-audit-check: FAILED — seeded"
    ver.checks.append(Check("seeded-check", False))
    return "seeded-check: FAILED"


@pytest.mark.parametrize("part", ["finding", "bound", "hb", "audit-check", "check"])
@pytest.mark.parametrize("verifier", list(VERIFIERS))
def test_any_failed_part_fails_the_report(
    verifier, part, clean_reports, monkeypatch, capsys
):
    clean = clean_reports[verifier]
    assert clean.ok, clean.describe()
    ver = copy.deepcopy(clean)
    named = _break(part, ver)
    assert not ver.ok
    text = ver.describe()
    assert text.splitlines()[0].endswith("— FAILED")
    assert named in text
    payload = json.loads(json.dumps(ver.to_dict()))
    assert payload["ok"] is False
    assert payload == ver.to_dict()

    _, target, argv = VERIFIERS[verifier]
    monkeypatch.setattr(target, lambda *args, **kwargs: ver)
    assert main(argv) == 1
    assert named in capsys.readouterr().out
    assert main([*argv, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False

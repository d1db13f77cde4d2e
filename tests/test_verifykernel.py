"""Cross-validation tests for the native-kernel verification layer.

The layer's promise is two-sided and these tests hold both sides at
once: the static analyzer and the sanitizer harness must each stay
*silent* on the shipped kernels and each *fire* on every seeded defect
(off-by-one subscript, dropped remainder guard, CSR slice overrun).
Dynamic legs self-skip on toolchains without a compiler or sanitizer
runtime; the static side runs everywhere.
"""

import json

import numpy as np
import pytest

from repro.core.backends.jit import (
    _DEGRADED_CFLAGS,
    KERNEL_TEMPLATES,
    KernelTemplate,
    cc_compiler,
    compile_cc_so,
)
from repro.verifykernel import (
    DEFECTS,
    SCHEMA_VERSION,
    run_matrix,
    sanitizer_available,
    static_findings,
    verify_kernels,
)
from repro.verifykernel import cparse
from repro.verifykernel.alias import derive_alias_class
from repro.verifykernel.bounds import analyze_kernel, check_kernel_bounds
from repro.verifykernel.defects import defect_by_name

TPL = {t.name: t for t in KERNEL_TEMPLATES}

needs_cc = pytest.mark.skipif(cc_compiler() is None, reason="needs a C compiler")


# ----------------------------------------------------------------------
# Static pillar: parser, proofs, alias classes
# ----------------------------------------------------------------------
def test_every_template_parses():
    for t in KERNEL_TEMPLATES:
        fn = cparse.parse_kernel(t.source)
        assert fn.name == t.name


def test_clean_kernels_prove_clean():
    assert static_findings() == []


def test_derived_alias_classes_match_declarations():
    for t in KERNEL_TEMPLATES:
        analysis = analyze_kernel(cparse.parse_kernel(t.source), t.arrays)
        cls, findings = derive_alias_class(analysis, t)
        assert findings == [], f"{t.name}: {[f.describe() for f in findings]}"
        assert cls == t.alias_class, t.name


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d.name)
def test_each_seeded_defect_is_caught_statically(defect):
    findings = static_findings(overrides=defect.overrides(TPL))
    checks = {f.check for f in findings}
    assert defect.static_check in checks, (
        f"{defect.name}: expected a {defect.static_check!r} finding, got {checks}"
    )


def test_parallel_loop_is_a_finding():
    """Nothing proves a thread split's write regions disjoint, so a
    ``#pragma omp parallel`` loop cannot pass the static pass."""
    head = "for (i64 k0 = 0; k0 < bk; k0 += tile) {"
    source = TPL["mp_update_f32"].source
    assert source.count(head) == 1
    split = source.replace(head, "#pragma omp parallel for\n    " + head)
    findings = static_findings(overrides={"mp_update_f32": split})
    assert [(f.check, f.kernel) for f in findings] == [("parallel", "mp_update_f32")]


# ----------------------------------------------------------------------
# Soundness: a value the analysis cannot follow is never assumed
# ----------------------------------------------------------------------
_ROW = {"d": {"rows": "1", "cols": "n", "stride": "n", "mode": "w"}}


def _probe_checks(source, arrays=_ROW):
    template = KernelTemplate("probe", source, arrays, "k-sequential")
    return [f.check for f in check_kernel_bounds(template, cparse.parse_kernel(source))[1]]


def test_assignment_inside_if_reaches_the_join():
    """``m`` is ``n`` or ``n + 5`` after the if; the loop writes d[n + 4]."""
    source = (
        "void probe(float *d, i64 n, i64 wide) { i64 m = n; if (wide > 0) m = n + 5;"
        " for (i64 i = 0; i < m; i++) d[i] = 0; }"
    )
    assert _probe_checks(source) == ["bounds"]


def test_loop_counter_is_not_its_entry_value():
    """``k`` is 0 only in the first iteration; the loop writes up to d[2n - 2]."""
    source = (
        "void probe(float *d, i64 n) { if (n > 0) { i64 k = 0;"
        " for (i64 i = 0; i < n; i++) { d[k] = 0; k += 2; } } }"
    )
    assert _probe_checks(source) == ["bounds"]


def test_break_parses_and_ends_its_branch():
    source = (
        "void probe(float *d, i64 n) { for (i64 i = 0; i < n; i++) {"
        " if (i > 3) break; d[i] = 0; } }"
    )
    guard = cparse.parse_kernel(source).body.stmts[0].body.stmts[0]
    assert isinstance(guard.then.stmts[0], cparse.Break)
    assert _probe_checks(source) == []


def test_value_range_bounds_reads_and_binds_writes():
    arrays = {
        "idx": {"len": "n", "mode": "rw", "values": "[0, n)"},
        "d": {"len": "n", "mode": "w"},
    }
    source = (
        "void probe(i64 *idx, float *d, i64 n) { for (i64 i = 0; i < n; i++) {"
        " d[idx[i]] = 0; idx[i] = i; } }"
    )
    assert _probe_checks(source, arrays) == []
    assert _probe_checks(source.replace("idx[i] = i;", "idx[i] = i + 1;"), arrays) == ["values"]
    unranged = {**arrays, "idx": {"len": "n", "mode": "rw"}}
    assert _probe_checks(source, unranged) == ["bounds"]


def test_defect_apply_refuses_drifted_source():
    d = defect_by_name("off_by_one_subscript")
    with pytest.raises(ValueError, match="drifted"):
        d.apply("int unrelated(void) { return 0; }")


# ----------------------------------------------------------------------
# Dynamic pillar: oracle matrix on a plain build (no sanitizer needed)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def plain_kernels(tmp_path_factory):
    from repro.verifykernel.matrixrun import _load

    cc = cc_compiler()
    if cc is None:
        pytest.skip("needs a C compiler")
    cache = tmp_path_factory.mktemp("vk-jit-cache")
    so, _ = compile_cc_so(cc, list(_DEGRADED_CFLAGS), cache_dir=cache)
    return _load(so)


@needs_cc
def test_matrix_clean_on_shipped_kernels(plain_kernels):
    from repro.verifykernel.matrixrun import run_matrix_cases

    cases = run_matrix_cases(plain_kernels, fast=True)
    bad = [c for c in cases if not c["ok"]]
    assert not bad, bad


# ----------------------------------------------------------------------
# Dynamic pillar: sanitizer legs (self-skipping)
# ----------------------------------------------------------------------
def _needs_sanitizer(mode):
    return pytest.mark.skipif(
        not sanitizer_available(mode), reason=f"toolchain lacks {mode}"
    )


@_needs_sanitizer("ubsan")
def test_ubsan_leg_clean_on_shipped_kernels():
    r = run_matrix("ubsan", fast=True)
    assert r.ran and r.clean, r.detail


@_needs_sanitizer("asan")
def test_asan_catches_off_by_one_subscript():
    d = defect_by_name("off_by_one_subscript")
    r = run_matrix("asan", overrides=d.overrides(TPL), fast=True)
    assert r.ran and r.faulted, (r.returncode, r.detail)


@_needs_sanitizer("asan")
def test_asan_catches_csr_slice_overrun():
    """The Near-Far matrix relaxes every graph's last vertex, so reading
    ``indptr[v + 2]`` reads one past the end of ``indptr``."""
    d = defect_by_name("csr_slice_overrun")
    r = run_matrix("asan", overrides=d.overrides(TPL), fast=True)
    assert r.ran and r.faulted, (r.returncode, r.detail)



# ----------------------------------------------------------------------
# Report aggregation and downstream consumers
# ----------------------------------------------------------------------
def test_verify_kernels_static_report():
    ver = verify_kernels()  # static-only: no sanitizer legs requested
    assert ver.ok
    payload = ver.to_dict()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["ok"] is True
    assert payload["findings"] == []
    json.dumps(payload)  # must be serialisable as-is

"""Seeded-defect registry for cross-validating static vs dynamic checks.

Each defect is a minimal, realistic bug injected into one kernel
template via exact-match source substitution. The verification pipeline
applies each defect and asserts that it is caught **both** by the static
analyzer (bounds pass) and by the matching sanitizer (ASan) — the same
static-vs-dynamic cross-validation the happens-before checker uses. A
defect whose substitution no longer matches the shipped kernel source
fails loudly (`apply` raises), so the suite cannot rot into silently
testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFECTS", "SeededDefect", "defect_by_name"]


@dataclass(frozen=True)
class SeededDefect:
    """One injected bug and the checks expected to catch it."""

    name: str
    kernel: str  # template name
    old: str
    new: str
    dynamic: str  # sanitizer mode of the dynamic catcher (asan)
    static_check: str  # finding .check expected from the static pass
    description: str

    def apply(self, source: str) -> str:
        """Return ``source`` with the defect injected (exact, unique match)."""
        count = source.count(self.old)
        if count != 1:
            raise ValueError(
                f"defect {self.name!r}: expected exactly one match for "
                f"{self.old!r} in target source, found {count} — the kernel "
                f"source drifted; update the defect registry"
            )
        return source.replace(self.old, self.new, 1)

    def overrides(self, templates_by_name: dict) -> dict[str, str]:
        """kernel_source ``overrides`` mapping with the bug."""
        return {self.kernel: self.apply(templates_by_name[self.kernel].source)}


DEFECTS: tuple[SeededDefect, ...] = (
    SeededDefect(
        name="off_by_one_subscript",
        kernel="fw_inplace_f32",
        old="for (i64 j = 0; j < n; j++) {\n                float cand",
        new="for (i64 j = 0; j <= n; j++) {\n                float cand",
        dynamic="asan",
        static_check="bounds",
        description="remainder-row column loop runs one element past the tile "
        "(classic <= for <), reading/writing one float past the last row",
    ),
    SeededDefect(
        name="dropped_remainder_guard",
        kernel="mp_update_f32",
        old="for (; k + 4 <= k1; k += 4)",
        new="for (; k < k1; k += 4)",
        dynamic="asan",
        static_check="bounds",
        description="register-blocked pivot loop loses its 4-wide guard, so "
        "a partial final group reads up to 3 pivots past the tile edge",
    ),
    SeededDefect(
        name="csr_slice_overrun",
        kernel="near_far_f64",
        old="i64 hi = indptr[v + 1];",
        new="i64 hi = indptr[v + 2];",
        dynamic="asan",
        static_check="bounds",
        description="Near-Far reads the end of the next vertex's CSR slice, so "
        "relaxing the last vertex reads indptr[n + 1], one past the array",
    ),
    SeededDefect(
        name="dropped_record_guard",
        kernel="near_far_f64",
        old="if (nr < cap) rd_heavy[nr] = round_hv[t];",
        new="rd_heavy[nr] = round_hv[t];",
        dynamic="asan",
        static_check="bounds",
        description="Near-Far records a round's heavy edges without its capacity "
        "guard, so a range that runs more rounds than its records hold writes "
        "past the end of rd_heavy",
    ),
)


def defect_by_name(name: str) -> SeededDefect:
    for defect in DEFECTS:
        if defect.name == name:
            return defect
    raise KeyError(name)

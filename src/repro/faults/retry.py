"""Retry policy and fault accounting for guarded device operations.

:class:`RetryPolicy` bounds how often the substrate re-attempts an
operation that raised a :class:`~repro.gpu.errors.TransientDeviceError`
and how long the host backs off between attempts. The backoff is charged
to the simulated :class:`~repro.gpu.timeline.Clock` on a dedicated
``"host"`` engine, so a recovered run's ``simulated_seconds`` honestly
includes the time lost to faults. The policy is deterministic (no
jitter): identical fault plans give identical timelines.

:class:`FaultReport` is the per-run ledger: faults injected (per site),
retries spent, retry budgets exhausted, checkpoint stages resumed and
written, and backoff seconds charged. It rides on
:attr:`repro.core.result.APSPResult.faults` and in ``repro solve --json``
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FaultReport", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff.

    ``max_attempts`` counts *attempts*, not retries: the default of 4
    tolerates up to 3 consecutive transient faults on one operation
    before giving up and re-raising the last error.
    """

    max_attempts: int = 4
    base_delay: float = 1e-4
    multiplier: float = 2.0
    max_delay: float = 1e-2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ValueError("delays must be non-negative and multiplier >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff charged before retry following failed attempt ``attempt``
        (1-based): ``min(max_delay, base_delay · multiplier^(attempt-1))``."""
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


@dataclass
class FaultReport:
    """Ledger of fault-injection and recovery activity for one run."""

    injected: int = 0
    injected_by_site: dict[str, int] = field(default_factory=dict)
    retried: int = 0
    exhausted: int = 0
    resumed: int = 0
    checkpoints_written: int = 0
    backoff_seconds: float = 0.0

    def count_injected(self, site: str) -> None:
        """Record one injected fault at ``site``."""
        self.injected += 1
        self.injected_by_site[site] = self.injected_by_site.get(site, 0) + 1

    def merged(self, other: "FaultReport") -> "FaultReport":
        """Componentwise sum (multi-GPU runs merge per-device reports)."""
        by_site = dict(self.injected_by_site)
        for site, count in other.injected_by_site.items():
            by_site[site] = by_site.get(site, 0) + count
        return FaultReport(
            injected=self.injected + other.injected,
            injected_by_site=by_site,
            retried=self.retried + other.retried,
            exhausted=self.exhausted + other.exhausted,
            resumed=self.resumed + other.resumed,
            checkpoints_written=self.checkpoints_written + other.checkpoints_written,
            backoff_seconds=self.backoff_seconds + other.backoff_seconds,
        )

    def to_dict(self) -> dict:
        """JSON-safe payload for ``--json`` output."""
        return {
            "injected": self.injected,
            "injected_by_site": dict(self.injected_by_site),
            "retried": self.retried,
            "exhausted": self.exhausted,
            "resumed": self.resumed,
            "checkpoints_written": self.checkpoints_written,
            "backoff_seconds": self.backoff_seconds,
        }

    @property
    def clean(self) -> bool:
        """True when the run saw no faults and resumed nothing."""
        return self.injected == 0 and self.resumed == 0

"""Device-lifetime projection from measured wear, WAF, and P/E budgets.

The paper reports *first failure time* directly (Figure 5); this module
turns any measured run — including short fixed-horizon ones — into the
industry-standard endurance vocabulary: write amplification factor
(WAF), total bytes written (TBW), drive writes per day (DWPD), and a
projected first-failure horizon.

One WAF-aware chokepoint
------------------------
:func:`first_failure_horizon` is the single formula every lifetime
extrapolation in the repository goes through.  It linearly extrapolates
the hottest block's erase rate to the endurance budget, optionally
rescaled by a projected/observed WAF ratio — an extrapolation that
ignores write amplification misjudges any workload whose WAF will
differ from the observed one.

Exact WAF
---------
For these backends WAF is exact, not estimated: every physical page
program is either a host write or a GC/SWL live copy, so

    ``total_programs == pages_written + live_page_copies``

(asserted by tests against :meth:`StorageBackend.total_programs`), and

    ``WAF = (pages_written + live_page_copies) / pages_written``

is computable from any :class:`~repro.sim.engine.SimResult` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flash.geometry import FlashGeometry
    from repro.sim.engine import SimResult

#: Seconds per day, for DWPD conversions.
SECONDS_PER_DAY = 86_400.0


def first_failure_horizon(
    observed_time: float,
    endurance: int,
    max_erase_count: int,
    *,
    waf_ratio: float = 1.0,
) -> float:
    """Project the first block wear-out instant, in simulated seconds.

    Linear extrapolation of the hottest block's erase rate:
    ``observed_time * endurance / (max_erase_count * waf_ratio)``.

    ``waf_ratio`` is projected WAF over observed WAF — the factor by
    which future erase rates exceed the measured ones when the workload
    ahead amplifies more than the workload behind (1.0 when the measured
    WAF is representative, the default).  A device whose hottest block
    never erased projects to infinity.
    """
    if observed_time <= 0:
        raise ValueError(f"observed_time must be positive, got {observed_time}")
    if endurance <= 0:
        raise ValueError(f"endurance must be positive, got {endurance}")
    if max_erase_count < 0:
        raise ValueError(
            f"max_erase_count must be non-negative, got {max_erase_count}"
        )
    if waf_ratio <= 0:
        raise ValueError(f"waf_ratio must be positive, got {waf_ratio}")
    if max_erase_count == 0:
        return float("inf")
    return observed_time * endurance / (max_erase_count * waf_ratio)


@dataclass(frozen=True)
class EnduranceProjection:
    """One run's lifetime numbers in DWPD/TBW/GB-day vocabulary.

    ``tbw_bytes`` is the *first-failure* TBW: host bytes writable before
    the hottest block exhausts its budget, at the measured skew and WAF.
    ``tbw_ideal_bytes`` is the same under perfect leveling (every block
    erases at the average rate); the gap between the two is exactly what
    a wear leveler can recover.
    """

    label: str
    observed_time: float            #: simulated seconds measured
    endurance: int                  #: P/E-cycle budget per block
    capacity_bytes: int             #: device capacity (all channels)
    host_bytes_written: int
    physical_pages_programmed: int
    waf: float
    erase_average: float
    erase_maximum: int
    wear_skew: float                #: max / average erase count
    tbw_bytes: float                #: host bytes until first failure
    tbw_ideal_bytes: float          #: host bytes under perfect leveling
    days_at_one_dwpd: float         #: tbw / capacity — days at 1 DWPD
    projected_first_failure_s: float

    @property
    def projected_first_failure_days(self) -> float:
        return self.projected_first_failure_s / SECONDS_PER_DAY

    def dwpd_over(self, days: float) -> float:
        """The sustained DWPD that exhausts the device in ``days``."""
        if days <= 0:
            raise ValueError(f"days must be positive, got {days}")
        return self.tbw_bytes / (self.capacity_bytes * days)

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "observed_time_s": self.observed_time,
            "endurance": self.endurance,
            "capacity_bytes": self.capacity_bytes,
            "host_bytes_written": self.host_bytes_written,
            "physical_pages_programmed": self.physical_pages_programmed,
            "waf": self.waf,
            "erase_average": self.erase_average,
            "erase_maximum": self.erase_maximum,
            "wear_skew": self.wear_skew,
            "tbw_bytes": self.tbw_bytes,
            "tbw_ideal_bytes": self.tbw_ideal_bytes,
            "days_at_one_dwpd": self.days_at_one_dwpd,
            "projected_first_failure_s": self.projected_first_failure_s,
            "projected_first_failure_days": self.projected_first_failure_days,
        }


def project_endurance(
    result: "SimResult",
    geometry: "FlashGeometry",
    *,
    label: str | None = None,
) -> EnduranceProjection:
    """Project a measured run's lifetime numbers.

    ``geometry`` is the per-channel chip geometry the run was built
    from; capacity scales by the result's channel count.  The run must
    have written at least one page (WAF is undefined otherwise).
    """
    if result.pages_written <= 0:
        raise ValueError(
            "cannot project endurance from a run with no host writes"
        )
    if result.sim_time <= 0:
        raise ValueError("cannot project endurance from a zero-length run")
    distribution = result.erase_distribution
    programs = result.pages_written + result.live_page_copies
    waf = programs / result.pages_written
    capacity = (
        geometry.num_blocks
        * geometry.pages_per_block
        * geometry.page_size
        * result.channels
    )
    host_bytes = result.pages_written * geometry.page_size
    maximum = distribution.maximum
    average = distribution.average
    skew = maximum / average if average > 0 else float("inf")
    endurance = geometry.endurance
    if maximum > 0:
        # Host bytes scale inversely with the hottest block's erase
        # count: it exhausts its budget after endurance/maximum times
        # the observed write volume.
        tbw = host_bytes * endurance / maximum
    else:
        tbw = float("inf")
    tbw_ideal = host_bytes * endurance / average if average > 0 else float("inf")
    horizon = first_failure_horizon(
        result.sim_time, endurance, maximum
    )
    return EnduranceProjection(
        label=label if label is not None else result.label,
        observed_time=result.sim_time,
        endurance=endurance,
        capacity_bytes=capacity,
        host_bytes_written=host_bytes,
        physical_pages_programmed=programs,
        waf=waf,
        erase_average=average,
        erase_maximum=maximum,
        wear_skew=skew,
        tbw_bytes=tbw,
        tbw_ideal_bytes=tbw_ideal,
        days_at_one_dwpd=tbw / capacity if capacity else 0.0,
        projected_first_failure_s=horizon,
    )

"""Power substrate.

* :mod:`~repro.power.profiles` — every chip draw, in one import leaf;
* :mod:`~repro.power.regulators`, :mod:`~repro.power.domains` — the
  regulators and the power domains they feed;
* :mod:`~repro.power.pmu` — the power management unit;
* :mod:`~repro.power.meter` — energy metering and duty-cycle profiles;
* :mod:`~repro.power.battery` — batteries and lifetimes.
"""

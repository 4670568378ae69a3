"""A physical-layer substitute for the paper's mote hardware.

The paper's model is motivated by empirical radio behaviour (Section 1.1):
capture effects produce non-uniform receive sets, ambient interference
loses 20-50% of messages, carrier sensing can detect collisions, and
drifting clocks are kept in step by reference broadcasts.  We have no
motes, so this package simulates the closest synthetic equivalents and
*measures* which formal detector class the simulated hardware achieves —
reproducing the shape of the paper's "zero completeness in ~100% of
rounds, majority completeness in over 90%" claim (Section 1.3).

* :mod:`repro.substrate.radio` — an SINR/capture single-hop channel.
* :mod:`repro.substrate.carrier_sense` — an energy-based collision
  detector plus per-round achieved-class measurement.
* :mod:`repro.substrate.clock` — drifting clocks with reference-broadcast
  resynchronisation, validating the synchronous-round abstraction.
* :mod:`repro.substrate.device` — glue: run a paper algorithm over the
  simulated physical layer end to end.
* :mod:`repro.substrate.multihop` — the multihop extension: graphs,
  neighbourhood-local losses and detection, and flooding.

The package imports no submodule up front: each public name resolves on
first access, importing only the submodule that defines it (PEP 562),
so a campaign whose cells run on a multihop ring never loads the radio
stack.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("radio", ("RadioChannel", "RadioConfig", "TransmissionOutcome")),
        ("carrier_sense", ("CarrierSenseDetector", "DetectorQualityStats",
                           "measure_detector_quality")),
        ("clock", ("ClockModel", "DriftingClock",
                   "ReferenceBroadcastSync")),
        ("device", ("Testbed", "TestbedResult")),
        ("multihop", ("MultihopNetwork", "MultihopLayer", "FloodResult",
                      "flood")),
    )
    for name in names
}

__all__ = list(_SUBMODULE_OF)

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULE_OF)


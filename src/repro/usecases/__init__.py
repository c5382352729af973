"""The paper's automotive and avionic use cases (section VI).

* :mod:`repro.usecases.acc` -- cooperative adaptive cruise control / platooning
  with LoS-dependent time margins (VI-A.1).
* :mod:`repro.usecases.intersection` -- intersection crossing with an
  infrastructure traffic light and a virtual-traffic-light fallback (VI-A.2).
* :mod:`repro.usecases.lane_change` -- coordinated lane-change manoeuvres
  (VI-A.3).
* :mod:`repro.usecases.avionics` -- the three RPV scenarios (VI-B).

Beyond the paper, three ROADMAP workloads composed on the
:mod:`repro.scenario` harness layer:

* :mod:`repro.usecases.urban_grid` -- multi-platoon city grid, one spectrum.
* :mod:`repro.usecases.corridor` -- chained multi-intersection arterial.
* :mod:`repro.usecases.mixed_airspace` -- RPV + ground V2V spectrum sharing.
"""

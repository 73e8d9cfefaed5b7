"""Machine-scale performance model (reproduces Figs. 10 and 11).

The paper's scaling runs use up to 524,288 core groups (34 million
cores), which cannot be executed here; this package predicts
time-to-solution from first principles instead:

* per-CG computation from the kernel timing model
  (:mod:`repro.sunway.kernel`) over the registered dycore kernels, with
  an LDCache capacity-reuse term that produces the strong-scaling
  plateaus the paper observes;
* communication from halo volumes (surface-to-volume of the METIS
  partition) over the fat-tree model (:mod:`repro.comm.topology`) with
  its 16:3 oversubscription contention;
* per-kernel-launch runtime overhead (the job-server spawn cost), which
  dominates at very small per-CG workloads — the regime of the 524k-CG
  strong-scaling points.

Absolute constants are calibrated so the headline endpoints land near
the paper's (491 SDPD G11S / 181 SDPD G12 at 524,288 CGs); the *shapes*
(who wins, where efficiency knees fall) emerge from the model.
"""

from repro.perf.metrics import sdpd_from_step_time
from repro.perf.model import PerformanceModel, PerfParams, StepCost
from repro.perf.scaling import strong_scaling_experiment, weak_scaling_experiment

__all__ = [
    "sdpd_from_step_time",
    "PerformanceModel",
    "PerfParams",
    "StepCost",
    "weak_scaling_experiment",
    "strong_scaling_experiment",
]

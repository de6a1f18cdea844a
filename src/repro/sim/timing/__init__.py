"""Task-granularity timing simulation of a Multiscalar processor.

Reproduces the role of the paper's "detailed timing simulator" (§3.1,
Table 4): a global sequencer dispatches predicted tasks onto a ring of
processing units; tasks execute speculatively, forward values in program
order, and commit in FIFO order; a task misprediction squashes all younger
work and redirects the sequencer when the mispredicted task completes.

The model is task-granular — per-task execution latency is derived from the
trace's instruction and intra-task-mispredict counts rather than simulating
each instruction — and is calibrated so the perfect-prediction bound lands
in the paper's 1.8–2.8 IPC band. Table 4's *comparisons* (Simple < GLOBAL /
PER < PATH < Perfect, with PATH gaining ~5–12% where its accuracy advantage
is largest) are the reproduction target.
"""

from repro.sim.timing.config import TimingConfig
from repro.sim.timing.machine import TimingResult, simulate_timing

__all__ = [
    "TimingConfig",
    "TimingResult",
    "simulate_timing",
]

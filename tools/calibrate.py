"""Calibration helper: report Table-2-style stats for each profile."""
import sys
import numpy as np
from repro.synth.workloads import load_workload
from repro.synth.trace import CF_TYPE_FROM_CODE

names = sys.argv[1:] or ['gcc', 'compress', 'espresso', 'sc', 'xlisp']
for name in names:
    w = load_workload(name, 300000)
    p, tr = w.profile, w.trace
    codes, counts = np.unique(tr.cf_type, return_counts=True)
    mix = {str(CF_TYPE_FROM_CODE[int(k)])[:6]: round(float(v)/len(tr), 3)
           for k, v in zip(codes, counts)}
    print(f"{name:9s} static {w.program.static_task_count:6d} (paper {p.paper.static_tasks:6d})  "
          f"seen {tr.distinct_tasks_seen():5d} (paper {p.paper.distinct_tasks_seen:5d})")
    print(f"          mix {mix}")

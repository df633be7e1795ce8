"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is the import of ``levyint`` (numpy included) plus construction of
the workload's models, functions, grids and configs.  The benchmark's own
modules are imported outside the timed part.

    python3 bench/setup_probe.py <workload> <workdir>
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import levyint  # noqa: E402,F401
t_import = perf_counter() - t0

import workloads  # noqa: E402

t0 = perf_counter()
workloads.WORKLOADS[sys.argv[1]](Path(sys.argv[2]))
print(repr(t_import + perf_counter() - t0))

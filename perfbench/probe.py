"""Set-up probe, run in a fresh interpreter: import onramp and build a workload's inputs.

Prints one JSON object whose ``ready`` is ``time.monotonic()`` when the
inputs are built.  On Linux that clock is shared by all processes, so the
parent subtracts its own reading taken just before the spawn.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # imports onramp from the source tree above

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, workdir)
    print(json.dumps({"ready": time.monotonic()}))

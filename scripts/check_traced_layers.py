"""Exit 1 if a traced pass of an e2e result file lost a layer.

    python scripts/check_traced_layers.py benchmarks/results/e2e_smoke.json

A renamed traced callable makes ``run.py`` print ``n/a, missing`` and
carry on; this turns that into a failure.
"""

import json
import sys
from pathlib import Path

result = json.loads(Path(sys.argv[1]).read_text())
missing = [
    f"{name}: layer {layer} lost {', '.join(callables)}"
    for name, workload in result["workloads"].items()
    for run in workload["runs"]
    for layer, callables in run["missing"].items()
]
print("\n".join(missing) or "every traced layer present")
sys.exit(1 if missing else 0)

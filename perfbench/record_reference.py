"""Record the warm-up outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs each workload's default-seed operation at every size profile and
writes perfbench/reference.json. Rerun it only when a change to ris_vlc
is meant to change these numbers, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for sizes_name, sizes in SIZES.items():
        reference[sizes_name] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(sizes)
            workload.setup(DEFAULT_SEED)
            record = workload.record(workload.run(workload.inputs(DEFAULT_SEED, 0)))
            reference[sizes_name][name] = {k: record[k] for k in workload.reference_keys}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

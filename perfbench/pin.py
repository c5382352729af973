"""Regenerate ``digests.json``: the pinned store-line digest of every benchmark cell.

Run from the repository root after a deliberate physics change::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from workloads import DIGESTS_PATH, WORKLOADS, reference_digests

    work = root / ".bench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pins = {}
    try:
        for workload in WORKLOADS.values():
            for index, campaign in enumerate(workload.campaigns()):
                path = work / f"{workload.name}-{index}.jsonl"
                digests = reference_digests(campaign, path)
                for line, digest in zip(path.read_text("utf-8").splitlines(), digests):
                    record = json.loads(line)
                    if record["status"] != "ok":
                        raise SystemExit(f"cell failed: {record['key']}: {record.get('error')}")
                    pins[record["key"]] = digest
            print(f"{workload.name}: {len(pins)} cells pinned so far", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the reference digests the benchmark checks campaigns against.

Runs one pass of each reference workload for every campaign seed in
``range(REFERENCE_SEEDS)`` and writes the sha256 of each campaign's
``CampaignResult.to_json()`` to ``reference.json``.  ``arch-batched``
shares ``arch-scalar``'s table, so recording it from the scalar path
makes the benchmark check batched results against scalar ones.

Run it from the root of a checkout, only when the program's results are
meant to change.  Name workloads to re-record only their tables:

    python3 perfbench/record_reference.py [gefin-avf] [arch-scalar]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import campaigns as cb


def main(argv: list) -> int:
    cb.import_program()
    cb.scrub_environment()
    work = cb.HERE.parent / ".perfbench" / f"record-{os.getpid()}"
    table = (cb.load_reference() if argv and cb.REFERENCE_PATH.exists()
             else {})
    try:
        for name in argv or ("gefin-avf", "arch-scalar"):
            workload = cb.WORKLOADS[name]
            cb.use_cache_dir(work / name)
            cb.setup(workload)
            memos = cb.seed_free_memos()
            seeds = table[workload.reference_key] = {}
            for seed in range(cb.REFERENCE_SEEDS):
                started = time.perf_counter()
                result = cb.run_pass(workload, seed, {}, memos)
                failed = [r.cell.label for r in result.cells if r.error
                          and not r.digest]
                if failed:
                    raise RuntimeError(f"{name} seed {seed}: {failed} raised")
                seeds[str(seed)] = {r.cell.label: r.digest
                                    for r in result.cells}
                print(f"{name} seed {seed}: "
                      f"{time.perf_counter() - started:.2f} s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cb.REFERENCE_PATH.write_text(json.dumps(table, indent=1,
                                            sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

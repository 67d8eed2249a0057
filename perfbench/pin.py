"""Recompute the pinned output digests in ``perfbench/digests.json``.

    python3 perfbench/pin.py 1 2 3

Runs one untraced iteration of every workload for each seed given and stores
its digest. Re-pin only in a change that is meant to alter results, and say
so in that change; a speed-up must leave the pinned digests as they are.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, check_outputs, run_calls


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    dt = run.import_demtrack()
    pinned = json.loads(run.DIGESTS.read_text())
    for w in WORKLOADS.values():
        spec, plugin = dt.spec_from_dict(w.spec_doc())
        for seed in map(int, argv):
            failed, digest = check_outputs(w, run_calls(w, spec, plugin, seed))
            if failed:
                print(f"{w.name} seed {seed}: {failed} outputs fail", file=sys.stderr)
                return 1
            pinned.setdefault(w.name, {})[str(seed)] = digest
            print(w.name, seed, digest, flush=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

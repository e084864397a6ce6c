"""Write the sha256 digests of every rational-workload report to digests.json.

Run from the root of a checkout, only when a change is meant to alter the
rational reports:

    python3 perfbench/record_digests.py

Each report is checked in full before its digest is recorded; the script
fails without writing anything when a report does not pass.
"""

from __future__ import annotations

import json
import os
import sys

from checks import DIGEST_SEED, DIGESTS_PATH, digest
from run import ROOT, SRC, WORK, Session
from workloads import generate

RATIONAL_WORKLOADS = ("dense-rational", "slow-mixing")


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    recorded = {"seed": DIGEST_SEED}
    for workload in RATIONAL_WORKLOADS:
        instances = generate(workload, DIGEST_SEED)
        session = Session(instances, WORK / workload)
        try:
            session.round()
        finally:
            session.close()
        if session.failed:
            print("\n".join(session.reasons), file=sys.stderr)
            return 1
        recorded[workload] = dict(
            sorted((instances[i].name, digest(out)) for i, out in session.checked.items())
        )
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

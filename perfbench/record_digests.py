"""Write cli_digests.json: sha256 of every fixture artifact the workloads
check, produced by the current sources.  Run from the repository root on
the commit whose artifacts are the reference:

    python3 perfbench/record_digests.py
"""

import json
import sys
import tempfile

import run


def main():
    run.pin_blas()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    digests = {}
    for workload in run.FIXTURE_RUNS:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
            digests.update(run.artifact_digests(workload, workdir))
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

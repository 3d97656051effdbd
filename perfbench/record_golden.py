"""Record golden.json: the SHA-256 digest of every request's output.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/record_golden.py

Runs each request of every workload once and writes its digest under the
request's key.  Run it only at a commit whose outputs are known to be
right; the benchmark then fails any request whose output differs.
"""

import json

import workloads


def main() -> None:
    golden = {}
    for build in workloads.UNIVERSES.values():
        for req in build():
            if req.text is None:
                continue
            seed = 1
            golden[req.key] = workloads.digest(req.text(req.run(seed), seed))
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {workloads.GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()

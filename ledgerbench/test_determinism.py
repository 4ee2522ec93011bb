#!/usr/bin/env python3
"""Determinism self-check of the ledger benchmark.

    python3 ledgerbench/test_determinism.py [--workload NAME]

Run from the repository root. Runs one workload at a small size three
times: twice with one seed and once with another. The count metrics
(chain-log bytes per record, replication wire bytes per record, block
count, mean lineage-proof size) must be identical for the two runs with
one seed and must differ for the other seed. The ingest stage runs with one
shard here: with two, the shards draw transaction nonces from one shared
counter in whatever order they interleave, which moves the chain-log size
in its last digits. Exits 0 when the check holds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTS = ("disk_bytes_per_rec", "wire_bytes_per_rec", "blocks",
          "lineage_proof.kb")


def counts_for(binary, params, seed, data_dir):
    cmd = [binary, "--seed", str(seed), "--trace", "0", "--dir", data_dir]
    for key, value in sorted(params.items()):
        cmd += ["--set", "%s=%s" % (key, value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit("ledgerbench exited with %d" % done.returncode)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: result["counts"][name] for name in COUNTS}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="bulk_ingest")
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(run.BENCH_DIR, "workloads.json")) as f:
        config = json.load(f)
    binary = run.build(os.path.join(root, ".bench_build"))
    if binary is None:
        return 1
    params = run.params_for(config, args.workload, args.seconds)
    params["ingest_shards"] = 1
    data_dir = os.path.join(root, ".bench_data", "determinism-%d" % os.getpid())

    first = counts_for(binary, params, 11, data_dir)
    again = counts_for(binary, params, 11, data_dir)
    other = counts_for(binary, params, 12, data_dir)
    print("seed 11:       ", first)
    print("seed 11 again: ", again)
    print("seed 12:       ", other)
    same = first == again
    differs = other["disk_bytes_per_rec"] != first["disk_bytes_per_rec"] and \
        other["wire_bytes_per_rec"] != first["wire_bytes_per_rec"]
    print("same seed, same counts: %s; other seed, other inputs: %s"
          % (same, differs))
    return 0 if same and differs else 1


if __name__ == "__main__":
    sys.exit(main())

"""Check that the benchmark's deterministic counts repeat exactly.

    python3 perfbench/selfcheck.py --workload chain --seed 0

Runs one traced pass of the workload in two fresh interpreters, under
PYTHONHASHSEED 0 and 1, and compares every count (and every ratio of
counts) between them and with the counts recorded in
``perfbench/baseline.json`` for the same workload and seed.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from corpus import ROOT, WORKLOADS  # noqa: E402
from spans import COUNTS  # noqa: E402


def counts(workload: str, seed: int, hash_seed: str) -> dict:
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed), cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    if r.returncode:
        raise SystemExit(f"run failed: {r.stderr}")
    metrics = json.loads(r.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k in COUNTS or (k.endswith(("_per_answer", "_ratio"))
                               and k != "trace.overhead_ratio")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    runs = {h: counts(args.workload, args.seed, h) for h in ("0", "1")}
    recorded = json.loads((HERE / "baseline.json").read_text())["counts"]
    want = recorded.get(args.workload, {})
    if want.get("seed") == args.seed:
        runs["baseline.json"] = want["counts"]
    ok = True
    for key in sorted(runs["0"]):
        values = {src: r.get(key) for src, r in runs.items()}
        same = len({json.dumps(v) for v in values.values()}) == 1
        ok &= same
        print(f"{'ok  ' if same else 'DIFF'} {key}: {values}")
    print(json.dumps(runs["0"], sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

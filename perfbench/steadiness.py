"""Check that the benchmark is steady: run one workload on several seeds and
report, per end-to-end metric, the median and the spread (distance between
the first and third quartile, as a share of the median) of the run values.

    python3 perfbench/steadiness.py --workload NAME --seeds 1,2,...,10

Each run takes ``run_seconds`` from ``BENCHMARK.json``.  A metric is steady
when its spread stays below a third of its bound; ``setup_s`` is compared by
its median only.  Exits 1 if a run is incorrect or a spread exceeds its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from harness import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma separated")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in args.seeds.split(","):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", seed,
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {shown}", flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        s = spread(vals)
        checked = metric["name"] != "setup_s"
        verdict = "" if not checked else ("steady" if s < metric["bound"] / 3 else "within bound" if s <= metric["bound"] else "TOO WIDE")
        ok &= not checked or s <= metric["bound"]
        print(f"{args.workload} {metric['name']:<12} median={median(vals):.6g} spread={s:.4f} bound={metric['bound']} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""softrgg benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload detect-strong --seed 1 --seconds 25 --trace 0

Run from the root of a softrgg checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics (reps_per_s, setup_s, peak_rss_mb); with ``--trace 1``
it holds the per-layer metrics of the traced layer suite.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("detect-strong", "detect-blind", "pattern-mc", "sweep-cycle")
# Cold starts timed for setup_s besides the measuring process's own.
SETUP_PROBES = 6
# Every process of a run must have ended by then.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child(mode: str, args, root: Path, deadline: float) -> tuple[float, list[str]]:
    """Run perfbench/workloads.py in a fresh process.

    Returns the seconds from its start to its ``READY`` line, and the stdout
    lines after it.  The process and anything it started are killed at the
    deadline.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workloads.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
                            start_new_session=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0),
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise ChildFailed(f"workloads.py {mode} exited with code {proc.returncode}")
    return ready, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "softrgg" / "__init__.py").is_file():
        print(f"perfbench: no softrgg sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            _, lines = child("trace", args, root, deadline)
            out = json.loads(lines[-1])
            metrics = out["metrics"]
        else:
            setups = [child("setup", args, root, deadline)[0] for _ in range(SETUP_PROBES)]
            ready, lines = child("run", args, root, deadline)
            setups.append(ready)
            out = json.loads(lines[-1])
            metrics = {
                "reps_per_s": {"value": out["reps_per_s"], "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            }
            out["setup_samples_s"] = setups
    except (ChildFailed, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}
    out.update(result, workload=args.workload, seed=args.seed, seconds=args.seconds)
    (HERE / "results").mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    (HERE / "results" / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(out, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

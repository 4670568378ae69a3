"""Print every benchmark metric for every workload, traced and untraced.

Usage, from the root of a checkout::

    python3 perfbench/summary.py

For each workload this runs ``run.py`` twice with its defaults (the
default seed and ``BENCHMARK.json``'s ``run_seconds``): untraced, for the
end-to-end metrics, and traced, for the per-layer metrics.  It prints
each metric by name with its unit, the backend, pass and sample counts,
the failure fraction, and the tracing overhead: the drop in
``cells_per_s`` from the untraced to the traced run.  Exits 1 if any run
failed its checks.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_once(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# perfbench "):
        raise SystemExit(
            f"{workload} (trace {trace}) produced no result "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    info = json.loads(lines[-2][len("# perfbench "):])
    return info, json.loads(lines[-1])


def main() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        plain_info, plain = run_once(name, 0)
        traced_info, traced = run_once(name, 1)
        ok = ok and plain["correct"] and traced["correct"]
        untraced_rate = plain["metrics"]["cells_per_s"]["value"]
        traced_rate = traced["metrics"]["bench.traced_cells_per_s"]["value"]
        print(f"== {name}  backend={plain_info['backend']} "
              f"seed={plain_info['seed']}")
        for label, info, result in (("untraced", plain_info, plain),
                                    ("traced", traced_info, traced)):
            print(f"  {label:8s} passes={info['passes']} "
                  f"cells/pass={info['cells_per_pass']} "
                  f"latency_samples={info['latency_samples']} "
                  f"attempted={result['attempted']} "
                  f"failed_frac={info['failed_frac']:.4g} "
                  f"correct={result['correct']}")
        print(f"  tracing overhead: {1 - traced_rate / untraced_rate:.1%} "
              f"of cells_per_s ({untraced_rate:.4g} untraced, "
              f"{traced_rate:.4g} traced)")
        print("  end-to-end:")
        for metric, value in plain["metrics"].items():
            print(f"    {metric:32s} {value['value']:>14.6g} "
                  f"{value['unit']}")
        print("  per-layer:")
        for metric, value in traced["metrics"].items():
            module, moves = metrics.ARROWS[metric]
            print(f"    {metric:32s} {value['value']:>14.6g} "
                  f"{value['unit']:9s} {module} -> {moves}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

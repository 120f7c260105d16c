"""Run one benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in a fresh child process, one after
the other.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
The program is imported from ``src/`` beside this directory.
"""

import os

# Pinned before numpy loads OpenBLAS: on a 2-core box a second BLAS thread
# contends with everything else (3 unfrozen steps: 7.8 s at 2 threads under
# contention, 0.54 s at 1).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("train-default", "retrieve-gallery", "ablate-d32")
DECLARED = ROOT / "BENCHMARK.json"


def machine_state() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_one(args) -> int:
    if not (SRC / "ccir" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'ccir'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    declared = json.loads(DECLARED.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    machine = machine_state()
    tracer = tracing.Tracer() if args.trace else None
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run = workloads.run_workload(args.workload, args.seed, args.seconds, work, tracer)
    machine["loadavg_after"] = list(os.getloadavg())
    e2e = workloads.end_to_end(run)
    values = e2e if tracer is None else tracing.layer_metrics(tracer)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if tracer is not None:
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        index = {id(s): i for i, s in enumerate(tracer.spans)}
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "machine": machine,
                "end_to_end_traced": e2e, "per_layer": values,
                "self_times": tracer.self_times(),
                "spans": [[s.name, s.start, s.end, s.excluded,
                           index.get(id(s.parent))] for s in tracer.spans],
            }, fh)

    print(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in run.notes:
        print(f"{args.workload} {note}")
    for failed in run.failed:
        print(f"OPERATION FAILED: {failed}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"{args.workload}: {run.attempted} operations attempted, {len(run.failed)} failed, "
          f"{len(run.failures)} failed checks")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0 or not child.stdout.strip():
            status = child.returncode or 1
            continue
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(DECLARED.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

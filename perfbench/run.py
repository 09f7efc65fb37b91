"""Run one benchmark workload, or all four, from the root of a checkout.

    python3 perfbench/run.py --workload imm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 [--record FILE]

One workload prints its input digests, then every metric BENCHMARK.json
declares, by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced round.  ``--all`` runs the four workloads untraced, each in a fresh
process, prints every end-to-end metric, and with ``--record`` writes them
with their input digests to FILE.

The program is imported from ``src/`` of the checkout the command runs in,
with every ``REPRO_*`` environment switch removed, so ``repro.obs`` stays
off and the library defaults apply.  Without ``src/repro`` the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch files (sketches, span dumps) live here, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 2."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from the root of a checkout")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [source, os.path.dirname(BENCH_DIR)]


def run_one(args: argparse.Namespace) -> int:
    _load_program()
    from perfbench import workloads
    from perfbench.inputs import FULL

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(BENCH_DIR, "expectations.json"), encoding="utf-8") as handle:
        floors = json.load(handle)["spread_floor"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # Temporary files the program makes (a memmap graph broadcast) stay in the checkout.
    tempfile.tempdir = workdir
    try:
        run = workloads.Run(FULL, args.seed, args.seconds, workdir,
                            spread_floor=floors.get(args.workload, 0.0))
        outcome = workloads.run_workload(args.workload, run, bool(args.trace))
    finally:
        try:
            workloads.stop_children()
        finally:
            tempfile.tempdir = None
            shutil.rmtree(workdir, ignore_errors=True)
            if not os.listdir(WORK_ROOT):
                os.rmdir(WORK_ROOT)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, sha in sorted(outcome.inputs.items()):
        print(f"input {name} sha256 {sha}")
    for note in outcome.notes[:20]:
        print(f"check {note}")
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    for name, value in outcome.extras.items():
        print(f"extra {name} {value!r} ms")
    print(f"error_rate {outcome.failed / outcome.attempted!r} "
          f"({outcome.failed} failed of {outcome.attempted})")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; print and optionally record the results."""
    from_root = os.path.relpath(os.path.abspath(__file__), ROOT)
    record: dict[str, object] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in ("imm", "tim_plus", "serve_read", "serve_update"):
        done = subprocess.run(
            [sys.executable, from_root, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: failed with status {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        digests = {line.split()[1]: line.split()[3] for line in lines if line.startswith("input ")}
        extras = {line.split()[1]: float(line.split()[2])
                  for line in lines if line.startswith("extra ")}
        print(f"{workload}: correct={result['correct']} "
              f"error_rate={result['failed'] / result['attempted']:g}")
        for name, metric in result["metrics"].items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
        for name, value in extras.items():
            print(f"  {name} {value:.6g} (not gated)")
        record["workloads"][workload] = {  # type: ignore[index]
            "inputs": digests, "extras": extras, **result}
        status |= 0 if result["correct"] else 1
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("imm", "tim_plus", "serve_read", "serve_update"))
    parser.add_argument("--all", action="store_true", help="run all four workloads")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all: write the results to this file")
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

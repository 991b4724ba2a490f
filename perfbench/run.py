"""Run one workload of the grpn benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-theorem --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics declared
in BENCHMARK.json when --trace is 0, the per-layer ones when it is 1.
Every metric, the run environment and the first failures are also
written to .perfbench_out/, and the spans of a traced run beside them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_grpn_source() -> None:
    """Put this checkout's src/ first on the path and refuse any other grpn."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import grpn
    except ImportError as exc:
        raise SystemExit(f"error: cannot import grpn from {src}: {exc}")
    origin = Path(grpn.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: grpn was imported from {origin}, not from {src}")


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select(metrics: dict, declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"error: metric {m['name']} [{m['unit']}] not measured as declared: {got}")
        out[m["name"]] = got
    return out


def report(record: dict) -> None:
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {env['seed']}  trace {int(record['trace'])}  "
        f"backend {env['backend']}  python {env['python']}  nproc {env['nproc']}"
    )
    for name, m in sorted(record["metrics"].items()):
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  samples {record['samples']}  attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_grpn_source()
    from perfbench import harness, workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {', '.join(workloads.NAMES)}")
    declared = declared_metrics(bool(args.trace))
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = record.pop("tracer")
    metrics = select(record["metrics"], declared)
    report(record)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")

    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark runs, such as a parent commit and a change.

Usage, from the root of the repository:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result records run.py writes to .perfbench_out/.
Runs are paired by workload, seed and trace mode; a pair whose
environments (kernel backend, Python version, nproc, seed) differ is
refused.  For every end-to-end metric of BENCHMARK.json and every workload
it prints both medians, the change as a share of the base median and
whether it stays within the metric's bound.  Exits 1 when some metric got
worse by more than its bound, 2 when the runs cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class EnvironmentMismatch(ValueError):
    pass


def load(directory) -> dict:
    """Untraced result records of a directory, by (workload, seed)."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def paired(base: dict, new: dict) -> list[tuple[dict, dict]]:
    pairs = []
    for key in sorted(base.keys() & new.keys()):
        if base[key]["env"] != new[key]["env"]:
            raise EnvironmentMismatch(
                f"{key[0]} seed {key[1]}: {base[key]['env']} != {new[key]['env']}"
            )
        pairs.append((base[key], new[key]))
    if not pairs:
        raise EnvironmentMismatch("no runs of the same workload and seed on both sides")
    return pairs


def compare(pairs, end_to_end: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted({b["workload"] for b, _ in pairs}):
        runs = [(b, n) for b, n in pairs if b["workload"] == workload]
        for m in end_to_end:
            base = statistics.median(b["metrics"][m["name"]]["value"] for b, _ in runs)
            new = statistics.median(n["metrics"][m["name"]]["value"] for _, n in runs)
            worse = (new - base) / base if m["better"] == "lower" else (base - new) / base
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "runs": len(runs),
                    "base": base,
                    "new": new,
                    "worse_by": worse,
                    "regression": worse > m["bound"],
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        pairs = paired(load(argv[0]), load(argv[1]))
    except EnvironmentMismatch as exc:
        print(f"error: refusing to compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(pairs, spec["end_to_end"])
    for row in rows:
        verdict = "REGRESSION" if row["regression"] else "ok"
        print(
            f"{row['workload']:17s} {row['metric']:15s} base {row['base']:12.6g} "
            f"new {row['new']:12.6g} {row['unit']:5s} worse by {row['worse_by']:+7.2%} "
            f"({row['runs']} pairs) {verdict}"
        )
    return 1 if any(row["regression"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

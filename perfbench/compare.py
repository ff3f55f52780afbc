"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base parent_*.json --new change_*.json

Prints, per workload and metric, each side's median and quartiles and the
change of the medians against the metric's bound in BENCHMARK.json.
Refuses (exit 2) when the records mix backends, modes, run lengths or
input sizes, because such numbers do not measure the same program on the
same work.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SAME = ("backend", "trace", "scale", "seconds", "input_size")


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def summary(values):
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    by_workload = {}
    for side, records in (("base", base), ("new", new)):
        for record in records:
            sides = by_workload.setdefault(record["workload"], {"base": [], "new": []})
            sides[side].append(record)
    status = 0
    for workload, sides in sorted(by_workload.items()):
        records = sides["base"] + sides["new"]
        for key in SAME:
            seen = {json.dumps(r[key], sort_keys=True) for r in records}
            if len(seen) > 1:
                print(f"{workload}: refusing to compare records with different {key}: "
                      f"{sorted(seen)}", file=sys.stderr)
                status = 2
        if status or not sides["base"] or not sides["new"]:
            continue
        print(f"{workload} (backend {records[0]['backend']}, "
              f"{len(sides['base'])} base / {len(sides['new'])} new runs)")
        declared = bench["per_layer" if records[0]["trace"] else "end_to_end"]
        for metric in declared:
            name = metric["name"]
            b = summary([r["metrics"][name] for r in sides["base"]])
            n = summary([r["metrics"][name] for r in sides["new"]])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            bound = f" bound {metric['bound']:.0%}" if "bound" in metric else ""
            print(f"  {name:<52} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change:+.1%}{bound} "
                  f"{metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

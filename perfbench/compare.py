"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines as run.py appends them to
perfbench/out/results.jsonl (copy that file aside between the two
commits).  For every workload and metric it prints the median, the
quartile spread (as a share of the median) and the change of the median.
An end-to-end metric whose new median is worse than the base median by more
than its bound in BENCHMARK.json is marked REGRESSED; one whose base spread
is wider than its bound is marked unresolved.  The exit code is 1 when
anything regressed or a set has failed operations the other lacks.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} and failed/attempted totals."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            if r.get("size", "full") != "full":
                continue
            key = (r["workload"], r["trace"])
            for name, m in r["metrics"].items():
                values[key][name].append(m["value"])
            failed[key][0] += r["failed"]
            failed[key][1] += r["attempted"]
    return values, failed


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(vals, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_failed), (new, new_failed) = load(argv[0]), load(argv[1])
    bad = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'end to end'}): "
              f"failed {base_failed[key][0]}/{base_failed[key][1]} -> "
              f"{new_failed[key][0]}/{new_failed[key][1]}")
        b_share = base_failed[key][0] / max(1, base_failed[key][1])
        n_share = new_failed[key][0] / max(1, new_failed[key][1])
        if n_share > b_share:
            bad = True
        for name in sorted(set(base[key]) & set(new[key])):
            (bm, bs), (nm, ns) = spread(base[key][name]), spread(new[key][name])
            change = (nm - bm) / abs(bm) if bm else 0.0
            m = info.get(name, {})
            worse = -change if m.get("better") == "higher" else change
            note = ""
            if "bound" in m:
                if worse > m["bound"]:
                    note, bad = "REGRESSED", True
                elif bs > m["bound"]:
                    note = "unresolved"
            print(f"  {name:24s} {bm:12.6g} (±{bs:5.1%}) -> {nm:12.6g} "
                  f"(±{ns:5.1%})  {change:+7.1%}  {note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``python perfbench/compare.py A.json B.json``: one row per workload x
end-to-end metric of two ``python -m perfbench --out`` results.

Verdicts use the bounds of ``BENCHMARK.json``: ``worse`` / ``better``
when B moved against / with the metric's direction by more than its
bound, ``unchanged`` inside the bound, ``unresolved`` when either
side's own spread (iqr / median of its repeats) is wider than the
bound, so the two cannot be told apart.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    if base["value"] == new["value"]:
        return "unchanged"
    spread = max(side.get("iqr", 0.0) / side["value"] if side["value"] else 0.0
                 for side in (base, new))
    if spread > bound:
        return "unresolved"
    gain = (new["value"] - base["value"]) / base["value"]
    if better == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "unchanged"


def compare(base: dict, new: dict,
            contract: dict) -> List[Tuple[str, str, float, float, str]]:
    """Rows ``(workload, metric, base, new, verdict)``."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        sides: Dict[str, dict] = {}
        for label, result in (("base", base), ("new", new)):
            record = result["workloads"].get(workload, {}).get("end_to_end")
            if record is not None:
                sides[label] = record["metrics"]
        if len(sides) < 2:
            continue
        for spec in contract["end_to_end"]:
            a, b = sides["base"][spec["name"]], sides["new"][spec["name"]]
            rows.append((workload, spec["name"], a["value"], b["value"],
                         verdict(a, b, spec["better"], spec["bound"])))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            results.append(json.load(f))
    rows = compare(results[0], results[1], contract)
    print(f"{'workload':<18}{'metric':<22}{'base':>14}{'new':>14}"
          f"{'new/base':>10}  verdict")
    for workload, metric, a, b, word in rows:
        ratio = f"{b / a:.4f}" if a else "-"
        print(f"{workload:<18}{metric:<22}{a:>14.6g}{b:>14.6g}"
              f"{ratio:>10}  {word}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two end-to-end benchmark summaries.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate. Both
are summaries written by ``run.py``. For every workload and end-to-end
metric it prints both medians, their quartiles and the metric's bound,
and one verdict:

* ``unresolved`` for a host-time metric when the two runs' host
  calibrations differ by more than 10%, and for any metric when either
  side's quartile spread, as a share of its median, exceeds the bound.
  The exception to the second rule is when every sample of B reads
  better than every sample of A: that counts as ``improved``;
* ``regressed`` / ``improved`` when B's median is worse / better than
  A's by more than the bound;
* ``unchanged`` otherwise.

Exit codes: 0 nothing regressed, 1 at least one metric regressed, 2 a
summary is missing or malformed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List

#: Host-calibration drift beyond which no verdict is trusted.
CALIBRATION_TOLERANCE = 0.10

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING = 2


def describe(samples: List[float]) -> Dict:
    """Median and quartiles (``statistics.quantiles`` cut points)."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"samples": list(samples), "median": statistics.median(samples),
            "q1": q1, "q3": q3}


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def spread(stats: Dict) -> float:
    """Quartile spread as a share of the median."""
    return _relative(stats["q3"] - stats["q1"], stats["median"])


def verdict(a: Dict, b: Dict, bound: float, better: str,
            calibration_drift: float = 0.0) -> str:
    """The verdict for one metric; ``a``/``b`` are :func:`describe`
    dicts, ``better`` is ``"lower"`` or ``"higher"``."""
    if calibration_drift > CALIBRATION_TOLERANCE:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if spread(a) > bound or spread(b) > bound:
        if max(sign * x for x in b["samples"]) < min(
                sign * x for x in a["samples"]):
            return "improved"
        return "unresolved"
    worse = sign * _relative(b["median"] - a["median"], a["median"])
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(a: Dict, b: Dict) -> List[Dict]:
    """One row per (workload, metric) present in both summaries."""
    drift = abs(_relative(b["host_cal_s"] - a["host_cal_s"],
                          a["host_cal_s"]))
    rows = []
    for workload, theirs in b["workloads"].items():
        ours = a["workloads"].get(workload)
        if ours is None:
            continue
        for metric, new in theirs["metrics"].items():
            old = ours["metrics"].get(metric)
            if old is None:
                continue
            rows.append({
                "workload": workload, "metric": metric, "unit": new["unit"],
                "a": old, "b": new, "bound": new["bound"],
                "verdict": verdict(old, new, new["bound"], new["better"],
                                   drift if new["host_time"] else 0.0),
            })
    return rows


def _load(path: str) -> Dict:
    data = json.loads(pathlib.Path(path).read_text())
    if not (isinstance(data, dict) and "host_cal_s" in data
            and "workloads" in data):
        raise ValueError(f"{path} is not a run.py summary")
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline summary (run.py --out)")
    parser.add_argument("b", help="candidate summary")
    args = parser.parse_args(argv)
    try:
        a, b = _load(args.a), _load(args.b)
    except (OSError, ValueError) as error:
        print(f"cannot read summaries: {error}", file=sys.stderr)
        return EXIT_MISSING
    print(f"host_cal_s  A {a['host_cal_s']:.4f}  B {b['host_cal_s']:.4f}")

    def cell(stats: Dict) -> str:
        return (f"{stats['median']:.4g} "
                f"[{stats['q1']:.4g}, {stats['q3']:.4g}]")

    rows = compare(a, b)
    print(f"{'workload':<20}{'metric':<16}{'A median [q1, q3]':<32}"
          f"{'B median [q1, q3]':<32}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<16}"
              f"{cell(row['a']):<32}{cell(row['b']):<32}"
              f"{row['bound']:>7.2f}  {row['verdict']}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    return EXIT_REGRESSION if regressed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

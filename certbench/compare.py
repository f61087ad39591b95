"""Compare two saved outputs of run.py, metric by metric.

    python3 certbench/compare.py BASE.txt NEW.txt

Each file is the standard output of one run.  The comparison is refused
(exit 2) when the stamps differ in backend or workload, since the numbers
then measure different programs.  Otherwise each metric is printed with its
change relative to BASE and, for end-to-end metrics, flagged when it is
worse than BASE by more than its bound in BENCHMARK.json.  One run per side
says little on a noisy machine; compare medians of several seeds.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    stamp = result = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# stamp "):
            stamp = json.loads(line[len("# stamp "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if stamp is None or result is None:
        raise ValueError("%s is not a saved run.py output" % path)
    return stamp, result


def compare(base, new, spec):
    """Lines of the comparison, or raise ValueError when it is refused."""
    (sa, ra), (sb, rb) = base, new
    for key in ("backend", "workload"):
        if sa.get(key) != sb.get(key):
            raise ValueError("refusing to compare: %s differs (%s vs %s)"
                             % (key, sa.get(key), sb.get(key)))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for name in sorted(set(ra["metrics"]) & set(rb["metrics"])):
        a = ra["metrics"][name]["value"]
        b = rb["metrics"][name]["value"]
        change = (b - a) / a if a else float("nan")
        m = declared.get(name, {})
        worse = -change if m.get("better") == "higher" else change
        flag = ""
        if "bound" in m and worse > m["bound"]:
            flag = "  WORSE than bound %.2f" % m["bound"]
        lines.append("%-45s %14.6g %14.6g %+8.1f%%%s"
                     % (name, a, b, 100.0 * change, flag))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(argv[0]), load(argv[1]), spec)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

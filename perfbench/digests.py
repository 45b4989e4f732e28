"""Compare the output digests of two benchmark results files.

    python3 perfbench/digests.py OLD.json NEW.json

Lists every op whose output bytes or exit code differ between the two runs,
for example the same workload and seed on two commits.  A difference is
reported, not judged: a change may add fields to an output file on purpose.
Exits 0 whether or not anything differs.
"""

import json
import sys


def differences(old: dict, new: dict) -> list[str]:
    before = {op["name"]: op for op in old["ops"]}
    after = {op["name"]: op for op in new["ops"]}
    lines = [f"only in {side}: {name}"
             for side, a, b in (("old", before, after), ("new", after, before))
             for name in sorted(set(a) - set(b))]
    for name in sorted(set(before) & set(after)):
        a, b = before[name], after[name]
        if (a["exit"], a["digest"]) != (b["exit"], b["digest"]):
            lines.append(f"differs: {name} (exit {a['exit']} -> {b['exit']})")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (json.loads(open(path).read()) for path in argv)
    lines = differences(old, new)
    print("\n".join(lines) if lines else "all op outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two output snapshots written by tools/snapshot_outputs.py.

    python tools/compare_snapshots.py BASE NEW

Prints each file that differs between the directories BASE and NEW, or that
only one of them holds.  For a JSON file it also prints the top-level keys
whose values differ and, for a `check` report, the names of the reports
that differ, with each verdict that changed.  Ends with one summary line.

Exits 1 when a non-JSON file differs, when a file is in only one directory,
when a report's verdict changes (a report present on one side only counts
as a change), or when a gradcheck's `passed` changes; otherwise 0, so
outputs that moved only in their numbers pass.
"""

from __future__ import annotations

import json
import os
import sys


def _reports(payload: dict) -> dict:
    return {rep["name"]: rep for rep in payload.get("reports") or []}


def _compare_json(base: dict, new: dict) -> tuple[list[str], bool]:
    """Lines describing how two JSON payloads differ, and whether a verdict
    or a gradcheck's `passed` changed."""
    keys = sorted(k for k in set(base) | set(new) if base.get(k) != new.get(k))
    lines = ["  keys: " + ", ".join(keys)]
    changed = base.get("passed") != new.get("passed")
    if changed:
        lines.append(f"  passed: {base.get('passed')} -> {new.get('passed')}")
    a, b = _reports(base), _reports(new)
    names = [n for n in dict.fromkeys([*a, *b]) if a.get(n) != b.get(n)]
    if names:
        lines.append("  reports: " + ", ".join(names))
    for name in names:
        old = (a.get(name) or {}).get("verdict")
        cur = (b.get(name) or {}).get("verdict")
        if old != cur:
            changed = True
            lines.append(f"  verdict {name}: {old} -> {cur}")
    return lines, changed


def compare(base_dir: str, new_dir: str) -> int:
    names = sorted(set(os.listdir(base_dir)) | set(os.listdir(new_dir)))
    differing = failures = 0
    for name in names:
        base_path, new_path = os.path.join(base_dir, name), os.path.join(new_dir, name)
        if not (os.path.isfile(base_path) and os.path.isfile(new_path)):
            print(f"{name}: only in {base_dir if os.path.isfile(base_path) else new_dir}")
            differing += 1
            failures += 1
            continue
        with open(base_path, "rb") as fa, open(new_path, "rb") as fb:
            base, new = fa.read(), fb.read()
        if base == new:
            continue
        differing += 1
        print(f"{name}: differs")
        if not name.endswith(".json"):
            failures += 1
            continue
        lines, changed = _compare_json(json.loads(base), json.loads(new))
        print("\n".join(lines))
        failures += changed
    print(f"{len(names)} files, {differing} differ, {failures} fail")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: python tools/compare_snapshots.py BASE NEW", file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

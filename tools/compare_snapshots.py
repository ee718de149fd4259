"""Compare two output snapshots written by tools/snapshot_outputs.py.

    python tools/compare_snapshots.py BASE NEW

Prints each file that differs between the directories BASE and NEW, or that
only one of them holds.  For a JSON file it also prints the top-level keys
whose values differ and, for a `check` report, the relative change of a
moved `xi` or `lambda_star`, each route whose `lambda_interval` changed
(old -> new, a route on one side only reading None on the other) and the
names of the reports that differ, with each verdict that changed and the
relative change of each margin that moved.  A relative change is |new - old| / |old|, inf when either
number is not finite or the old one is 0.  Ends with one summary line,
which names the largest relative margin change and the largest relative
`xi` and `lambda_star` changes.

Exits 1 when a non-JSON file differs, when a file is in only one directory,
when a report's verdict changes (a report present on one side only counts
as a change), when a check's `xi_converged` changes, or when a gradcheck's
`passed` changes; otherwise 0, so outputs that moved only in their numbers
pass.
"""

from __future__ import annotations

import json
import math
import os
import sys

# top-level numbers of a check report whose relative change is reported
NUMBERS = ("xi", "lambda_star")


def _reports(payload: dict) -> dict:
    return {rep["name"]: rep for rep in payload.get("reports") or []}


def _intervals(payload: dict) -> dict:
    return {route["route"]: route.get("lambda_interval") for route in payload.get("routing") or []}


def _relative_change(old, new) -> float:
    """|new - old| / |old| of two JSON numbers ("inf" and "nan" are strings)."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def _compare_json(base: dict, new: dict) -> tuple[list[str], bool, float, dict]:
    """Lines describing how two JSON payloads differ, whether a verdict, a
    check's `xi_converged` or a gradcheck's `passed` changed, the largest
    relative margin change and the relative change of each moved key of
    NUMBERS."""
    keys = sorted(k for k in set(base) | set(new) if base.get(k) != new.get(k))
    lines = ["  keys: " + ", ".join(keys)]
    changed = False
    for key in ("passed", "xi_converged"):
        if base.get(key) != new.get(key):
            changed = True
            lines.append(f"  {key}: {base.get(key)} -> {new.get(key)}")
    moved = {}
    for key in NUMBERS:
        if base.get(key) != new.get(key):
            moved[key] = _relative_change(base.get(key), new.get(key))
            lines.append(f"  {key}: {base.get(key)} -> {new.get(key)} (relative {moved[key]:.3g})")
    old_routes, new_routes = _intervals(base), _intervals(new)
    for route in dict.fromkeys([*old_routes, *new_routes]):
        if old_routes.get(route) != new_routes.get(route):
            lines.append(f"  route {route} lambda_interval: {old_routes.get(route)} -> {new_routes.get(route)}")
    a, b = _reports(base), _reports(new)
    names = [n for n in dict.fromkeys([*a, *b]) if a.get(n) != b.get(n)]
    if names:
        lines.append("  reports: " + ", ".join(names))
    largest = 0.0
    for name in names:
        old, cur = a.get(name) or {}, b.get(name) or {}
        if old.get("verdict") != cur.get("verdict"):
            changed = True
            lines.append(f"  verdict {name}: {old.get('verdict')} -> {cur.get('verdict')}")
        if old.get("margin") != cur.get("margin"):
            rel = _relative_change(old.get("margin"), cur.get("margin"))
            largest = max(largest, rel)
            lines.append(f"  margin {name}: {old.get('margin')} -> {cur.get('margin')} (relative {rel:.3g})")
    return lines, changed, largest, moved


def compare(base_dir: str, new_dir: str) -> int:
    names = sorted(set(os.listdir(base_dir)) | set(os.listdir(new_dir)))
    differing = failures = 0
    largest = 0.0
    largest_of = dict.fromkeys(NUMBERS, 0.0)
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
        lines, changed, rel, moved = _compare_json(json.loads(base), json.loads(new))
        print("\n".join(lines))
        failures += changed
        largest = max(largest, rel)
        for key, key_rel in moved.items():
            largest_of[key] = max(largest_of[key], key_rel)
    print(
        f"{len(names)} files, {differing} differ, {failures} fail, "
        f"largest relative margin change {largest:.3g}, "
        + ", ".join(f"largest relative {key} change {largest_of[key]:.3g}" for key in NUMBERS)
    )
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print("usage: python tools/compare_snapshots.py BASE NEW", file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print each JSON path at which two `covtomo e2e` reports differ.

    python scripts/report_diff.py PARENT.json CHANGE.json

Each line is ``removed PATH``, ``added PATH`` or ``changed PATH: OLD -> NEW``,
in document order with keys sorted. PATH joins object keys with dots and
list indices in brackets (``config.simulator.n_hosts``, ``runs[0].p``). Two
values are equal when they print as the same JSON text, so ``1`` and
``1.0`` differ, and so do ``0.0`` and ``-0.0``. A list that changes length
is compared entry by entry over the shorter one; the rest of the longer one
is added or removed. Exits 0 when the reports are equal and 1 when they
differ, as diff does.

A change that only drops config fields proves that every run, tree and
score stayed bit-identical when the only lines are ``removed
config.simulator.<field>``.
"""

from __future__ import annotations

import argparse
import json
import sys


def _child(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def report_diff(old, new) -> list[str]:
    """The removed, added and changed paths from ``old`` to ``new``, without
    recursion, so a report holding a deep tree is compared whole."""
    lines = []
    # each entry is a finished line, or a (path, old, new) triple to compare
    stack: list = [("", old, new)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        path, a, b = item
        if isinstance(a, dict) and isinstance(b, dict):
            todo = [
                f"removed {_child(path, key)}" if key not in b
                else f"added {_child(path, key)}" if key not in a
                else (_child(path, key), a[key], b[key])
                for key in sorted(a.keys() | b.keys())
            ]
        elif isinstance(a, list) and isinstance(b, list):
            todo = [(_child(path, i), x, y) for i, (x, y) in enumerate(zip(a, b))]
            todo += [f"removed {_child(path, i)}" for i in range(len(b), len(a))]
            todo += [f"added {_child(path, i)}" for i in range(len(a), len(b))]
        else:
            old_text, new_text = json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True)
            if old_text != new_text:
                lines.append(f"changed {path or '(root)'}: {old_text} -> {new_text}")
            continue
        # reversed, so the stack yields them in document order
        stack.extend(reversed(todo))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="report of the parent commit")
    parser.add_argument("change", help="report of the change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as fa, open(args.change, encoding="utf-8") as fb:
        lines = report_diff(json.load(fa), json.load(fb))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fail when docs/METRICS.md and the bench artifacts disagree.

The metrics contract (docs/METRICS.md) lists key sets as backticked
names between `<!-- NAME:begin -->` / `<!-- NAME:end -->` markers.
Each marker block is compared with the keys of the matching object in
an actual artifact, in both directions:

  * a key in the artifact but not the doc  -> the doc is stale;
  * a key in the doc but not the artifact  -> the doc over-promises.

Each artifact is checked against the blocks for its `bench` tag:

  * `serving` (BENCH_serving.json):
      `bench-keys`           -> top-level keys;
      `provenance-keys`      -> the `provenance` block;
      `streaming-keys`       -> the `streaming` section (the open-loop
                                deadline-degradation sweep);
      `streaming-point-keys` -> each entry of `streaming.points[]`;
  * `scenarios` (BENCH_scenarios.json):
      `scenarios-keys`       -> top-level keys;
      `provenance-keys`      -> the `provenance` block;
      `scenario-cell-keys`   -> each entry of `matrix[]`.

Usage: check_metrics_doc.py <docs/METRICS.md> <artifact.json>...

Exit code 0 when every set matches exactly, 1 otherwise (and on a
missing marker block or an empty list, which would make the check
vacuous).
"""

import json
import re
import sys


def documented_keys(text, doc_path, name):
    begin, end = f"<!-- {name}:begin -->", f"<!-- {name}:end -->"
    lo = text.find(begin)
    hi = text.find(end)
    if lo < 0 or hi < 0 or hi <= lo:
        sys.exit(f"error: marker block {begin} .. {end} not found in "
                 f"{doc_path}")
    keys = re.findall(r"`([^`]+)`", text[lo + len(begin):hi])
    if not keys:
        sys.exit(f"error: no backticked keys inside the {name} marker "
                 f"block of {doc_path}")
    return set(keys)


def compare(doc_path, json_path, what, documented, actual):
    undocumented = sorted(actual - documented)
    missing = sorted(documented - actual)
    if undocumented:
        print(f"{doc_path} is stale: {json_path} has undocumented "
              f"{what} keys: {', '.join(undocumented)}")
    if missing:
        print(f"{doc_path} over-promises: documented {what} keys "
              f"absent from {json_path}: {', '.join(missing)}")
    if undocumented or missing:
        return 1
    print(f"ok: {len(documented)} {what} keys match between "
          f"{doc_path} and {json_path}")
    return 0


def member(json_path, parent, path):
    """The object at `path` ('a' or 'a[]' for the first list entry)."""
    node = parent
    for step in path.split("."):
        first = step.endswith("[]")
        key = step[:-2] if first else step
        node = node.get(key) if isinstance(node, dict) else None
        if first:
            node = node[0] if isinstance(node, list) and node else None
    if not isinstance(node, dict):
        print(f"{json_path} has no non-empty \"{path}\" object to check")
        return None
    return node


# Per artifact tag: (object path or "" for the top level, marker block).
CHECKS = {
    "serving": [("", "bench-keys"),
                ("provenance", "provenance-keys"),
                ("streaming", "streaming-keys"),
                ("streaming.points[]", "streaming-point-keys")],
    "scenarios": [("", "scenarios-keys"),
                  ("provenance", "provenance-keys"),
                  ("matrix[]", "scenario-cell-keys")],
}


def check_artifact(doc_path, text, json_path):
    with open(json_path, encoding="utf-8") as f:
        artifact = json.load(f)
    checks = CHECKS.get(artifact.get("bench"))
    if checks is None:
        print(f"{json_path} has an unknown \"bench\" tag: "
              f"{artifact.get('bench')!r}")
        return 1
    rc = 0
    for path, block in checks:
        node = member(json_path, artifact, path) if path else artifact
        if node is None:
            rc = 1
            continue
        rc |= compare(doc_path, json_path, path or "top-level",
                      documented_keys(text, doc_path, block),
                      set(node.keys()))
    return rc


def main(argv):
    if len(argv) < 3:
        sys.exit(f"usage: {argv[0]} <METRICS.md> <artifact.json>...")
    doc_path = argv[1]
    text = open(doc_path, encoding="utf-8").read()
    rc = 0
    for json_path in argv[2:]:
        rc |= check_artifact(doc_path, text, json_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

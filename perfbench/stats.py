"""Statistics and trace checks used by run.py (and tested by test_perfbench.py)."""

import json
import math
import statistics

# Chrome trace timestamps are written with three decimals of a microsecond.
_TS_SLACK_US = 0.002


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles."""
    return statistics.quantiles(values, n=4)


def iqr_share(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values, p, min_beyond=10):
    """Nearest-rank p-th percentile, refused unless at least `min_beyond`
    samples lie above it (so p90 needs 100 samples)."""
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{p} of {n} samples has {n - rank} beyond it, needs {min_beyond}")
    return sorted(values)[rank - 1]


def validate_trace(doc):
    """Check a Chrome trace written by perfbench: complete events with unique
    ids, each inside its parent's interval, siblings not overlapping.
    Returns the number of spans; raises ValueError on the first defect."""
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace has no traceEvents list")
    spans = {}
    for ev in doc["traceEvents"]:
        try:
            sid, parent = ev["args"]["id"], ev["args"]["parent"]
            name, ts, dur = ev["name"], float(ev["ts"]), float(ev["dur"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"malformed event {ev!r}") from e
        if ev.get("ph") != "X" or not isinstance(name, str) or ts < 0 or dur < 0:
            raise ValueError(f"bad event {ev!r}")
        if sid in spans:
            raise ValueError(f"duplicate span id {sid}")
        spans[sid] = (parent, ts, ts + dur, name)
    children = {}
    for sid, (parent, begin, end, name) in spans.items():
        if parent != -1:
            if parent not in spans:
                raise ValueError(f"span {name!r} has unknown parent {parent}")
            _, pbegin, pend, pname = spans[parent]
            if begin < pbegin - _TS_SLACK_US or end > pend + _TS_SLACK_US:
                raise ValueError(f"span {name!r} is outside its parent {pname!r}")
        children.setdefault(parent, []).append((begin, end, name))
    for kids in children.values():
        kids.sort()
        for (_, end, name), (begin, _, nxt) in zip(kids, kids[1:]):
            if begin < end - _TS_SLACK_US:
                raise ValueError(f"sibling spans {name!r} and {nxt!r} overlap")
    return len(spans)


def validate_trace_file(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not valid JSON: {e}") from e
    return validate_trace(doc)

"""Pure reduction rules of the benchmark: percentiles, span self time, and
the output checks. run.py applies them to the driver's records; the unit
tests in test_rules.py pin each one down.
"""

import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

LOSS_CAUSES = ("decoder_intra", "decoder_inter", "channel_intra",
               "channel_inter", "other")


def tail_percentile(samples):
    """Highest nearest-rank percentile with >= TAIL_BEYOND samples beyond it.

    Returns (percentile, value). The sample at sorted index i has
    n - 1 - i samples beyond it, so the highest qualifying index is
    n - 1 - TAIL_BEYOND, whose nearest-rank percentile is 100 * (i + 1) / n.
    With too few samples for any such percentile, returns (None, None).
    """
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        return None, None
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def median(samples):
    return statistics.median(samples) if samples else None


def self_times(events):
    """Self time of every span in a Chrome trace-event list.

    Each event is a complete ("X") event with args.span (its index) and
    args.parent (the parent's index, -1 for a root). A span's self time is
    its duration minus the part of its interval that its children cover;
    children are clipped to the parent and overlaps counted once.
    Returns {span index: self time in the trace's unit (microseconds)}.
    """
    by_index = {e["args"]["span"]: e for e in events}
    children = {i: [] for i in by_index}
    for e in events:
        parent = e["args"]["parent"]
        if parent in children:
            children[parent].append(e)
    result = {}
    for index, span in by_index.items():
        start, end = span["ts"], span["ts"] + span["dur"]
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: c["ts"]):
            lo = max(child["ts"], cursor)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[index] = span["dur"] - covered
    return result


def window_errors(w):
    """Conservation failures of one window record; empty when it passes.

    Every offered packet must end delivered or lost to exactly one cause,
    and every stage must agree on the count: generated, shaped (a MAC
    policy moves packets, never drops them), the fates run_window returns,
    the metrics collector's offered and delivered deltas, and the unique
    packets the network servers ingested.
    """
    errors = []
    offered = w["offered"]
    for key in ("generated", "shaped", "fates", "result_offered"):
        if w[key] != offered:
            errors.append(f"{key}={w[key]} != offered={offered}")
    lost = sum(w["loss"][cause] for cause in LOSS_CAUSES)
    if w["delivered"] + lost != offered:
        errors.append(f"delivered={w['delivered']} + lost={lost} != "
                      f"offered={offered}")
    for key in ("result_delivered", "server_delivered"):
        if w[key] != w["delivered"]:
            errors.append(f"{key}={w[key]} != delivered={w['delivered']}")
    return errors


def upgrade_errors(u):
    """Failures of one capacity upgrade: it must end with an accepted plan
    whose Master epoch does not go backwards."""
    errors = []
    if u["epoch"] == 0:
        errors.append("no Master plan")
    if u["epoch"] < u["previous_epoch"]:
        errors.append(f"epoch {u['epoch']} < previous {u['previous_epoch']}")
    if u["accepted_epoch"] != u["epoch"]:
        errors.append(f"accepted epoch {u['accepted_epoch']} != "
                      f"plan epoch {u['epoch']}")
    return errors


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")

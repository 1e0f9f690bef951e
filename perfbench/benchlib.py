"""Arithmetic and output checks of the benchmark, kept apart from the
process orchestration in run.py so test_benchlib.py can pin them down.

Every percentile in the benchmark comes from raw samples through
`percentile()`; server-side histograms are read only through their
exact `_sum`/`_count` pairs (`histogram_mean()`), never through bucket
bounds.
"""

import json
import math
import re
import statistics

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(Exception):
    """An output check failed or a figure could not be measured."""


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`.

    The rank is ceil(q * n); the result is the sample at that rank in
    sorted order. Raises BenchError when fewer than MIN_BEYOND samples
    lie beyond the selected rank, so no reported tail rests on a handful
    of samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        raise BenchError("p%g needs %d samples beyond it, have %d of %d"
                         % (q * 100, MIN_BEYOND, max(0, n - rank), n))
    return sorted(values)[rank - 1]


def min_samples(q):
    """Smallest sample count for which percentile(q) is defined."""
    n = 1
    while n - max(1, math.ceil(q * n - 1e-9)) < MIN_BEYOND:
        n += 1
    return n


def window_quantiles(values, q, windows):
    """Each window's q-quantile, in order, after `values` (in arrival
    order, at a steady offered rate) are cut into `windows` equal
    consecutive windows. Each window must hold enough samples for
    percentile()."""
    size = len(values) // windows if windows > 0 else 0
    if size < 1:
        raise BenchError("fewer than %d samples" % max(1, windows))
    return [percentile(values[i * size:(i + 1) * size], q) for i in range(windows)]


def lower_quartile(per_window):
    """The lower quartile of per-window figures (nearest rank: the 3rd
    lowest of 10). Host noise on a shared machine comes in episodes that
    can cover most of a run, and it only ever raises a window's latency;
    this figure ignores an episode covering up to 7 of 10 windows, yet a
    slowdown of the program recurring at least once in 8 of 10 windows
    moves it."""
    ranked = sorted(per_window)
    return ranked[max(1, math.ceil(0.25 * len(ranked) - 1e-9)) - 1]


def window_rates(events, begin_ns, window_s):
    """Per-window rates of a closed-loop phase: (time_ns, count) events
    from `begin_ns` on are binned into consecutive `window_s` windows
    (the trailing partial window is dropped). The benchmark reports
    their median, so a stall in fewer than half of the windows does not
    count."""
    width = int(window_s * 1e9)
    totals = {}
    for t, n in events:
        if t >= begin_ns:
            totals[(t - begin_ns) // width] = totals.get((t - begin_ns) // width, 0) + n
    if not totals or max(totals) < 4:
        raise BenchError("fewer than four full %g s windows" % window_s)
    return [totals.get(k, 0) / window_s for k in range(max(totals))]


def co_latencies(records):
    """Latency of each request from its *due* time to its last response
    byte (ns). Timing from the due time rather than the send time charges
    a server stall to every request it delayed, including those that
    waited for a free connection: the coordinated-omission correction."""
    return [r["done"] - r["due"] for r in records]


def generator_lag(records):
    """How late the generator itself started each request (ns): from the
    moment it could have started (due, and a connection free) to the
    moment it did. Waiting for a connection is the server's doing and is
    excluded here; it stays in co_latencies()."""
    return [r["start"] - r["eligible"] for r in records]


def error_ratio(failed, attempted):
    """Failed attempts over attempts; a run with no attempts is an error."""
    if attempted <= 0:
        raise BenchError("no attempts")
    if not 0 <= failed <= attempted:
        raise BenchError("failed count %d outside 0..%d" % (failed, attempted))
    return failed / attempted


def budget_gap(e2e_p50, layers):
    """Share of the end-to-end median no measured layer accounts for:
    (e2e - sum(layers)) / e2e. Negative when the layers' medians add up
    to more than the end-to-end median."""
    if e2e_p50 <= 0:
        raise BenchError("end-to-end median must be positive")
    return (e2e_p50 - sum(layers)) / e2e_p50


def histogram_mean(sum_value, count_value):
    """Exact mean of a registry histogram from its _sum and _count."""
    if count_value <= 0:
        raise BenchError("histogram has no observations")
    return sum_value / count_value


# ----------------------------------------------------------------- parsing

_PROM_LINE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)'
    r'( # \{[^}]*\} [0-9.eE+-]+ [0-9.eE+-]+)?$')


def parse_prometheus(text):
    """Parses Prometheus text exposition 0.0.4 into {name+labels: value}.
    Raises BenchError on any line that is neither a comment nor a
    well-formed sample."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        if m is None:
            raise BenchError("bad exposition line: %r" % line[:120])
        out[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return out


def metric_sum(samples, name):
    """Sum of every series of `name` across label sets (0 if absent)."""
    total = 0.0
    for key, value in samples.items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


EXPECTED_STATUS = {
    "submit": {202},
    "schedule": {200},
    "trace": {200},
    # /healthz answers 200 or 503 by design (its SLO verdict); either is
    # a prompt, valid answer.
    "healthz": {200, 503},
    "metrics": {200},
}


def check_response(kind, status, body, tasks, saturating=False):
    """Checks one response; returns the (accepted, rejected) task counts
    it reports. Raises BenchError when the status is unexpected or the
    body does not parse. At the fixed offered rates every task must be
    accepted; in the saturation phase backpressure (a 202 with some
    tasks rejected, or a 503 rejecting all) is the designed answer to
    overload and counts as rejected tasks, not as a failure."""
    expected = EXPECTED_STATUS[kind]
    if saturating and kind == "submit":
        expected = expected | {503}
    if status not in expected:
        raise BenchError("%s answered %d" % (kind, status))
    if kind == "metrics":
        parse_prometheus(body)
        return 0, 0
    try:
        doc = json.loads(body)
    except ValueError as e:
        raise BenchError("%s body does not parse: %s" % (kind, e))
    if kind == "submit":
        accepted, rejected = doc.get("accepted"), doc.get("rejected")
        if (not isinstance(accepted, int) or not isinstance(rejected, int)
                or accepted + rejected != tasks
                or (rejected != 0 and not saturating)):
            raise BenchError("submit of %d tasks answered %r" % (tasks, doc))
        return accepted, rejected
    if kind == "schedule" and "core" not in doc:
        raise BenchError("schedule body lacks a placement: %r" % doc)
    if kind == "trace" and "steps" not in doc:
        raise BenchError("trace body lacks steps: %r" % doc)
    return 0, 0


_DRAINED = re.compile(r"drained: (\d+) submitted, (\d+) placed, (\d+) rejected, "
                      r"(\d+) stolen")


def check_drained(log, accepted, rejected):
    """The daemon's SIGTERM summary must account for every task the
    generator saw answered: submitted == accepted, rejected == rejected,
    and placed == submitted + stolen (a stolen task is placed twice)."""
    m = _DRAINED.search(log)
    if m is None:
        raise BenchError("daemon printed no drained line")
    d_submitted, d_placed, d_rejected, d_stolen = (int(g) for g in m.groups())
    if d_submitted != accepted:
        raise BenchError("daemon submitted %d, generator saw %d accepted"
                         % (d_submitted, accepted))
    if d_rejected != rejected:
        raise BenchError("daemon rejected %d, generator saw %d rejected"
                         % (d_rejected, rejected))
    if d_placed != d_submitted + d_stolen:
        raise BenchError("placed %d != submitted %d + stolen %d"
                         % (d_placed, d_submitted, d_stolen))
    return d_submitted, d_placed, d_stolen

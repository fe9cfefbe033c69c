"""Pure helpers of the end-to-end benchmark (run.py): percentiles, span
self-time arithmetic, the seeded request mix and open-loop schedule, and the
served-body check.  Kept free of I/O so test_lib.py can pin their behaviour.
"""
import math
import random
import statistics

# Campaign window of the study (CampaignWindow defaults): 2015-02-01 ..
# 2016-03-01 UTC, epoch seconds.
WINDOW_START = 1422748800
WINDOW_END = 1456790400
BLADES = 63
SOCS = 15
CLASSES = ("single", "double", "few", "many", "multi")


# --- statistics -------------------------------------------------------------

def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank rule, or None
    when fewer than ten samples lie beyond it, so a tail is never read off a
    handful of points."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def median(values):
    return statistics.median(values) if values else None


def lower_quartile(values):
    """First quartile, as statistics.quantiles gives it, or the minimum of
    fewer than four samples.  The benchmark reports repeated timings of one
    fixed piece of work by it: on a shared host, slow spells of other
    tenants only ever lengthen a timing, so a median moves with the share of
    the run they happen to cover, while the lower quartile reads the time
    outside them."""
    if len(values) < 4:
        return min(values)
    return statistics.quantiles(values, n=4)[0]


# --- spans -------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part of it that its
    child spans cover.  `spans` are (name, start, end, id, parent, request)
    tuples as perfbench_driver writes them."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[1], s[2]))
    return {s[3]: (s[2] - s[1]) - covered(children.get(s[3], []), s[1], s[2])
            for s in spans}


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_ms(spans):
    """Self time summed per layer (the span-name prefix), in ms."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = layer_of(s[0])
        out[layer] = out.get(layer, 0.0) + own[s[3]] / 1e6
    return out


def span_ms(spans, name, self_only=False):
    """Summed duration (or self time) of every span called `name`, in ms."""
    own = self_times(spans) if self_only else None
    return sum((own[s[3]] if self_only else s[2] - s[1]) / 1e6
               for s in spans if s[0] == name)


def span_durations_ms(spans, name):
    return [(s[2] - s[1]) / 1e6 for s in spans if s[0] == name]


def coverage(spans):
    """Share of root-span time that named child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[1], s[2]))
    total = inner = 0
    for s in spans:
        if s[4] == 0:
            total += s[2] - s[1]
            inner += covered(children.get(s[3], []), s[1], s[2])
    return inner / total if total else None


# --- serve request mix ---------------------------------------------------------

# The dashboard request mix of bench/perf_serve.cpp (kWorkload): 6 predicate
# counts, 2 row listings and 4 report sections.  It is the hot subset, and
# its 6:2:4 ratio of kinds sets the rest of the vocabulary.
DASHBOARD = (
    "--count",
    "--class multi --count",
    "--blade 30 --count",
    "--since 1434000000 --until 1435000000 --count",
    "--class single --blade 7 --count",
    "--limit 5",
    "--class many --limit 3",
    "--fig 3",
    "--fig 5",
    "--tab1",
    "--headline",
    "--min-bits 2 --max-bits 8 --count",
)
# Dashboard copies in the vocabulary: 120 distinct lines, more than the
# server's result cache holds, so it evicts.
MIX_SCALE = 10
# Share of traffic that asks the hot subset.  No measured dashboard traffic
# backs it; it is chosen so the result cache both hits and evicts.
HOT_SHARE = 0.5


def request_mix(seed):
    """Seeded distinct request lines plus the hot subset (indices).

    The vocabulary is MIX_SCALE times the dashboard's composition: 60
    predicate counts (decode-bound; time windows can be pruned by the zone
    maps, class/blade/soc/bit ranges cannot), 20 bounded row listings
    (materialize-bound) and 40 report sections (analyzer-replay-bound:
    every figure, Table I and the headline once, the rest behind a
    predicate).  The DASHBOARD lines are among them and form the hot
    subset; the seed draws the others.  `--all` is left out."""
    rng = random.Random(seed)
    seen = set(DASHBOARD)

    def unique(make):
        while True:
            line = make()
            if line not in seen:
                seen.add(line)
                return line

    def window():
        span = rng.choice((3600, 86400, 7 * 86400, 30 * 86400))
        start = rng.randrange(WINDOW_START, WINDOW_END - span)
        return "--since %d --until %d" % (start, start + span)

    def predicate():
        kind = rng.randrange(6)
        if kind == 0:
            return "--blade %d" % rng.randrange(BLADES)
        if kind == 1:
            return "--soc %d" % rng.randrange(SOCS)
        if kind == 2:
            return "--class %s" % rng.choice(CLASSES)
        if kind == 3:
            return "--node %02d-%02d" % (rng.randrange(BLADES), rng.randrange(SOCS))
        if kind == 4:
            lo = rng.randrange(1, 9)
            return "--min-bits %d --max-bits %d" % (lo, lo + rng.randrange(0, 8))
        return window()

    n_counts = sum(1 for line in DASHBOARD if "--count" in line.split())
    n_listings = sum(1 for line in DASHBOARD if "--limit" in line.split())
    n_sections = len(DASHBOARD) - n_counts - n_listings
    extra = MIX_SCALE - 1
    sections = ["--fig %d" % n for n in range(1, 14)] + ["--tab1", "--headline"]
    plain = [s for s in sections if s not in DASHBOARD]
    counts = [unique(lambda: predicate() + " --count")
              for _ in range(extra * n_counts)]
    listings = [unique(lambda: "%s --limit %d" % (predicate(), rng.choice((5, 10))))
                for _ in range(extra * n_listings)]
    renders = plain + [unique(lambda: "%s %s" % (predicate(), rng.choice(sections)))
                       for _ in range(extra * n_sections - len(plain))]
    lines = list(DASHBOARD) + counts + listings + renders
    order = list(range(len(lines)))
    rng.shuffle(order)
    lines = [lines[i] for i in order]
    where = {old: new for new, old in enumerate(order)}
    return lines, sorted(where[i] for i in range(len(DASHBOARD)))


def pick_line(rng, n_lines, hot_set):
    if rng.random() < HOT_SHARE:
        return rng.choice(hot_set)
    return rng.randrange(n_lines)


def closed_batch(seed, n_lines, hot_set, rounds=3):
    """The request sequence of one closed-loop pass: every line `rounds`
    times, which stands for the uniform picks, plus the hot lines repeated
    until those extra repeats make HOT_SHARE of the batch, as in
    pick_line.  In seeded order, so each seed's pass has the same
    composition."""
    hot_rounds = round(rounds * n_lines * HOT_SHARE
                       / ((1 - HOT_SHARE) * len(hot_set)))
    batch = list(range(n_lines)) * rounds + list(hot_set) * hot_rounds
    random.Random(seed * 7919 + 1).shuffle(batch)
    return batch


def open_schedule(seed, n_lines, hot_set, rate, seconds, stores,
                  first_store, swap_every_s):
    """Poisson arrivals at `rate` per second for `seconds`, plus a swap to
    the other store every `swap_every_s` seconds.  Swaps come in pairs, so
    the phase ends on the store it started on.  Returns entries
    (due_us, kind, arg) in due order, kind 'q' (arg: line index) or 's'
    (arg: store index)."""
    rng = random.Random(seed * 104729 + int(rate * 1000))
    entries = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            break
        entries.append((int(t * 1e6), "q", pick_line(rng, n_lines, hot_set)))
    swaps = int(seconds / swap_every_s) if swap_every_s else 0
    if swaps * swap_every_s >= seconds:
        swaps -= 1
    store = first_store
    for k in range(1, swaps - swaps % 2 + 1):
        store = (store + 1) % stores
        entries.append((int(k * swap_every_s * 1e6), "s", store))
    entries.sort(key=lambda e: (e[0], e[1] == "q"))
    return entries


def fnv1a(data):
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def candidate_stores(sent, recv, start_store, swaps):
    """Stores that may have served a request sent at `sent` and answered at
    `recv`: the one current when it was sent, and every store a swap
    in flight during [sent, recv] switched from or to.  `swaps` are
    (sent, acked, from_store, to_store) in order."""
    current = start_store
    for _, s_ack, _, to in swaps:
        if s_ack is not None and s_ack <= sent:
            current = to
    out = {current}
    for s_sent, s_ack, frm, to in swaps:
        ack = s_ack if s_ack is not None else float("inf")
        if s_sent <= recv and ack >= sent:
            out.update((frm, to))
    return out


def backlog_grows(latencies_in_due_order):
    """A queue that keeps growing over the phase: the last quarter's median
    latency is more than twice the first quarter's plus 1 ms."""
    n = len(latencies_in_due_order)
    if n < 8:
        return False
    q = n // 4
    first = statistics.median(latencies_in_due_order[:q])
    last = statistics.median(latencies_in_due_order[-q:])
    return last > 2 * first + 1.0

"""In-memory span recorder that wraps the package's functions from outside.

A span is (name, start, end, parent): `parent` is the index of the span
that was open when this one started, or -1 for a root. Spans live in a
list until the run ends; nothing is written while the workload runs.

The recorder is single-threaded: spans nest through one stack, which is
what the workloads need (every solve and every sweep row runs on the
calling thread).
"""

import contextlib
import functools
import math
import re
import resource
import statistics
import time

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")


def check_metric_name(name):
    """Raise ValueError unless name is 1-64 letters, digits, `_`, `.`
    or `-`, starting with a letter or a digit."""
    if not isinstance(name, str) or not METRIC_NAME.match(name):
        raise ValueError("invalid metric name %r" % (name,))
    return name


def maxrss_mb():
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans; restore() undoes every patch()."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.rss_rise = {}
        self.results = {}
        self._stack = []
        self._patches = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("span %r closed out of order" % self.names[idx])

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name, track_rss=False, on_result=None):
        """Return fn wrapped so that each call records one span.

        track_rss keeps the rise of peak RSS across the call in
        rss_rise[span]; on_result(value) is kept in results[span]."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = maxrss_mb() if track_rss else 0.0
            idx = self.open(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if track_rss:
                    self.rss_rise[idx] = maxrss_mb() - rss0
            if on_result is not None:
                self.results[idx] = on_result(value)
            return value

        return traced

    def patch(self, name, fn, sites, track_rss=False, on_result=None):
        """Replace fn by its traced wrapper at every (owner, attribute)
        site; restore() puts the originals back."""
        traced = self.wrap(fn, name, track_rss=track_rss, on_result=on_result)
        for owner, attr in sites:
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Span duration minus the part of its interval that its direct
        children cover (children's intervals are merged first, so
        overlapping children are not subtracted twice)."""
        children = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx in range(len(self.names)):
            lo, hi = self.starts[idx], self.ends[idx]
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children[idx], key=lambda k: self.starts[k]):
                a = max(self.starts[c], lo)
                b = min(self.ends[c], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return out

    def by_name(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def total(self, name):
        """Summed duration of the spans called name."""
        d = self.durations()
        return sum(d[i] for i in self.by_name(name))

    def self_total(self, name):
        st = self.self_times()
        return sum(st[i] for i in self.by_name(name))

    def child_counts(self, parent_name, child_name):
        """For each span called parent_name, the number of its direct
        children called child_name."""
        counts = {i: 0 for i in self.by_name(parent_name)}
        for i in self.by_name(child_name):
            if self.parents[i] in counts:
                counts[self.parents[i]] += 1
        return list(counts.values())

    def self_time_table(self):
        """Self time summed per span name, largest first."""
        acc = {}
        for name, st in zip(self.names, self.self_times()):
            acc[name] = acc.get(name, 0.0) + st
        return sorted(acc.items(), key=lambda kv: -kv[1])


def tail_percentile(samples, q=0.9, min_beyond=10):
    """Nearest-rank percentile q of samples, lowered until at least
    min_beyond samples lie above it.

    Returns (value, q_used, n). With fewer than 2 * min_beyond samples
    even the median has too few samples beyond it, and the median is
    returned with q_used = 0.5.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = math.ceil(q * n - 1e-9)
    if n - rank >= min_beyond:
        return xs[rank - 1], q, n
    rank = n - min_beyond
    if rank < math.ceil(0.5 * n) or rank <= 0:
        return statistics.median(xs), 0.5, n
    return xs[rank - 1], rank / n, n


"""Summary statistics shared by every workload."""

from __future__ import annotations

import math

import numpy as np

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
#: Width of the windows over which the host's CPU steal is sampled (s).
STEAL_WINDOW_S = 1.0


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples beyond it.

    This is the rule each workload's fixed ``tail_q`` was chosen by, from
    its sample count at the benchmark's run length. It is never applied
    per run: the percentile behind ``tail_ms`` must not change with the
    program's speed.
    """
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND - 1e-9:
            best = q
    return best


def beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond percentile ``q``."""
    return n * (100.0 - q) / 100.0


def read_steal() -> int:
    """CPU time the host has stolen from this machine so far, in clock ticks.

    The ``steal`` column of ``/proc/stat``: time a virtual CPU wanted to
    run while the hypervisor ran something else. Reads 0 where the file
    or the column is missing, so every window then counts as quiet.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def quiet_windows(steal: list[tuple[float, int]], share: float) -> np.ndarray:
    """Which windows are among the ``share`` with the least host steal.

    ``steal`` holds ``(seconds into the phase, read_steal())`` samples
    taken at window edges (at least two). A window is quiet when the host
    stole no more in it than the ``share`` quantile of all windows (ties
    count as quiet). Windows are picked by the steal counter alone, never
    by the calls they hold, so a slower program cannot choose its own
    windows.
    """
    per_window = np.diff([ticks for _, ticks in steal])
    return per_window <= np.quantile(per_window, share)


def quiet_mask(steal: list[tuple[float, int]], done_s, share: float) -> np.ndarray:
    """Which calls, by the time ``done_s`` each ended, fell in a quiet window.

    A call that ended after the last sample counts with the last window.
    With fewer than two samples every call counts as quiet.
    """
    done = np.asarray(done_s, dtype=np.float64)
    if len(steal) < 2:
        return np.ones(done.shape, dtype=bool)
    quiet = quiet_windows(steal, share)
    edges = np.array([t for t, _ in steal])
    window = np.clip(np.searchsorted(edges, done, side="right") - 1, 0, quiet.size - 1)
    return quiet[window]


def percentile(values, q: float) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else math.nan


def hist_quantile(snapshot: dict | None, q: float) -> float:
    """Quantile ``q`` (0..1) of a ``repro.obs.Histogram.snapshot`` dict.

    Interpolates linearly inside the bucket that holds the rank, from the
    bucket's lower bound (0 for the first); a rank in the open ``+Inf``
    bucket reads as the last finite bound.
    """
    if not snapshot or not snapshot["count"]:
        return 0.0
    bounds, counts = snapshot["bounds"], snapshot["counts"]
    rank = q * snapshot["count"]
    seen = 0.0
    for i, count in enumerate(counts):
        if count and seen + count >= rank:
            if i >= len(bounds):
                return float(bounds[-1])
            lo = bounds[i - 1] if i else 0.0
            return float(lo + (bounds[i] - lo) * (rank - seen) / count)
        seen += count
    return float(bounds[-1])


def geomean(values) -> float:
    arr = np.asarray([v for v in values if v > 0], dtype=np.float64)
    return float(np.exp(np.log(arr).mean())) if arr.size else math.nan

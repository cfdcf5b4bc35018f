"""Host speed: scale measured times to a fixed reference speed.

The 2-vCPU virtual machines this benchmark runs on change speed under
it: a fixed pure-Python loop runs up to 60% slower in spells of one to
several seconds, and process CPU time for identical work moves with it
(one cold ranking request, with exactly the same search counts, took
1.2 s or 2.1 s).  Between runs that is a quartile spread of 0.15-0.45
on any timing, beyond every bound the benchmark may set.

So a :class:`HostSpeed` meter runs a fixed probe (interpreter work plus
a small numpy sort) in a background thread every :data:`EVERY_S`
seconds for the whole run, and times it in the thread's own CPU time,
which neither waiting for the interpreter lock nor being descheduled
counts.  A unit of work (a fit, a round of cold requests, one
analytics request) is reported multiplied by ``REFERENCE_S / probe``:
the probe's CPU time on the reference host over the mean of the probes
taken during the unit and the :data:`LOOKBACK_S` seconds before it.
The probe costs the program about 1% of one core.

Set-ups, and groups of held-out rankings, are instead bracketed by the
same probe taken in the calling thread while the program is idle
(:meth:`HostSpeed.probe`, :meth:`HostSpeed.scale`).  The meter's
probes, taken while the program is busy, read besides the host the
program's own load on the second core, and for these units that made
the spread wider, not narrower.  Idle probes in turn miss the spells
inside units of more than a second: for a 10 s fit they widened the
spread from 5% (raw) to 11%, where the meter narrows it to 2%.  The
human-readable output prints the median factor, so raw times can be
recovered.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

#: Probe CPU seconds on the reference host (2-vCPU VM, outside slow
#: spells).
REFERENCE_S = 0.0012
#: Seconds between two probes of the meter.
EVERY_S = 0.1
#: A unit's factor also uses the probes this many seconds before it.
LOOKBACK_S = 0.5

_SORTED = np.random.default_rng(0).random(4096)


def probe_once() -> float:
    """CPU seconds of this thread for the fixed probe."""
    began = time.thread_time()
    total, table = 0, {}
    for i in range(12_000):
        total += i * i
        table[i & 255] = total
    for _ in range(8):
        np.sort(_SORTED)
    return time.thread_time() - began


class HostSpeed:
    """A background probe meter that turns a unit's times into a factor.

    Use it as a context manager: the meter thread runs inside the
    ``with`` block and is stopped and joined when it ends.
    """

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.factors: list[float] = []
        self._at: list[float] = []        # perf_counter at each probe
        self._probe_s: list[float] = []   # its CPU seconds
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostSpeed":
        self.add_sample(time.perf_counter(), probe_once())
        self._thread = threading.Thread(target=self._meter, daemon=True,
                                        name="bench-hostspeed")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _meter(self) -> None:
        while not self._stop.wait(self.every_s):
            seconds = probe_once()
            self.add_sample(time.perf_counter(), seconds)

    def add_sample(self, at: float, seconds: float) -> None:
        """Book one probe taken at ``at`` (``perf_counter``) seconds."""
        self._probe_s.append(seconds)
        self._at.append(at)

    def probe(self) -> float:
        """The probe's CPU seconds now, in the calling thread.

        Taken while the program is idle, between units too short for
        the meter (see :meth:`scale`).  Median of three.
        """
        return statistics.median(probe_once() for _ in range(3))

    def scale(self, before: float, after: float) -> float:
        """The factor for a unit bracketed by idle probes.

        For units of milliseconds to about a second (a set-up, a model
        publish, a contraction) the meter's window holds only the
        probes taken while the program was busy with something else;
        probes just before and after the unit, while the program is
        idle, read the host alone and gave steadier set-up times.
        """
        factor = REFERENCE_S / ((before + after) / 2.0)
        self.factors.append(factor)
        return factor

    def factor(self, began: float, ended: float) -> float:
        """The factor for a unit that ran from ``began`` to ``ended``.

        Both are ``perf_counter`` readings.  Without a probe in the
        window, the last probe before ``ended`` stands in.
        """
        count = len(self._at)
        if not count:
            raise RuntimeError("no host-speed probe taken yet")
        low = bisect.bisect_left(self._at, began - LOOKBACK_S, 0, count)
        high = bisect.bisect_right(self._at, ended, 0, count)
        window = self._probe_s[low:high] if high > low \
            else [self._probe_s[max(0, high - 1)]]
        factor = REFERENCE_S / statistics.fmean(window)
        self.factors.append(factor)
        return factor

    def note(self) -> str:
        median = statistics.median(self.factors) if self.factors else 1.0
        return (f"times scaled to the reference host: median factor "
                f"{median:.3f} over {len(self.factors)} units, "
                f"{len(self._at)} probes")

"""Host-speed reference loop and slice accounting.

The benchmark runs on shared machines whose speed drifts by tens of percent
between runs a minute apart.  A fixed pure-Python reference loop is
therefore timed right before and after every timed slice of work, and,
through an interval timer, every ``SAMPLE_INTERVAL_S`` while a slice runs,
so that a fifteen-second slice is not judged by its two ends alone.  Each
slice's times are scaled by ``REF_S / r``, where ``r`` is the mean
reference time over the slice widened by ``WINDOW_S`` on either side; a
normalised time reads as "seconds on a host where the reference loop takes
REF_S".

The window is wide on purpose.  On a 2-vCPU shared host, the speed of a
0.2 s block of work and of the reference sample next to it were found to
correlate only weakly (r about 0.2): short-term jitter is independent from one moment to the
next, so normalising by a single neighbouring sample adds noise, while
averaging many samples cancels the slow drift between runs.  The time
spent in timer samples is subtracted from the operations it interrupted.
Raw times are kept beside the normalised ones so that drift stays
visible.
"""

from __future__ import annotations

import signal
import time

clock = time.perf_counter

# About the reference-loop time, between timed work, on the machine the
# bounds were derived on (2 vCPUs, Python 3.11); a constant, so normalised
# times compare across runs.
REF_S = 0.003
REF_ITERATIONS = 2_000
BRACKET_SAMPLES = 2
SAMPLE_INTERVAL_S = 0.05
WINDOW_S = 2.0
# A slice closes once its timed work reaches this many seconds.
SLICE_S = 0.25


def _ref_parts(i: int) -> tuple[int, ...]:
    return tuple(x for x in (i & 3, i % 5, i % 7) if x)


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the library spends its time in:
    small function calls, generator expressions, tuple building, dict
    updates and a sort.  Calls and generators make it track the speed of
    the library's many small calls better than a bare arithmetic loop."""
    acc = 0
    d: dict[tuple[int, ...], int] = {}
    for i in range(REF_ITERATIONS):
        t = _ref_parts(i)
        d[t] = d.get(t, 0) + 1
        acc += sum(t)
    return acc + len(sorted(d))


def reference_time() -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


class Sampler:
    """Reference samples, as (start, seconds): taken by ``bracket()``
    between slices and by a SIGALRM handler while the sampler is active.

    ``interrupted()`` tells a caller how much sampling landed inside an
    interval it timed (brackets never do); ``on_sample(seconds)`` lets a
    tracer exclude that time from the span it landed in.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.on_sample = None
        self._previous = None

    def _sample(self) -> float:
        start = clock()
        dt = reference_time()
        self.samples.append((start, dt))
        return dt

    def bracket(self) -> None:
        for _ in range(BRACKET_SAMPLES):
            self._sample()

    def interrupted(self, first: int, t0: float, t1: float) -> float:
        """Seconds of samples, from index ``first`` on, started in [t0, t1)."""
        return sum(dt for start, dt in self.samples[first:] if t0 <= start < t1)

    def reference(self, t0: float, t1: float) -> float:
        """Mean reference time over [t0 - WINDOW_S, t1 + WINDOW_S]."""
        near = [dt for start, dt in self.samples if t0 - WINDOW_S <= start <= t1 + WINDOW_S]
        return sum(near) / len(near)

    def _handler(self, signum, frame) -> None:
        dt = self._sample()
        if self.on_sample is not None:
            self.on_sample(dt)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


class SliceClock:
    """Groups timed operations into slices with a reference bracket between
    them, and normalises them once every sample is in.

    ``record(t0, t1, raw)`` adds one operation (its span and its raw
    seconds) to the open slice; ``close()`` ends the slice with a bracket;
    ``finish()`` closes the last slice and fills ``raw``, ``norm`` (one
    entry per operation) and ``slice_refs`` (one per slice).
    """

    def __init__(self, sampler: Sampler) -> None:
        self.sampler = sampler
        self.sampler.bracket()
        self.slices: list[tuple[float, float, list[float]]] = []
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.span: tuple[float, float] | None = None
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.slice_refs: list[float] = []

    def record(self, t0: float, t1: float, raw_s: float) -> None:
        self.span = (t0, t1) if self.span is None else (self.span[0], t1)
        self.pending.append(raw_s)
        self.pending_s += raw_s
        if self.pending_s >= SLICE_S:
            self.close()

    def close(self) -> None:
        if not self.pending:
            return
        self.sampler.bracket()
        self.slices.append((*self.span, self.pending))
        self.pending, self.pending_s, self.span = [], 0.0, None

    def finish(self) -> None:
        self.close()
        for t0, t1, raws in self.slices:
            ref = self.sampler.reference(t0, t1)
            self.slice_refs.append(ref)
            self.raw.extend(raws)
            self.norm.extend(t * REF_S / ref for t in raws)

"""Host-speed normalisation of timed regions.

The hosts this benchmark runs on drift in speed by tens of percent over
seconds, for every kind of work alike: identical FFT loops ran 0.42..0.77 s
within one minute on a 2-core Xeon VM, with CPU time equal to wall time.  A
raw wall time therefore varies more between runs than any regression worth
catching.

:class:`SpeedSampler` interrupts the timed region every ``PERIOD_S`` with
SIGALRM and times a short kernel owned by the harness (FFTs, a memory stream
and interpreted Python, like the workloads; nothing in rchlab, so no change
to the program moves it; it runs once untimed before each timing, so the
program's working set does not move it either).  Each slice of the region
between samples
is rescaled by ``REF_KERNEL_S / kernel time``, which gives the region's time
at a fixed reference speed.  The kernel's own time is excluded from both the
raw and the normalised time.  The handler runs between bytecodes of the main
thread, so no thread is started.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.2
REF_KERNEL_S = 0.005   # fixed scale: normalised time is the time at the speed
                       # where one kernel run takes this long
_FFT_LOOPS = 8
_PRODUCT_LOOPS = 1
_STREAM_LOOPS = 2
_PY_LOOPS = 4000
_rng = np.random.default_rng(0)
_DATA = _rng.random(2**12)
_STREAM = _rng.random(2**18)
_SPEC = np.fft.rfft(_rng.random(2**15))
# Large arrays are preallocated: the allocator's state, which the program
# under test changes, must not move the kernel's time.
_STREAM_OUT = np.empty_like(_STREAM)
_PAD = np.zeros(2**15 + 1, dtype=complex)
_WIDE = np.empty(2**16)
_WIDE_SPEC = np.empty(2**15 + 1, dtype=complex)


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: cache-resident FFTs, a padded
    spectral product at 2^16 points, a 2 MiB memory stream and an
    interpreted loop.  It uses numpy.fft, whose plans rchlab never touches.

    The kernel runs once untimed first.  The program's slice before a sample
    leaves the caches in a state that depends on the program's working set;
    after the untimed run, the timed one starts from the same state whatever
    the program did.  (Timed right after a 64 MiB stream, a single run was
    4-6% slower than after a cache-resident slice; the second run differs by
    under 1%.  ``check_speed.py`` measures this.)
    """
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def _kernel() -> None:
    for _ in range(_FFT_LOOPS):
        y = np.fft.irfft(np.fft.rfft(_DATA) * 0.5, _DATA.size)
        y = y * y + 0.25 * y
    for _ in range(_PRODUCT_LOOPS):
        _PAD[:2**14] = _SPEC[:2**14]
        np.fft.irfft(_PAD, 2**16, out=_WIDE)
        np.multiply(_WIDE, _WIDE, out=_WIDE)
        np.fft.rfft(_WIDE, out=_WIDE_SPEC)
    for _ in range(_STREAM_LOOPS):
        np.multiply(_STREAM, 0.5, out=_STREAM_OUT)
        np.add(_STREAM_OUT, _STREAM, out=_STREAM_OUT)
    acc = 0
    for i in range(_PY_LOOPS):
        acc += i * i


class SpeedSampler:
    """Raw and speed-normalised seconds of one timed region.

    ``on_pause(seconds)`` is told how long each sample kept the region's own
    work from running, so a tracer can leave that time out of its spans.
    ``start``, a ``time.perf_counter()`` reading (CLOCK_MONOTONIC, the same
    clock in every process of the host), opens the region before entry: the
    work from ``start`` to entry, such as another process's interpreter start
    and imports, is the first slice and is rescaled by the first sample.
    """

    def __init__(self, on_pause=None, period: float = PERIOD_S,
                 start: float | None = None):
        self.on_pause = on_pause
        self.period = period
        self.start = start
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self.paused_s = 0.0
        self.samples = 0

    def _slice(self, now: float) -> None:
        work = now - self._last
        kernel = kernel_seconds()
        self.raw_s += work
        self.normalised_s += work * REF_KERNEL_S / kernel
        self.samples += 1
        self._last = time.perf_counter()
        self.paused_s += self._last - now
        if self.on_pause is not None:
            self.on_pause(self._last - now)

    def _handler(self, signum, frame):
        self._slice(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        t0 = time.perf_counter()
        before = 0.0 if self.start is None else t0 - self.start
        kernel_seconds()  # warm-up: the first run in a process is the slowest
        now = time.perf_counter()
        self.paused_s += now - t0
        self._last = now - before  # the first slice holds the work before entry
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        now = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._slice(now)
        return False

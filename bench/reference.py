"""A fixed reference computation, timed next to every operation.

The benchmark runs on a shared host whose speed moves by up to ~50% over
seconds to minutes, in CPU time as well as in wall time, so raw
operation times of the same code spread more between runs than any
useful bound.  Operations are therefore interleaved with this
computation, and the end-to-end metrics divide an operation's CPU time
by the CPU time of the reference runs around it: a slow phase of the
host slows both.

The reference does not touch the package, so no change to the package
moves it.  Most of it is radix-2 butterfly passes, the same numpy work
as the package's FFT, written into buffers made once (so no page faults
are timed): about 40% on 131072-point rows that stream through memory
(the FFT on large batches) and 40% on 4096-point rows that stay in
cache (the FFT on short batches).  The rest is a loop of small
matrix-vector steps that is mostly interpreter overhead (the GRU, the
T60 search), which slows more than the FFT when the host slows; it
is about 15% of the reference.
"""

import time

import numpy as np

_BIG, _SMALL = 1 << 17, 1 << 12
_rng = np.random.default_rng(20050737)


def _buffers(n):
    """Inputs, twiddles and outputs of one pass, each n complex values.

    Kept as separate arrays of at most 2 MiB: numpy asks the kernel for
    huge pages on arrays of 4 MiB and more, and whether it gets them
    differs from process to process, which moved the reference's time
    by up to half between runs.
    """
    def noise():
        return _rng.standard_normal(n) + 1j * _rng.standard_normal(n)
    twiddle = np.exp(-1j * np.pi * np.arange(n) / n)
    return noise(), noise(), twiddle, np.empty(n, complex), \
        np.empty(n, complex), np.empty(n, complex)


_PASSES = ((_buffers(_BIG), 2), (_buffers(_SMALL), 128))
_W = _rng.standard_normal((32, 32)) / 8.0
_X = _rng.standard_normal(32)


def reference_cpu_s():
    """CPU seconds of one run of the reference (about 6 ms)."""
    c = time.process_time()
    for (even, odd, twiddle, t, lower, upper), passes in _PASSES:
        for _ in range(passes):
            np.multiply(odd, twiddle, out=t)
            np.add(even, t, out=lower)
            np.subtract(even, t, out=upper)
    x = _X
    for _ in range(200):
        x = np.tanh(_W @ x + _X)
    return time.process_time() - c

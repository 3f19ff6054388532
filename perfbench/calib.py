"""Calibration kernel for stating times at a fixed reference speed.

On a shared 2-vCPU Xeon VM the same pass of pure Python and numpy work was
measured taking anywhere from 0.18 s to 0.54 s within a few minutes, with
the slow and fast spells lasting seconds: the host's load and clocking
change the speed of each vCPU.  Every time the benchmark reports is
therefore scaled by ``REF_S / k``, where ``k`` is this fixed kernel timed
right beside the measurement.  A change to dnls_well moves the measured
time and leaves the kernel alone, so the scaled time moves by the same
ratio; a change of machine speed moves both and cancels.  Raw times stay in
the result files.

The kernel is timed in process CPU time, so that time the host steals from
the VM while it runs does not count.  It is one run of 5-11 ms rather than
the best of several short ones, so that it sees the sustained speed the
measured work sees rather than the best burst.
"""
import time

import numpy as np

REF_S = 0.010  # kernel CPU time that defines the reference speed


def kernel() -> float:
    """CPU seconds of a fixed Python loop plus 512-point FFTs."""
    a = np.ones(512, dtype=complex)
    t = time.process_time()
    s = 0
    for i in range(60_000):
        s += i * i
    for _ in range(120):
        a = np.fft.ifft(np.fft.fft(a))
    return time.process_time() - t

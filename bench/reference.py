"""Machine-speed reference of the benchmark: a fixed piece of work, timed.

The benchmark host is shared: for minutes at a time it runs the same code
up to half again slower, and the ten-run spread of raw wall times follows
that drift, not the program.  So the campaign process times this work
between its repeats, in a process of its own, and reports each repeat's
wall time scaled by REFERENCE_S / (the reference time around it).  The
work is never changed by the program under test, and it runs in its own
process so that the campaign's heap and caches do not move it.

The work mixes what the campaigns do: a Python loop of small numpy calls
(like the per-point ``rho.value`` calls), large complex arrays and a
matrix product (like Gram assembly), and plain Python arithmetic.

Protocol: each line on stdin asks for one timing, answered by one line on
stdout with the seconds it took; end of input ends the process.

    python3 bench/reference.py      # then type an empty line
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# median time of one reference() on the 2-core Intel Xeon (2.1 GHz) host
# the benchmark was written on; it only sets the scale of campaign_s
REFERENCE_S = 0.33


def reference() -> float:
    """Seconds taken by the fixed work."""
    start = time.perf_counter()
    a = np.linspace(0.0, 1.0, 64) + 0.5j
    acc = 0.0
    for _ in range(12_000):
        b = np.full(64, 1.0 + 0j)
        b *= a
        acc += float(np.abs(b).sum())
    big = np.linspace(-1.0, 1.0, 2000 * 512).reshape(2000, 512) + 0j
    for _ in range(3):
        b = np.exp(1j * big.real) * big
        acc += float(np.abs(b).sum())
        acc += float(np.abs(b.conj().T @ b[:, :64]).sum())
    n = 0
    for i in range(1_000_000):
        n += i * i % 7
    if not np.isfinite(acc) or n != 1_999_998:
        raise ArithmeticError("reference work gave a wrong result")
    return time.perf_counter() - start


class Reference:
    """A reference process, started now and stopped by close()."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.time()  # the first timing pays for imports and page faults
        except BaseException:
            self.close()
            raise

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> int:
    for _ in sys.stdin:
        sys.stdout.write(f"{reference()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

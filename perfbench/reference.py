"""Host speed, measured with a fixed reference task during a run.

A shared virtual machine's speed drifts by a tenth or more over minutes,
whatever the program does. :class:`HostProbe` runs a fixed task built
from the same kinds of work as the program (interpreted Python, JSON,
SHA-256, small numpy products) at quiet points of a workload, where no
op is in flight and the program's threads are idle, and keeps its mean
time. The task never touches the program, so a change to the program
cannot move it.

The task is timed in process CPU time. On a virtual machine that clock
runs on while the host holds the virtual CPU back, so it follows the
host's speed, but it leaves out the time kernel writeback threads take
the CPU after the hub's file writes. The ``push`` workload's own clock
(CPU time) leaves that out too; ``local`` writes nothing, and there CPU
time is wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

import numpy as np

#: Nominal time of one reference task, in milliseconds.
REFERENCE_MS = 1.0

_BLOB = bytes(range(256)) * 512
_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_RECORDS = [{"id": f"c{i:04d}", "parents": [f"c{i - 1:04d}"], "score": i / 7.0}
            for i in range(64)]


def reference_task() -> int:
    """One fixed unit of work."""
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    decoded = json.loads(json.dumps(_RECORDS))
    digest = hashlib.sha256(_BLOB).digest()
    product = np.tanh(_MATRIX @ _MATRIX)
    return len(counts) + len(decoded) + digest[0] + int(product[0, 0])


class HostProbe:
    """Reference-task time accumulated through a run."""

    def __init__(self, repeats: int = 8):
        self.repeats = repeats
        self.tasks = 0
        self.seconds = 0.0

    def sample(self) -> float:
        """Run ``repeats`` reference tasks; return the wall time taken.

        One untimed task first brings the task's code and data back into
        the caches the program's op evicted, and the garbage collector is
        off while the tasks run, so a collection of the program's heap is
        never charged to them: what is left depends on the host alone.
        """
        start = time.perf_counter()
        reference_task()
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu_start = time.process_time()
            for _ in range(self.repeats):
                reference_task()
            self.seconds += time.process_time() - cpu_start
        finally:
            if collecting:
                gc.enable()
        self.tasks += self.repeats
        return time.perf_counter() - start

    def task_ms(self) -> float:
        return self.seconds / self.tasks * 1e3

"""Process placement and ``/proc`` readings for the benchmark's own processes."""

from __future__ import annotations

import os

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def plan_cpus() -> tuple[int | None, int | None, int]:
    """``(server_cpu, loadgen_cpu, host_cpus)``.

    With at least two usable CPUs the serving process gets the first and
    the load generator the second; with one, nothing is pinned.
    """
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) < 2:
        return None, None, len(usable)
    return usable[0], usable[1], len(usable)


def pin(pid: int, cpu: int | None) -> None:
    """Pin ``pid`` (0 = this process) to one CPU; no-op for ``None``."""
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        data = fh.read()
    # The command name may hold spaces; fields resume after its ")".
    fields = data[data.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def steal_seconds(cpu: int | None) -> float:
    """Seconds the hypervisor ran something else on ``cpu`` (all CPUs for
    ``None``), from ``/proc/stat``; 0 where the kernel does not count it."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == label:
                return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0
    return 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

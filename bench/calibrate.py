"""Reference kernel that measures the host's speed during a ``roundtrip-fit`` run.

On a shared VM the CPU time of one single-threaded Python command drifts with
the load of the host's other guests, by 10-25 % between runs minutes apart.
``worker.timed_pass`` runs this kernel between the ``roundtrip-fit`` cycles
and scales their CPU times by ``NOMINAL_S / median kernel time``, so the
end-to-end times read as on a host running at the kernel's nominal speed.
The kernel does the kind of work those commands do -- argparse, configparser,
CSV text and a small least-squares loop -- and calls nothing in the package,
so no change to the package moves it.

Over four series of ten seeds the scaled ``cmd_p90_cpu_s`` spread 0.04-0.07
(quartile distance over median) where the raw one spread 0.05-0.12, and
0.25 on another host.  The solver workloads keep raw CPU times, because no
kernel was shown to steady them.  64 x 64 oracle solves on both of
``sweep-c3``'s pool threads followed a forced change (a process of ours
busy on the other CPU cut the sweep's CPU time by 37 % and the kernel's by
33 %) but missed half of the host's own drift: the scaled spread was 0.06
and 0.23 in two series where the raw one was 0.10 and 0.19.  Neither a
324 x 324 nor a 784 x 784 dense solve tracked ``scan-strong-c13``, and the
large one raised its peak RSS through heap growth.
"""

from __future__ import annotations

import argparse
import configparser
import statistics
import time

import numpy as np

from workloads import EXAMPLE_SYSTEM

#: Median CPU time of the kernel between ``roundtrip-fit`` cycles on a 2-vCPU
#: Intel Xeon VM (Python 3.11, numpy with OpenBLAS at one thread).
NOMINAL_S = 0.0042
#: Share of the preceding commands' CPU time spent on the kernel after them.
SHARE = 0.1

_X = np.linspace(-3.0, 3.0, 400)
_INI = "\n".join(
    ["[system]", *(f"{key} = {value}" for key, value in EXAMPLE_SYSTEM.items())]
    + ["[drive]", "target = qd", "alpha_per_uw = 2.0", "power_min_uw = 0.5", "power_points = 40"]
)


def reference_kernel() -> None:
    """CLI, config, CSV and least-squares work, like a ``reproduce`` or ``fit`` command."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("scan", "power-sweep", "fit", "reproduce"):
        sub = commands.add_parser(name)
        sub.add_argument("path")
        sub.add_argument("--alpha", type=float)
    parser.parse_args(["fit", "table.csv", "--alpha", "2.0"])
    config = configparser.ConfigParser()
    config.read_string(_INI)
    width = config.getfloat("drive", "alpha_per_uw")

    y = 1.0 / (1.0 + (_X / width) ** 2)
    text = "x,y\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(_X.tolist(), y.tolist()))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    p = np.array([0.8, 0.1, 1.5])
    for _ in range(20):
        u = (x - p[1]) / p[2]
        den = 1.0 + u * u
        slope = 2.0 * p[0] * u / (p[2] * den**2)
        jac = np.stack([1.0 / den, slope, slope * u])
        p = p + np.linalg.solve(jac @ jac.T + 1e-9 * np.eye(3), jac @ (y - p[0] / den))


class HostSpeed:
    """CPU times of the reference kernel, sampled between commands."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, after_cpu_s: float = 0.0) -> None:
        """Run the kernel at least once and for about ``SHARE * after_cpu_s``."""
        spent = 0.0
        while True:
            start = time.process_time()
            reference_kernel()
            self.samples.append(time.process_time() - start)
            spent += self.samples[-1]
            if spent >= SHARE * after_cpu_s:
                return

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's CPU times into times at nominal host speed."""
        return NOMINAL_S / self.median_s()

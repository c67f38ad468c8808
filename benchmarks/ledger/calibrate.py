"""Speed calibration: every timing is divided by the host's speed right then.

The host is shared: for seconds to minutes at a time the same code runs
1.5-2.4x slower (measured: raw cold ``paper`` 160-390 ms in one five-minute
series), and not uniformly — an arithmetic spin loop slows 1.5x while the
object-heavy code this repository consists of slows 2.4x.  So the ledger
times a small fixed *kernel* that does what the program does (hash and
compare frozen dataclass trees, fill and probe a dict, recurse) next to
every operation, and divides the operation's duration by
``kernel seconds / CALIB_REF_S``.  The kernel runs between every two *steps*
— single operations in process, lockstep pairs of concurrent requests over
TCP — while every client is quiescent: the box's two vCPUs deliver about one
core between them, so a kernel running beside a busy server would measure
the contention it causes.

All end-to-end timing metrics are these calibrated values ("at reference
speed"); raw ones are kept as ``raw.*`` diagnostics, and what the kernel saw
as ``machine.*``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Kernel seconds at the reference speed (the builder's box in its quiet
#: state).  A constant of the ledger: changing it rescales every calibrated
#: metric, so it never changes.
CALIB_REF_S = 0.0058
#: Kernel runs whose median brackets a set-up (see ``boundary_tick``).
BOUNDARY_TICKS = 3
#: A round whose per-step speed factors spread (p90 over p10) by more than
#: this is counted in ``machine.unsteady_rounds``.
UNSTEADY_SPREAD = 0.25

#: (statement class, raw client-observed seconds, host speed factor then).
Sample = Tuple[str, float, float]


@dataclass(frozen=True)
class _Node:
    label: str
    children: tuple

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


_LEAVES = [_Node(f"L{i}", ()) for i in range(40)]


def tick() -> float:
    """The host's speed factor right now: kernel seconds / ``CALIB_REF_S``
    (1.0 at the reference speed, larger when the host is slower).

    The collector is off while the kernel runs (it builds no cycles), so the
    reading does not depend on how many objects the harness itself holds.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for _ in range(2):
            memo: Dict[_Node, int] = {}
            level = _LEAVES
            for depth in range(5):
                following = []
                for left, right in zip(level, level[1:]):
                    node = _Node(f"op{depth}", (left, right))
                    if node not in memo:
                        memo[node] = len(memo)
                    following.append(node)
                    total += memo[_Node(f"op{depth}", (left, right))]
                level = following
            for node in list(memo)[:400]:
                total += node.size()
        return (time.perf_counter() - started) / CALIB_REF_S
    finally:
        if collecting:
            gc.enable()


def boundary_tick() -> float:
    return statistics.median(tick() for _ in range(BOUNDARY_TICKS))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@dataclass
class Round:
    """One measured round: its ok operations and its wall.

    A *step* is what runs between two kernel runs — one operation in
    process, one lockstep pair over TCP; the round's wall is the sum of its
    steps, raw and calibrated.
    """

    samples: List[Sample] = field(default_factory=list)
    wall: float = 0.0
    calibrated_wall: float = 0.0

    @property
    def speed(self) -> float:
        return statistics.median(speed for _, _, speed in self.samples)

    @property
    def unsteady(self) -> bool:
        speeds = [speed for _, _, speed in self.samples]
        return percentile(speeds, 0.9) / percentile(speeds, 0.1) - 1 > UNSTEADY_SPREAD

    def calibrated(self) -> List[Tuple[str, float]]:
        return [(cls, seconds / speed) for cls, seconds, speed in self.samples]


def measure_rounds(run_round: Callable[[int], Round], seconds: float) -> List[Round]:
    """Run rounds until ``seconds`` have passed (at least one)."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(len(rounds)))
        if time.perf_counter() >= deadline:
            return rounds


def end_to_end(rounds: Sequence[Round]) -> Dict[str, float]:
    """The calibrated end-to-end timing metrics plus raw/machine diagnostics."""
    calibrated = [pair for r in rounds for pair in r.calibrated()]
    latencies = [seconds for _, seconds in calibrated]
    raw = [seconds for r in rounds for _, seconds, _ in r.samples]
    speeds = [r.speed for r in rounds]
    metrics = {
        "throughput_ops_s": statistics.median(
            len(r.samples) / r.calibrated_wall for r in rounds
        ),
        "latency_ms_p50": percentile(latencies, 0.50) * 1e3,
        "latency_ms_p95": percentile(latencies, 0.95) * 1e3,
        "raw.throughput_ops_s": statistics.median(len(r.samples) / r.wall for r in rounds),
        "raw.latency_ms_p50": percentile(raw, 0.50) * 1e3,
        "machine.speed_factor_p50": statistics.median(speeds),
        "machine.speed_factor_spread": max(speeds) / min(speeds) - 1,
        "machine.unsteady_rounds": sum(r.unsteady for r in rounds),
    }
    by_class: Dict[str, List[float]] = {}
    for cls, seconds in calibrated:
        by_class.setdefault(cls, []).append(seconds)
    for cls, values in by_class.items():
        metrics[f"stmt.{cls}.latency_ms_p50"] = percentile(values, 0.50) * 1e3
    return metrics

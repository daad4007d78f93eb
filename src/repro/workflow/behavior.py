"""Function execution behaviour: alternating CPU and blocking-I/O segments.

This is the representation the paper's Profiler produces (§3.2, Figure 10):
strace yields the start timestamp and duration of every blocking syscall;
everything between block periods is CPU time.  The Predictor's Algorithm 1
replays these segments under simulated GIL switching, and the runtime
substrate executes them on simulated cores.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ProfilingError


class SegmentKind(enum.Enum):
    """What a segment occupies: a core (CPU) or nothing (blocking I/O)."""

    CPU = "cpu"
    IO = "io"


@dataclass(frozen=True)
class Segment:
    """One homogeneous period of function execution.

    ``duration_ms`` is stored as a primitive ``float`` whatever number type
    it was built from (jitter hands in numpy scalars), so everything derived
    from it — fingerprints, predictions, comparisons — is plain Python.
    """

    kind: SegmentKind
    duration_ms: float

    def __post_init__(self) -> None:
        duration = float(self.duration_ms)
        if not math.isfinite(duration) or duration < 0:
            raise ProfilingError(
                f"segment duration must be finite and >= 0, got {duration}")
        object.__setattr__(self, "duration_ms", duration)


class FunctionBehavior:
    """An immutable sequence of :class:`Segment` describing a solo run.

    Convenience constructors::

        FunctionBehavior.cpu(2.0)                      # pure compute
        FunctionBehavior.io(15.0)                      # pure blocking I/O
        FunctionBehavior.of(("cpu", 1.0), ("io", 5.0)) # mixed

    ``data_out_mb`` is the size of the intermediate output the function hands
    to its successors (drives interaction-overhead modelling, Figure 4).
    """

    __slots__ = ("_segments", "data_out_mb", "memory_mb", "_fp", "_replay")

    def __init__(self, segments: Iterable[Segment], *,
                 data_out_mb: float = 0.01, memory_mb: float = 0.0) -> None:
        segs = tuple(segments)
        if not segs:
            raise ProfilingError("a behaviour needs at least one segment")
        if data_out_mb < 0 or memory_mb < 0:
            raise ProfilingError("data_out_mb / memory_mb must be >= 0")
        self._segments = segs
        self.data_out_mb = float(data_out_mb)
        self.memory_mb = float(memory_mb)
        self._fp: Optional[tuple] = None
        self._replay: Optional[tuple] = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def cpu(cls, duration_ms: float, **kw: float) -> "FunctionBehavior":
        return cls([Segment(SegmentKind.CPU, duration_ms)], **kw)

    @classmethod
    def io(cls, duration_ms: float, **kw: float) -> "FunctionBehavior":
        return cls([Segment(SegmentKind.IO, duration_ms)], **kw)

    @classmethod
    def of(cls, *pairs: tuple[str, float], **kw: float) -> "FunctionBehavior":
        """Build from ``("cpu"|"io", duration_ms)`` pairs."""
        return cls([Segment(SegmentKind(kind), dur) for kind, dur in pairs], **kw)

    # -- inspection -----------------------------------------------------------
    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def cpu_ms(self) -> float:
        """Total CPU time of a solo run."""
        return sum(s.duration_ms for s in self._segments
                   if s.kind is SegmentKind.CPU)

    @property
    def io_ms(self) -> float:
        """Total blocking time of a solo run."""
        return sum(s.duration_ms for s in self._segments
                   if s.kind is SegmentKind.IO)

    @property
    def solo_ms(self) -> float:
        """Uncontended end-to-end latency (sum of all segments)."""
        return self.cpu_ms + self.io_ms

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionBehavior):
            return NotImplemented
        return (self._segments == other._segments
                and self.data_out_mb == other.data_out_mb
                and self.memory_mb == other.memory_mb)

    def __hash__(self) -> int:
        return hash((self._segments, self.data_out_mb, self.memory_mb))

    def __repr__(self) -> str:
        parts = ",".join(f"{s.kind.value}:{s.duration_ms:g}" for s in self._segments)
        return f"FunctionBehavior({parts})"

    def fingerprint(self) -> tuple:
        """Canonical hashable identity of this behaviour.

        A nested tuple of primitives (segment kinds/durations plus the data
        and memory footprints), so equal behaviours — however constructed —
        produce equal fingerprints.  Keys the stage-level prediction cache
        (see :class:`repro.core.predictor.PredictionCache`); computed once
        and memoized, since fingerprinting sits on PGP's hot path.
        """
        fp = self._fp
        if fp is None:
            fp = (tuple((s.kind.value, s.duration_ms)
                        for s in self._segments),
                  self.data_out_mb, self.memory_mb)
            self._fp = fp
        return fp

    def replay_segments(self, key: tuple[float, float, float]
                        ) -> tuple[tuple[bool, float], ...]:
        """Algorithm 1's view of this behaviour: ``(is_cpu, duration_ms)``.

        ``key`` is a calibration's ``(isolation_startup_ms, cpu_scale,
        io_scale)``: a positive startup becomes a leading CPU segment, then
        the :meth:`merged` segments follow, each scaled by its execution
        overhead.  The tuple for the latest key is memoized on the
        behaviour, so a predictor replaying it thousands of times builds it
        once, and the memo goes away with the behaviour when a re-profile
        replaces it.
        """
        memo = self._replay
        if memo is not None and memo[0] == key:
            return memo[1]
        startup_ms, cpu_scale, io_scale = key
        segs = [(True, startup_ms)] if startup_ms > 0 else []
        for seg in self.merged():
            is_cpu = seg.kind is SegmentKind.CPU
            segs.append((is_cpu, seg.duration_ms
                         * (cpu_scale if is_cpu else io_scale)))
        out = tuple(segs)
        self._replay = (key, out)
        return out

    # -- transforms -----------------------------------------------------------
    def scaled(self, cpu_factor: float = 1.0, io_factor: float = 1.0
               ) -> "FunctionBehavior":
        """A copy with CPU/IO segment durations multiplied by the factors.

        Used for isolation-mechanism execution overheads (Table 1): MPK adds
        +35.2 % CPU / +7.3 % IO, SFI +52.9 % / +29.4 %.
        """
        if cpu_factor < 0 or io_factor < 0:
            raise ProfilingError("scale factors must be >= 0")
        factor = {SegmentKind.CPU: cpu_factor, SegmentKind.IO: io_factor}
        return FunctionBehavior(
            (Segment(s.kind, s.duration_ms * factor[s.kind]) for s in self._segments),
            data_out_mb=self.data_out_mb, memory_mb=self.memory_mb)

    def perturbed(self, rng: np.random.Generator, sigma: float = 0.08
                  ) -> "FunctionBehavior":
        """A copy with lognormal multiplicative jitter on every segment.

        Stands in for run-to-run testbed variance when the experiments need
        latency *distributions* (Figures 14 and 15).  ``sigma`` is the shape
        parameter of the lognormal (median multiplier = 1).
        """
        if sigma < 0:
            raise ProfilingError("sigma must be >= 0")
        factors = rng.lognormal(mean=0.0, sigma=sigma, size=len(self._segments))
        return FunctionBehavior(
            (Segment(s.kind, s.duration_ms * f)
             for s, f in zip(self._segments, factors)),
            data_out_mb=self.data_out_mb, memory_mb=self.memory_mb)

    def merged(self) -> "FunctionBehavior":
        """A copy with adjacent same-kind segments coalesced."""
        out: list[Segment] = []
        for seg in self._segments:
            if out and out[-1].kind is seg.kind:
                out[-1] = Segment(seg.kind, out[-1].duration_ms + seg.duration_ms)
            else:
                out.append(seg)
        return FunctionBehavior(out, data_out_mb=self.data_out_mb,
                                memory_mb=self.memory_mb)

    def block_periods(self) -> list[tuple[float, float]]:
        """(start, end) of every blocking period relative to function start.

        This is exactly what the paper's Profiler derives from strace logs
        (Figure 10's "block period" comments).
        """
        out = []
        t = 0.0
        for seg in self._segments:
            if seg.kind is SegmentKind.IO:
                out.append((t, t + seg.duration_ms))
            t += seg.duration_ms
        return out

    @classmethod
    def from_block_periods(cls, total_ms: float,
                           periods: Sequence[tuple[float, float]],
                           **kw: float) -> "FunctionBehavior":
        """Inverse of :meth:`block_periods` — rebuild segments from a strace
        trace of (start, end) blocking periods and the total solo latency."""
        t = 0.0
        segs: list[Segment] = []
        #: microsecond-scale overlaps are measurement/float noise (strace's
        #: -ttt timestamps carry 1 us resolution, and epoch-scale doubles
        #: only ~0.1 us) — clamp them instead of rejecting the trace.
        clamp_eps = 5e-3
        for start, end in sorted(periods):
            if start < t - clamp_eps or end < start:
                raise ProfilingError(f"overlapping/negative block period "
                                     f"({start}, {end}) at t={t}")
            start = max(start, t)
            end = max(end, start)
            if start > t:
                segs.append(Segment(SegmentKind.CPU, start - t))
            segs.append(Segment(SegmentKind.IO, end - start))
            t = end
        if total_ms < t - 1e-9:
            raise ProfilingError(f"total {total_ms} shorter than block periods")
        if total_ms > t:
            segs.append(Segment(SegmentKind.CPU, total_ms - t))
        if not segs:
            segs.append(Segment(SegmentKind.CPU, 0.0))
        return cls(segs, **kw)

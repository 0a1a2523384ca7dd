"""Per-layer span ledger for the traced benchmark run.

The ledger wraps each layer's public entry points at class level (and
the few module-level pipeline functions the benchmark calls through
their modules), records a span around every call, and charges each
span's *self* time -- its duration minus the time of the spans it
encloses -- to the span's layer. Callbacks handed to the event kernel
(``call_at``, lanes, periodic processes, network handlers) are spanned
by the package that defined them, so GCC work running inside a link
arrival is charged to ``cc``, not to ``netsim``.

Bookkeeping rules:

* a call into the layer that is already on top of the span stack opens
  no new span (it is the same layer's own work); ``calls`` therefore
  counts boundary crossings into a layer;
* a re-entry after another layer is on top does open a new span, whose
  time the outer span does not count again;
* the bulk lane's ``fire_many`` runs are spanned as :data:`LANE` and the
  benchmark's own code as :data:`ROOT`; neither is a layer, and their
  self time is the *unattributed* remainder. Layer self times plus the
  unattributed remainder equal the root span's wall time.

Shard workers forked by the supervisor inherit the wrappers. Each
worker resets its copy of the ledger at fork, spools its totals to a
file whenever its outermost span closes, and the parent folds the
spools into the ``run_shard`` span that was waiting on them, as child
time of that span.

Nothing here runs at import: :meth:`Ledger.install` patches,
:meth:`Ledger.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import json
import os
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The repository's layers, one per package.
LAYERS = (
    "simcore",
    "netsim",
    "rtp",
    "cc",
    "codec",
    "core",
    "sfu",
    "fleet",
    "faults",
    "telemetry",
    "pipeline",
    "metrics",
)

#: Packages folded into a layer of another name.
PACKAGE_ALIASES = {"baselines": "core"}

#: Pseudo-label for bulk-lane runs (link bookkeeping between packets of
#: a ``fire_many`` run that no layer entry point covers).
LANE = "lane"

#: Pseudo-label for the benchmark's own code (root of every trace).
ROOT = "bench"

#: The ledger a forked shard worker must reset (fork hooks are
#: process-wide and cannot be unregistered, so the hook reads this).
_FORK_HOOK: list = []
_FORK_REGISTERED: list = []


def layer_of(fn) -> str | None:
    """The layer that defined callable ``fn`` (``None`` outside one)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(fn).__module__
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    package = PACKAGE_ALIASES.get(parts[1], parts[1])
    return package if package in LAYERS else None


class Ledger:
    """Span stack plus per-label self time, call and event counts."""

    def __init__(self, spool_dir: Path | str | None = None) -> None:
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._patches: list[tuple[object, str, object]] = []
        self._restored: list[tuple[object, str, object]] = []
        self._link_stats: list = []
        self._recorders: weakref.WeakSet = weakref.WeakSet()
        self._forked = False
        self._installed = False

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, label: str, frame: list, elapsed: float) -> None:
        stack = self.stack
        stack.pop()
        self.self_s[label] += elapsed - frame[1]
        self.calls[label] += 1
        if stack:
            stack[-1][1] += elapsed
        elif self._forked:
            self._spool()

    def spanned(self, label: str, fn):
        """``fn`` wrapped in a span charged to ``label``."""
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(label, frame, perf_counter() - start)

        return wrapper

    def by_package(self, fn):
        """``fn`` spanned by its defining layer (unwrapped outside one)."""
        label = layer_of(fn)
        return fn if label is None else self.spanned(label, fn)

    def root(self):
        """Context manager: the benchmark's own span around a traced run."""
        ledger = self

        class _Root:
            def __enter__(self):
                if ledger.stack:
                    raise RuntimeError("root span opened inside a span")
                self.frame = [ROOT, 0.0]
                ledger.stack.append(self.frame)
                self.start = perf_counter()
                return self

            def __exit__(self, *exc):
                self.wall = perf_counter() - self.start
                ledger._close(ROOT, self.frame, self.wall)
                return False

        return _Root()

    def add_child_time(self, seconds: float) -> None:
        """Charge ``seconds`` of work done elsewhere to the open span's
        children (a forked worker ran it while this span waited)."""
        self.stack[-1][1] += seconds

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Self seconds, calls and counts so far (link stats folded in)."""
        counts = dict(self.counts)
        delivered = sum(s.delivered_packets for s in self._link_stats)
        lost = sum(s.channel_lost_packets for s in self._link_stats)
        counts["netsim.packets_delivered"] = (
            counts.get("netsim.packets_delivered", 0) + delivered
        )
        counts["netsim.packets_channel_lost"] = (
            counts.get("netsim.packets_channel_lost", 0) + lost
        )
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": counts,
        }

    # ------------------------------------------------------------------
    # Forked shard workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        # Closures hold these exact objects: clear them in place.
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._link_stats.clear()
        self._forked = True

    def _spool(self) -> None:
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals()), encoding="utf-8")
        os.replace(tmp, path)

    def absorb_spools(self) -> float:
        """Fold finished workers' spools into the totals; returns the
        workers' summed root-span time and deletes the spools."""
        if self.spool_dir is None:
            return 0.0
        child_wall = 0.0
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for label, seconds in data["self_s"].items():
                self.self_s[label] += seconds
                child_wall += seconds
            for label, calls in data["calls"].items():
                self.calls[label] += calls
            for name, count in data["counts"].items():
                self.counts[name] += count
        return child_wall

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _span_attr(self, owner, name: str, label: str, after=None, tally=None) -> None:
        """Span ``owner.name``; ``after(result)`` records counts from
        the result, ``tally`` names a count of calls."""
        fn = vars(owner)[name]
        if after is None and tally is None:
            self._patch(owner, name, self.spanned(label, fn))
            return
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tally is not None:
                counts[tally] += 1
            if after is not None:
                after(result)
            return result

        self._patch(owner, name, self.spanned(label, functools.wraps(fn)(counted)))

    def _wrap_arg(self, owner, name: str, index: int, keyword: str, wrap) -> None:
        """Pass argument ``index``/``keyword`` of ``owner.name`` through
        ``wrap`` before the call (callback registration)."""
        fn = vars(owner)[name]

        @functools.wraps(fn)
        def registering(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = wrap(kwargs[keyword])
            elif len(args) > index:
                args = args[:index] + (wrap(args[index]),) + args[index + 1:]
            return fn(*args, **kwargs)

        self._patch(owner, name, registering)

    def install(self) -> None:
        """Wrap every layer's entry points (see the module docstring)."""
        if self._installed:
            raise RuntimeError("ledger already installed")
        import repro.baselines  # noqa: F401  (defines the baseline policies)
        from repro.cc.gcc.gcc import GoogCcController
        from repro.codec.encoder import SimulatedEncoder
        from repro.core.interface import EncoderAdaptation
        from repro.faults.apply import WindowedLoss
        from repro.faults.injector import FaultInjector
        from repro.fleet.sim import FleetSession
        from repro.netsim.link import Link
        from repro.netsim.network import DuplexNetwork
        from repro.pipeline import parallel, shards
        from repro.pipeline.manifest import RunManifest
        from repro.pipeline.results import SessionResult
        from repro.pipeline.session import RtcSession
        from repro.rtp.feedback import FeedbackCollector
        from repro.rtp.nack import RetransmissionBuffer
        from repro.rtp.pacer import Pacer
        from repro.rtp.sender import Sender
        from repro.sfu.node import SfuNode
        from repro.simcore.batched import BatchedScheduler
        from repro.simcore.calendar import CalendarScheduler
        from repro.simcore.process import PeriodicProcess
        from repro.simcore.scheduler import Scheduler
        from repro.telemetry import export
        from repro.telemetry.recorder import Telemetry

        counts = self.counts
        pkg = self.by_package
        self._installed = True
        if not _FORK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_REGISTERED.append(True)
        _FORK_HOOK[:] = [self]

        # simcore: the run loop, event callbacks, lanes, periodic ticks.
        def count_events(run_until):
            @functools.wraps(run_until)
            def counting(scheduler, end_time):
                before = scheduler.events_fired
                try:
                    return run_until(scheduler, end_time)
                finally:
                    counts["simcore.events"] += scheduler.events_fired - before

            return counting

        for kernel in (Scheduler, BatchedScheduler, CalendarScheduler):
            if "run_until" in vars(kernel):
                self._patch(
                    kernel,
                    "run_until",
                    self.spanned("simcore", count_events(vars(kernel)["run_until"])),
                )
            if "call_at" in vars(kernel):
                self._wrap_arg(kernel, "call_at", 2, "callback", pkg)
        self._wrap_arg(BatchedScheduler, "new_lane", 1, "fire", pkg)
        self._wrap_arg(PeriodicProcess, "__init__", 3, "callback", pkg)

        recorders = self._recorders
        scheduler_init = vars(Scheduler)["__init__"]

        @functools.wraps(scheduler_init)
        def scheduler_init_noting(scheduler, start=0.0, telemetry=None):
            if telemetry is not None and telemetry.enabled:
                recorders.add(telemetry)
            return scheduler_init(scheduler, start, telemetry)

        self._patch(Scheduler, "__init__", scheduler_init_noting)

        # netsim: offers, handler registrations, the bulk lane.
        def note_offer(accepted):
            if not accepted:
                counts["netsim.packets_queue_dropped"] += 1

        self._span_attr(Link, "send", "netsim", note_offer, "netsim.packets_offered")
        link_init = vars(Link)["__init__"]
        link_stats = self._link_stats

        @functools.wraps(link_init)
        def link_init_wrapping(link, *args, **kwargs):
            if "deliver" in kwargs:
                kwargs["deliver"] = pkg(kwargs["deliver"])
            else:
                args = args[:4] + (pkg(args[4]),) + args[5:]
            link_init(link, *args, **kwargs)
            link_stats.append(link.stats)

        self._patch(Link, "__init__", link_init_wrapping)
        set_deliver_many = vars(Link)["set_deliver_many"]

        @functools.wraps(set_deliver_many)
        def set_deliver_many_spanning(link, deliver_many):
            set_deliver_many(link, deliver_many)
            lane = link._lane
            if lane is not None and lane.fire_many is not None:
                lane.fire_many = self.spanned(LANE, lane.fire_many)

        self._patch(Link, "set_deliver_many", set_deliver_many_spanning)
        for name in ("send_forward", "send_reverse"):
            self._span_attr(DuplexNetwork, name, "netsim")
        for name in ("on_forward", "on_forward_many", "on_reverse"):
            self._wrap_arg(DuplexNetwork, name, 2, "handler", pkg)
        self._wrap_arg(DuplexNetwork, "set_reverse_fault", 1, "hook", pkg)

        # rtp: send side, feedback reports, retransmissions.
        self._span_attr(Sender, "send_frame", "rtp")
        self._span_attr(Pacer, "enqueue", "rtp")

        def note_report(report):
            if report is not None:
                counts["rtp.feedback_reports"] += 1

        self._span_attr(FeedbackCollector, "build_report", "rtp", note_report)

        def note_rtx(clones):
            counts["rtp.retransmissions"] += len(clones)

        self._span_attr(RetransmissionBuffer, "fetch", "rtp", note_rtx)

        # cc, codec.
        self._span_attr(GoogCcController, "on_packet_results", "cc", tally="cc.updates")
        self._span_attr(SimulatedEncoder, "encode", "codec", tally="codec.frames_encoded")
        self._span_attr(SimulatedEncoder, "skip_frame", "codec", tally="codec.frames_skipped")

        # core: every adaptation policy's hooks (baselines included).
        policies = [EncoderAdaptation]
        for policy in policies:
            policies.extend(policy.__subclasses__())
        for policy in policies:
            for name in ("before_frame", "after_frame", "on_feedback", "on_pli"):
                if name in vars(policy):
                    self._span_attr(policy, name, "core")

        # sfu, fleet.
        for name in ("on_uplink_packet", "on_receiver_feedback", "on_receiver_pli"):
            self._span_attr(SfuNode, name, "sfu")

        def note_fleet(result):
            counts["sfu.packets_forwarded"] += result.totals["forwarded_packets"]
            counts["sfu.layer_switches"] += result.totals["layer_switches"]

        self._span_attr(FleetSession, "__init__", "fleet")
        self._span_attr(FleetSession, "run", "fleet", note_fleet)

        # faults: runtime injection (timers arrive through call_at).
        self._span_attr(FaultInjector, "__init__", "faults")
        for name in ("should_drop", "should_drop_at"):
            self._span_attr(WindowedLoss, name, "faults")

        # telemetry: only recorders that ride on a session's scheduler
        # (the supervisor's bookkeeping counters stay with pipeline).
        def session_only(fn, sample):
            traced = self.spanned("telemetry", fn)

            @functools.wraps(fn)
            def recording(recorder, *args):
                if recorder in recorders:
                    if sample:
                        counts["telemetry.samples"] += 1
                    return traced(recorder, *args)
                return fn(recorder, *args)

            return recording

        self._patch(Telemetry, "probe", session_only(vars(Telemetry)["probe"], True))
        self._patch(Telemetry, "count", session_only(vars(Telemetry)["count"], False))
        self._span_attr(export, "export_text", "telemetry")

        # pipeline: sessions, batches, cache, manifests, shard fabric.
        self._span_attr(RtcSession, "__init__", "pipeline")
        self._span_attr(RtcSession, "run", "pipeline")
        self._span_attr(parallel, "run_many", "pipeline")

        def note_lookup(hit):
            counts["pipeline.cache_misses" if hit is None else "pipeline.cache_hits"] += 1

        self._span_attr(parallel.ResultCache, "get", "pipeline", note_lookup)
        self._span_attr(parallel.ResultCache, "put", "pipeline")
        self._span_attr(RunManifest, "save", "pipeline")
        for name in ("build_plan", "merge_shards", "render_merged"):
            self._span_attr(shards, name, "pipeline")
        run_shard = vars(shards)["run_shard"]

        @functools.wraps(run_shard)
        def run_shard_absorbing(*args, **kwargs):
            try:
                return run_shard(*args, **kwargs)
            finally:
                self.add_child_time(self.absorb_spools())

        self._patch(shards, "run_shard", self.spanned("pipeline", run_shard_absorbing))

        # metrics: result finalization and the per-session metric reads.
        for name in (
            "finalize",
            "latencies",
            "mean_latency",
            "percentile_latency",
            "peak_latency",
            "mean_displayed_ssim",
            "mean_encoded_ssim",
            "freeze_fraction",
            "displayed_fps",
            "sent_bitrate_bps",
            "display_jitter",
        ):
            self._span_attr(SessionResult, name, "metrics")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            self._restored.append((owner, name, original))
        if _FORK_HOOK and _FORK_HOOK[0] is self:
            _FORK_HOOK.clear()
        self._installed = False

    def leftovers(self) -> list[str]:
        """Patched attributes that do not hold their original again."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patches + self._restored
            if vars(owner).get(name) is not original
        ]


def _after_fork_in_child() -> None:
    for ledger in _FORK_HOOK:
        ledger._after_fork()

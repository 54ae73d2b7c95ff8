"""Property suite: the kernel's heap runs events in exact ``(time, seq)`` order.

The determinism contract every pinned digest rests on is checked here
against the plainest possible reference: a list of pending events from
which each step runs the one ``sorted((time, seq))`` puts first.  For
any randomized event program — duplicate timestamps on a lattice,
zero-delay self-schedules, far-future outliers, and cancellations —
the heap-backed :class:`Simulator` and the reference yield the exact
same execution order, final clock, and processed-event count.

Examples are bounded and derandomized (same discipline as
``test_fault_properties``) so the suite stays fast and reproducible.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.eventsim import Simulator  # noqa: E402

pytestmark = pytest.mark.properties

BOUNDED = settings(max_examples=25, deadline=None, derandomize=True)

#: delay pools stressing distinct kernel regimes: an exact-collision
#: lattice (many identical timestamps, ordered by seq alone), continuous
#: values, zero delays (same-instant cascades), and far-future outliers
#: that sit at the bottom of the heap while everything else drains.
LATTICE = st.sampled_from([0.0, 0.001, 0.01, 0.01, 0.5, 1.0])
CONTINUOUS = st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False, width=32
)
FAR_FUTURE = st.sampled_from([500.0, 9_999.0, 123_456.0])
DELAYS = st.one_of(LATTICE, CONTINUOUS, FAR_FUTURE)


@st.composite
def event_programs(draw):
    """A script of top-level events, each optionally spawning children
    and optionally cancelling its predecessor."""
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        {
            "delay": draw(DELAYS),
            "children": draw(st.lists(DELAYS, max_size=3)),
            "cancel_prev": draw(st.booleans()),
        }
        for _ in range(n)
    ]


class SortedReference:
    """The kernel's contract, executed naively.

    Pending events live in a plain list; each step runs the live event
    that ``sorted`` by ``(time, seq)`` puts first.  Same surface as the
    parts of :class:`Simulator` the programs use.
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []  # [time, seq, callback, cancelled]
        self._seq = 0

    def schedule(self, delay, callback):
        entry = [self.now + delay, self._seq, callback, False]
        self._seq += 1
        self._pending.append(entry)
        return entry

    def cancel(self, entry):
        entry[3] = True

    def run(self):
        while True:
            live = sorted(
                (e for e in self._pending if not e[3]),
                key=lambda e: (e[0], e[1]),
            )
            if not live:
                return self.now
            head = live[0]
            self._pending.remove(head)
            self.now = head[0]
            self.events_processed += 1
            head[2]()


#: the kernel under test and its reference, by name.
KERNELS = {
    "heap": lambda: Simulator(seed=1),
    "reference": SortedReference,
}


def run_program(program, kernel):
    """Execute one script; returns (execution log, final now, count)."""
    sim = KERNELS[kernel]()
    log = []

    def make_callback(tag, children):
        def callback():
            log.append((tag, sim.now))
            for branch, delay in enumerate(children):
                # one level of zero-or-more children per event keeps the
                # program finite while still producing same-instant
                # cascades when delay == 0.
                sim.schedule(delay, make_callback((tag, branch), ()))

        return callback

    handles = []
    for index, item in enumerate(program):
        handle = sim.schedule(
            item["delay"], make_callback(index, tuple(item["children"]))
        )
        if item["cancel_prev"] and len(handles) >= 1:
            sim.cancel(handles[-1])
        handles.append(handle)
    sim.run()
    return log, sim.now, sim.events_processed


class TestSchedulerEquivalence:
    @given(program=event_programs())
    @BOUNDED
    def test_identical_execution_order(self, program):
        results = {k: run_program(program, k) for k in KERNELS}
        assert results["heap"] == results["reference"]

    @given(delays=st.lists(LATTICE, min_size=1, max_size=60))
    @BOUNDED
    def test_duplicate_timestamp_storm_pops_identically(self, delays):
        def run(kernel):
            sim = KERNELS[kernel]()
            order = []
            for index, delay in enumerate(delays):
                sim.schedule(delay, lambda i=index: order.append((i, sim.now)))
            sim.run()
            return order

        assert run("heap") == run("reference")

    @given(
        delays=st.lists(CONTINUOUS, min_size=2, max_size=40),
        cancel_stride=st.integers(min_value=2, max_value=5),
    )
    @BOUNDED
    def test_cancellation_pattern_preserves_equivalence(
        self, delays, cancel_stride
    ):
        def run(kernel):
            sim = KERNELS[kernel]()
            order = []
            handles = [
                sim.schedule(d, lambda i=i: order.append(i))
                for i, d in enumerate(delays)
            ]
            for handle in handles[::cancel_stride]:
                sim.cancel(handle)
            sim.run()
            return order, sim.now, sim.events_processed

        assert run("heap") == run("reference")

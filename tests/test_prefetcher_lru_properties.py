"""Prefetcher training tables keep exact LRU order in plain dicts.

Every training table re-inserts a touched key at the end of an
insertion-ordered ``dict`` and evicts its first key. Hypothesis runs
each table beside a reference model that keeps the same table in an
``OrderedDict`` with ``move_to_end`` and ``popitem(last=False)``, and
requires the same proposals and the same ``training_fingerprint()``
after every step, at capacities 1–16 so eviction is common. It also
checks that adopted and cloned training is a copy: a change to either
side leaves the other's fingerprint as it was.
"""

from collections import OrderedDict
from typing import List

from hypothesis import given, settings, strategies as st

from repro.memsys.prefetchers.feedback import FeedbackThrottledPrefetcher
from repro.memsys.prefetchers.nextline import (
    AdjacentLinePrefetcher,
    NextLinePrefetcher,
    _PageFilter,
)
from repro.memsys.prefetchers.stream import StreamPrefetcher, _StreamEntry
from repro.memsys.prefetchers.stride import StridePrefetcher, _StrideEntry
from repro.units import CACHE_LINE_BYTES, line_address
from tests.hypothesis_profiles import scaled

PAGE_SHIFT = 12
PAGE_BYTES = 1 << PAGE_SHIFT


class ReferencePageFilter:
    """The page filter as an ``OrderedDict`` LRU."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pages: "OrderedDict[int, None]" = OrderedDict()

    def check_and_touch(self, line: int) -> bool:
        page = line >> PAGE_SHIFT
        present = page in self.pages
        if present:
            self.pages.move_to_end(page)
        else:
            if len(self.pages) >= self.capacity:
                self.pages.popitem(last=False)
            self.pages[page] = None
        return present

    def fingerprint(self):
        return tuple(self.pages)


class ReferenceStream(StreamPrefetcher):
    """:class:`StreamPrefetcher` training an ``OrderedDict`` table."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._table = OrderedDict()

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        page = line >> PAGE_SHIFT
        entry = self._table.get(page)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.popitem(last=False)
            self._table[page] = _StreamEntry(line)
            return []
        self._table.move_to_end(page)

        delta_lines = (line - entry.last_line) // CACHE_LINE_BYTES
        if delta_lines == 0:
            return []
        direction = 1 if delta_lines > 0 else -1
        if abs(delta_lines) > self.max_jump_lines or (
                entry.direction and direction != entry.direction):
            entry.last_line = line
            entry.direction = direction
            entry.count = 1
            entry.issued_until = None
            return []
        entry.direction = direction
        entry.count += 1
        entry.last_line = line
        if entry.count < self.train_threshold:
            return []
        page_base = page << PAGE_SHIFT
        page_end = page_base + PAGE_BYTES
        target = line + direction * self.distance * CACHE_LINE_BYTES
        if entry.issued_until is None:
            entry.issued_until = line + direction * CACHE_LINE_BYTES
        lines: List[int] = []
        cursor = entry.issued_until
        while len(lines) < self.degree:
            if direction > 0:
                if cursor > target or cursor >= page_end:
                    break
                lines.append(cursor)
                cursor += CACHE_LINE_BYTES
            else:
                if cursor < target or cursor < page_base:
                    break
                lines.append(cursor)
                cursor -= CACHE_LINE_BYTES
        entry.issued_until = cursor
        return lines


class ReferenceStride(StridePrefetcher):
    """:class:`StridePrefetcher` training an ``OrderedDict`` table."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._table = OrderedDict()

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.popitem(last=False)
            self._table[pc] = _StrideEntry(line)
            return []
        self._table.move_to_end(pc)
        observed = line - entry.last_line
        entry.last_line = line
        if observed == 0:
            return []
        if observed == entry.stride:
            entry.confidence = min(entry.confidence + 1,
                                   2 * self.confidence_threshold)
        else:
            entry.stride = observed
            entry.confidence = 1
            return []
        if entry.confidence < self.confidence_threshold:
            return []
        base = line + entry.stride * self.distance
        return [line_address(base + entry.stride * k)
                for k in range(self.degree)]


class ReferenceFeedback(FeedbackThrottledPrefetcher):
    """:class:`FeedbackThrottledPrefetcher` tracking proposals in an
    ``OrderedDict``."""

    def __init__(self, inner, **kwargs) -> None:
        super().__init__(inner, **kwargs)
        self._tracked = OrderedDict()

    def _observe(self, line: int, pc: int, was_hit: bool) -> List[int]:
        if line in self._tracked:
            del self._tracked[line]
            self._window_useful += 1
        proposals = self.inner.observe(line, pc, was_hit)
        for proposed in proposals:
            if proposed not in self._tracked:
                if len(self._tracked) >= self._tracker_entries:
                    self._tracked.popitem(last=False)
                self._tracked[proposed] = None
        self._window_proposed += len(proposals)
        if self._window_proposed >= self.window:
            self._rebalance()
        if self.gated:
            self.suppressed += len(proposals)
            return []
        return proposals


def stream_kwargs(capacity):
    return dict(table_size=capacity, train_threshold=2, distance=4,
                degree=2)


def stride_kwargs(capacity):
    return dict(table_size=capacity, confidence_threshold=1, distance=2,
                degree=2)


def feedback_kwargs(capacity):
    return dict(window=4, gate_below=0.3, ungate_above=0.6,
                tracker_entries=capacity)


#: Each table under test as (real, reference) builders at one capacity.
PAIRS = {
    "stream": lambda cap: (StreamPrefetcher(**stream_kwargs(cap)),
                           ReferenceStream(**stream_kwargs(cap))),
    "stride": lambda cap: (StridePrefetcher(**stride_kwargs(cap)),
                           ReferenceStride(**stride_kwargs(cap))),
    "feedback": lambda cap: (
        FeedbackThrottledPrefetcher(StreamPrefetcher(**stream_kwargs(cap)),
                                    **feedback_kwargs(cap)),
        ReferenceFeedback(ReferenceStream(**stream_kwargs(cap)),
                          **feedback_kwargs(cap))),
}

#: A run of accesses from one PC: start page and line, a line stride of
#: -2..2 and a length, so streams and strides train and break. Few
#: pages and PCs keep the tables full and their keys recurring.
run_strategy = st.tuples(
    st.integers(min_value=0, max_value=9),     # pc
    st.integers(min_value=0, max_value=23),    # page
    st.integers(min_value=0, max_value=63),    # first line in page
    st.integers(min_value=-2, max_value=2),    # line stride
    st.integers(min_value=1, max_value=6),     # length
    st.booleans())                             # was_hit

runs_strategy = st.lists(run_strategy, max_size=40)
capacity_strategy = st.integers(min_value=1, max_value=16)


def accesses(runs):
    """Flatten runs into (line, pc, was_hit) accesses."""
    for pc, page, first, stride, length, was_hit in runs:
        for step in range(length):
            line = (page << PAGE_SHIFT) + (first + stride * step) * 64
            yield max(line, 0), pc, was_hit


def train(prefetcher, runs):
    for line, pc, was_hit in accesses(runs):
        prefetcher.observe(line, pc, was_hit)


class TestMatchesOrderedDictModel:
    @given(runs=runs_strategy, capacity=capacity_strategy)
    @settings(max_examples=scaled(60), deadline=None)
    def test_page_filter(self, runs, capacity):
        real, model = _PageFilter(capacity), ReferencePageFilter(capacity)
        for line, _, _ in accesses(runs):
            assert real.check_and_touch(line) == model.check_and_touch(line)
            assert real.fingerprint() == model.fingerprint()

    @given(runs=runs_strategy, capacity=capacity_strategy,
           kind=st.sampled_from(sorted(PAIRS)))
    @settings(max_examples=scaled(120), deadline=None)
    def test_prefetcher_tables(self, runs, capacity, kind):
        real, model = PAIRS[kind](capacity)
        for line, pc, was_hit in accesses(runs):
            assert (real.observe(line, pc, was_hit)
                    == model.observe(line, pc, was_hit))
            assert real.training_fingerprint() == model.training_fingerprint()
        assert real.counter_signature() == model.counter_signature()


#: Every lockstep prefetcher with a dict table, at one capacity.
BUILDERS = {
    "next-line": lambda cap: NextLinePrefetcher(degree=2,
                                                page_filter_entries=cap),
    "adjacent-line": lambda cap: AdjacentLinePrefetcher(
        page_filter_entries=cap),
    "stream": lambda cap: StreamPrefetcher(**stream_kwargs(cap)),
    "stride": lambda cap: StridePrefetcher(**stride_kwargs(cap)),
    "feedback": lambda cap: FeedbackThrottledPrefetcher(
        NextLinePrefetcher(degree=2, page_filter_entries=cap),
        **feedback_kwargs(cap)),
}


class TestAdoptedTrainingIsACopy:
    """After ``clone_for_lockstep`` or ``adopt_training``, training
    either side leaves the other's fingerprint unchanged."""

    @given(kind=st.sampled_from(sorted(BUILDERS)),
           capacity=capacity_strategy,
           before=runs_strategy, after=runs_strategy.filter(bool),
           adopt=st.booleans(), change_source=st.booleans())
    @settings(max_examples=scaled(80), deadline=None)
    def test_either_side_changes_alone(self, kind, capacity, before, after,
                                       adopt, change_source):
        source = BUILDERS[kind](capacity)
        train(source, before)
        if adopt:
            copy = BUILDERS[kind](capacity)
            train(copy, after)  # adopted training replaces its own
            copy.adopt_training(source)
        else:
            copy = source.clone_for_lockstep()
        assert copy.training_fingerprint() == source.training_fingerprint()
        changed, other = (source, copy) if change_source else (copy, source)
        kept = other.training_fingerprint()
        train(changed, after)
        assert other.training_fingerprint() == kept
        changed.reset()
        assert other.training_fingerprint() == kept

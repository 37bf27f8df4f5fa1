"""Count-generic program shapes: one shape per hammer loop, one
verified, summarized binding per hammer count.

The hammer drivers leave the hammer count out of their cache key and
pass it as a count binding instead.  What must hold: a bound binding's
effect summary is the one a freshly built program gets, the fast path
stays state-identical to the interpreter at every count, the caller's
verifier runs once per distinct (shape, count) and never transfers
across counts, and the bounded cache keeps campaigns byte-identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bender.board import BenderBoard, make_paper_setup
from repro.bender.program import ProgramBuilder
from repro.core.experiment import ExperimentConfig
from repro.core.hammer import DoubleSidedHammer, build_hammer_program
from repro.core.patterns import ROWSTRIPE0
from repro.core.sweeps import SpatialSweep, SweepConfig
from repro.dram.address import DramAddress
from repro.engine import LocalBackend, ProgramCache
from repro.engine.session import EngineSession
from repro.errors import EngineError, VerificationError
from repro.verify import VerifyContext, assert_verified, summarize_program
from repro.verify.program import FULL_UNROLL_LIMIT
from tests.conftest import make_vulnerable_device
from tests.core.test_profile_matrix import HBM2_REFERENCE_FINGERPRINT

VICTIM = DramAddress(0, 0, 0, 40)
#: The verifier unrolls a two-aggressor loop (4 instructions per
#: iteration) in full up to this count, and extrapolates above it.
UNROLL_BOUNDARY = FULL_UNROLL_LIMIT // 4
MAX_HAMMERS = ExperimentConfig().hcfirst_max_hammers
WARMUP_COUNT = 1000


def make_station(fastpath: bool) -> BenderBoard:
    board = BenderBoard(make_vulnerable_device(seed=5))
    board.device.set_temperature(85.0)
    board.host.set_ecc_enabled(False)
    return EngineSession(board=board, cache=True, fastpath=fastpath).board


def hammer_handle(board: BenderBoard, count: int):
    """Hammer the victim ``count`` times; return the handle the cache
    executed the hammer program with, and the outcome."""
    backend = board.host.engine_backend
    hammer = DoubleSidedHammer(board.host, board.device.mapper)
    rows = tuple(hammer.aggressors_of(VICTIM)) if count else ()
    seen = []
    execute = backend.execute

    def spy(handle, binding=()):
        seen.append((handle, tuple(binding)))
        return execute(handle, binding)

    # Bind the shape to another count first, so that ``count`` is a
    # new binding of a shape already built.
    hammer.run(VICTIM, ROWSTRIPE0, WARMUP_COUNT if count != WARMUP_COUNT
               else WARMUP_COUNT + 1)
    backend.execute = spy
    try:
        outcome = hammer.run(VICTIM, ROWSTRIPE0, count)
    finally:
        del backend.execute
    hammer_runs = [handle for handle, binding in seen if binding == rows]
    return hammer_runs[-1], outcome


def boundary_counts(threshold: int):
    edges = {0, 1, 2, threshold - 1, threshold, threshold + 1,
             UNROLL_BOUNDARY - 1, UNROLL_BOUNDARY, UNROLL_BOUNDARY + 1,
             MAX_HAMMERS - 1, MAX_HAMMERS}
    return sorted(edges)


THRESHOLD = make_station(True).host.interpreter.fast_loop_threshold
COUNTS = st.one_of(st.sampled_from(boundary_counts(THRESHOLD)),
                   st.integers(min_value=0, max_value=MAX_HAMMERS))


class TestBoundSummaries:
    @given(count=COUNTS)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bound_binding_matches_fresh_program(self, count):
        fast = make_station(fastpath=True)
        slow = make_station(fastpath=False)
        handle, fast_outcome = hammer_handle(fast, count)
        _, slow_outcome = hammer_handle(slow, count)

        # The summary the cache bound for this count is the summary of
        # the program built directly with that count (rows as slots).
        assert handle.counts == ((count,) if count else ())
        fresh = build_hammer_program(VICTIM, [0, 1], count)
        context = VerifyContext.for_host(fast.host,
                                         allow_retention_decay=True)
        assert handle.summary == summarize_program(fresh, context)

        # And applying it leaves the interpreter's exact state.
        assert fast_outcome.flips == slow_outcome.flips
        assert (fast_outcome.report.positions.tolist()
                == slow_outcome.report.positions.tolist())
        assert fast_outcome.duration_s == slow_outcome.duration_s
        assert fast.device.now == slow.device.now
        assert fast.device.command_counts == slow.device.command_counts

    def test_boundaries_cover_both_sides_of_each_edge(self):
        counts = boundary_counts(THRESHOLD)
        for edge in (THRESHOLD, UNROLL_BOUNDARY, MAX_HAMMERS):
            assert edge - 1 in counts and edge in counts


def verified_program(host, rows, count, declared):
    """A cache ``verify`` that declares ``declared`` hammers per row."""
    def verify(program):
        expected = {(0, 0, 1, row): declared for row in rows}
        return assert_verified(
            program, VerifyContext.for_host(host, expected_hammers=expected))
    return verify


def hammer_build(rows, count):
    return lambda: build_hammer_program(DramAddress(0, 0, 1, rows[0]),
                                        list(rows), count)


class TestVerifyPerBinding:
    KEY = ("hammer", 0, 0, 1, 2, False)

    def test_verify_runs_once_per_distinct_shape_and_count(self,
                                                           small_host):
        cache = ProgramCache(LocalBackend(small_host))
        calls = []

        def run(rows, count):
            def verify(program):
                calls.append(count)
                return verified_program(small_host, rows, count,
                                        count)(program)
            cache.execute(self.KEY, rows, hammer_build(rows, count),
                          verify=verify, counts=(count,))

        for count in (100, 200, 100, 300, 200, 100):
            for rows in ((40, 42), (90, 92)):
                run(rows, count)
        assert calls == [100, 200, 300]
        assert (cache.misses, cache.hits) == (3, 9)
        assert cache.shape_builds == 1
        assert len(cache) == 1

    def test_verify_sees_the_call_rows_and_counts(self, small_host):
        cache = ProgramCache(LocalBackend(small_host))
        seen = []

        def run(rows, count):
            def verify(program):
                seen.append(program)
            cache.execute(self.KEY, rows, hammer_build(rows, count),
                          verify=verify, counts=(count,))

        run((40, 42), 100)
        run((90, 92), 250)
        assert seen == [build_hammer_program(DramAddress(0, 0, 1, 40),
                                             [40, 42], 100),
                        build_hammer_program(DramAddress(0, 0, 1, 90),
                                             [90, 92], 250)]

    def test_misdeclared_count_raises_every_call(self, small_host):
        cache = ProgramCache(LocalBackend(small_host))
        rows = (40, 42)
        cache.execute(self.KEY, rows, hammer_build(rows, 100),
                      verify=verified_program(small_host, rows, 100, 100),
                      counts=(100,))
        for _ in range(2):
            # The binding executes 200 hammers but declares 300: the
            # verdict for 100 must not transfer, and the failed binding
            # must not be memoized.
            with pytest.raises(VerificationError, match="declares 300"):
                cache.execute(self.KEY, rows, hammer_build(rows, 200),
                              verify=verified_program(small_host, rows,
                                                      200, 300),
                              counts=(200,))
        assert (cache.misses, cache.hits) == (3, 0)

    def test_declared_counts_must_match_the_built_program(self,
                                                          small_host):
        cache = ProgramCache(LocalBackend(small_host))
        with pytest.raises(EngineError, match="declared count binding"):
            cache.execute(self.KEY, (40, 42), hammer_build((40, 42), 100),
                          counts=(101,))


class TestBoundedCache:
    def test_count_bindings_evict_the_least_recently_used(self,
                                                          small_host):
        cache = ProgramCache(LocalBackend(small_host), max_entries=2)
        key = TestVerifyPerBinding.KEY

        def run(count):
            cache.execute(key, (40, 42), hammer_build((40, 42), count),
                          counts=(count,))

        for count in (10, 20, 10, 30, 10):  # 30 displaces 20, not 10
            run(count)
        assert (cache.misses, cache.hits) == (3, 2)
        run(20)
        assert (cache.misses, cache.hits, cache.evictions) == (4, 2, 2)

    def test_reference_sweep_fingerprint_under_a_tiny_cache(self):
        board = make_paper_setup(seed=2023)
        host = EngineSession(board=board).board.host
        host.program_cache = ProgramCache(host.engine_backend,
                                          max_entries=4)
        sweep = SpatialSweep(board, SweepConfig(
            channels=(0, 7), rows_per_region=2,
            hcfirst_rows_per_region=1))
        assert sweep.run().fingerprint() == HBM2_REFERENCE_FINGERPRINT
        assert host.program_cache.evictions > 0


def test_loop_free_and_looped_hammers_are_distinct_shapes(small_host):
    cache = ProgramCache(LocalBackend(small_host))
    builder = ProgramBuilder()
    empty = builder.build()
    cache.execute(("hammer", 0, 0, 1, 2, True), (), lambda: empty,
                  counts=())
    cache.execute(("hammer", 0, 0, 1, 2, False), (40, 42),
                  hammer_build((40, 42), 5), counts=(5,))
    assert len(cache) == 2

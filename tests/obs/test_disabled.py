"""The disabled-observability guarantee.

With no tracer/registry installed (the default), instrumented code must
(1) produce byte-identical attack results to an explicitly-nulled run,
(2) leave no observability residue in the records, and (3) allocate
nothing on the instrumentation points themselves — pinned below with a
tracemalloc micro-bench.
"""

import tracemalloc

from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.obs.metrics import current_metrics
from repro.obs.tracer import NULL_TRACER, current_tracer, use_tracer

MB = 1 << 20


class TestResultsIdentical:
    def test_sbr_report_identical_with_and_without_null_tracer(self):
        plain = SbrAttack("gcore", resource_size=1 * MB).run()
        with use_tracer(NULL_TRACER):
            nulled = SbrAttack("gcore", resource_size=1 * MB).run()
        assert plain.report == nulled.report
        assert plain == nulled

    def test_obr_report_identical_with_and_without_null_tracer(self):
        plain = ObrAttack("cloudflare", "akamai").run(overlap_count=20)
        with use_tracer(NULL_TRACER):
            nulled = ObrAttack("cloudflare", "akamai").run(overlap_count=20)
        assert plain.report == nulled.report

    def test_untraced_records_carry_no_ids(self):
        attack = SbrAttack("gcore", resource_size=1 * MB)
        deployment = attack.build_deployment()
        deployment.client().get("/target.bin?cb=0", range_value="bytes=0-0")
        for connection in deployment.ledger.connections:
            for record in connection.records:
                assert record.trace_id is None
                assert record.span_id is None

    def test_defaults_are_off(self):
        assert current_tracer() is NULL_TRACER
        assert current_metrics() is None


class TestAllocationFree:
    #: tracemalloc tolerance: the null path touches only shared
    #: singletons, but tracemalloc itself may account a few hundred
    #: bytes of interpreter-internal churn (frame/trace bookkeeping)
    #: over 10k iterations.  512 B over 10_000 iterations is < 0.06 B
    #: per span — far below any real per-span allocation (a Span object
    #: alone is > 48 B).
    TOLERANCE_BYTES = 512
    ITERATIONS = 10_000

    def test_null_span_path_allocates_nothing(self):
        def spin(n):
            tracer = current_tracer()
            for _ in range(n):
                with tracer.span("hot") as span:
                    span.set(a=1)

        spin(100)  # warm up: bytecode caches, method binding
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            spin(self.ITERATIONS)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth = after - before
        assert growth <= self.TOLERANCE_BYTES, (
            f"null-tracer span path allocated {growth} B over "
            f"{self.ITERATIONS} iterations"
        )

    def test_fluid_run_span_allocates_nothing(self):
        """``FluidSimulator.run``'s ``net.fluid`` span is free when off."""
        from repro.netsim.bandwidth import FluidSimulator, Link

        simulator = FluidSimulator([Link("a", 1e6)], dt=0.1)
        for _ in range(100):  # warm up
            simulator.run(0.0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(self.ITERATIONS):
                simulator.run(0.0)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        growth = after - before
        assert growth <= self.TOLERANCE_BYTES, (
            f"untraced FluidSimulator.run allocated {growth} B over "
            f"{self.ITERATIONS} calls"
        )

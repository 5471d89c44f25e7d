"""StreamingTraceBuilder: incremental epoch construction into a sink."""

from repro.trace.builder import ColumnSink, StreamingTraceBuilder


class ResidentBuilder(StreamingTraceBuilder):
    """A builder over a :class:`ColumnSink` whose finalize yields the trace."""

    def __init__(self, num_nodes, flush_events=65536):
        super().__init__(
            num_nodes, ColumnSink(num_nodes), flush_events=flush_events
        )

    def finalize(self):
        super().finalize()
        return self.sink.trace()


class TestBuilder:
    def test_event_then_readers(self):
        builder = ResidentBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_reader(5, 2)
        trace = builder.finalize()
        assert trace[0].truth == 0b0110

    def test_writer_not_counted_as_reader(self):
        builder = ResidentBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 0)
        assert builder.finalize()[0].truth == 0

    def test_pre_write_readers_ignored(self):
        builder = ResidentBuilder(4)
        builder.add_reader(5, 3)  # no epoch open yet
        builder.add_event(writer=0, pc=1, home=0, block=5)
        trace = builder.finalize()
        assert not trace[0].has_inval
        assert trace[0].truth == 0

    def test_epoch_chaining(self):
        builder = ResidentBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_reader(5, 1)
        builder.add_event(writer=2, pc=2, home=0, block=5)
        trace = builder.finalize()
        assert trace[0].close == 1
        assert trace[1].inval == 0b0010
        assert trace[1].has_inval

    def test_duplicate_readers_idempotent(self):
        builder = ResidentBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        for _ in range(3):
            builder.add_reader(5, 1)
        assert builder.finalize()[0].truth == 0b0010

    def test_interleaved_blocks(self):
        builder = ResidentBuilder(4)
        builder.add_event(writer=0, pc=1, home=0, block=5)
        builder.add_event(writer=1, pc=1, home=1, block=6)
        builder.add_reader(5, 2)
        builder.add_reader(6, 3)
        builder.add_event(writer=1, pc=1, home=0, block=5)
        trace = builder.finalize()
        assert trace[0].truth == 0b0100
        assert trace[1].truth == 0b1000
        assert trace[0].close == 2
        assert trace[1].close == 3  # open at end -> len(trace)

    def test_finalize_output_is_consistent(self):
        builder = ResidentBuilder(8)
        for index in range(30):
            builder.add_event(writer=index % 8, pc=1 + index % 3, home=0, block=index % 5)
            builder.add_reader(index % 5, (index + 1) % 8)
        builder.finalize().check_consistency()

    def test_len(self):
        builder = ResidentBuilder(4)
        assert len(builder) == 0
        builder.add_event(writer=0, pc=1, home=0, block=1)
        assert len(builder) == 1

    def test_flush_size_does_not_change_the_trace(self):
        """Small flushes, including ones held back by a pinned open epoch
        (block 99 is written once and never again), emit the same trace."""

        def build(flush_events):
            builder = ResidentBuilder(8, flush_events=flush_events)
            builder.add_event(writer=7, pc=9, home=3, block=99)
            for index in range(200):
                builder.add_event(writer=index % 8, pc=1, home=0, block=index % 7)
                builder.add_reader(index % 7, (index + 3) % 8)
            return builder.finalize()

        whole, flushed = build(65536), build(3)
        for field in ("writer", "block", "truth", "inval", "has_inval", "close"):
            assert (getattr(whole, field) == getattr(flushed, field)).all()

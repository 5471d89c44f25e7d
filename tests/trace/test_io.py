"""Trace persistence: the .rtrace load_trace round trip and the v1 text format."""

import numpy as np
import pytest

from repro.trace.events import SharingTrace
from repro.trace.interchange import load_trace, write_source
from repro.trace.io import dump_text, parse_text
from tests.conftest import make_random_trace


def traces_equal(a, b):
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.writer, b.writer)
        and np.array_equal(a.pc, b.pc)
        and np.array_equal(a.home, b.home)
        and np.array_equal(a.block, b.block)
        and np.array_equal(a.truth, b.truth)
        and np.array_equal(a.inval, b.inval)
        and np.array_equal(a.has_inval, b.has_inval)
        and np.array_equal(a.close, b.close)
    )


class TestNpzRoundtrip:
    """The persisted-trace round trip; the name predates the .rtrace format."""

    def test_roundtrip(self, tmp_path, random_trace):
        path = tmp_path / "trace.rtrace"
        write_source(random_trace, path, chunk_events=7)
        loaded = load_trace(path)
        assert traces_equal(random_trace, loaded)
        assert loaded.name == random_trace.name

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rtrace"
        write_source(SharingTrace.from_epochs(16, [], name="empty"), path)
        assert len(load_trace(path)) == 0


class TestTextRoundtrip:
    def test_roundtrip(self, tmp_path):
        trace = make_random_trace(num_events=50, seed="text")
        path = tmp_path / "trace.txt"
        dump_text(trace, path)
        parsed = parse_text(path)
        assert traces_equal(trace, parsed)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 5 0x0 0x0 0 1\n")
        with pytest.raises(ValueError):
            parse_text(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# nodes=4\n0 1 0\n")
        with pytest.raises(ValueError):
            parse_text(path)

    def test_text_is_human_readable(self, tmp_path, tiny_trace):
        path = tmp_path / "tiny.txt"
        dump_text(tiny_trace, path)
        content = path.read_text()
        assert "nodes=4" in content
        assert content.count("\n") == len(tiny_trace) + 2  # 2 header lines

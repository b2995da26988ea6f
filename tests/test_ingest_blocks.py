"""Block-at-a-time sensor-log ingestion against the per-row reference reader.

`ingest_sensor_log` reads a log in blocks of `_INGEST_BLOCK` lines; a block
whose rows all parse goes through numpy's C text reader, any other block row
by row. Whatever the path, its rows, counts and DEBUG drop lines must be those
of `reference_ingest`, and no warning may be raised.
"""

import logging
import random
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import harness
from qsim.harness import ingest_sensor_log
from reference_ingest import reference_ingest

BLOCK = harness._INGEST_BLOCK

# Every character str.split() splits on. "\n" and "\r" also end a line when
# the log is read, so a field separator is any of the others.
WHITESPACE = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
SEPARATORS = WHITESPACE.replace("\n", "").replace("\r", "")
LINE_ENDS = ("\n", "\r", "\r\n")

# Field tokens; bytes are written raw (b"\xff", b"\xe2" are not UTF-8). A
# field is drawn from its *_OK tokens, which numpy's reader also parses, five
# times in six, so most drawn rows leave their block on the fast path.
DATES = ("2004-02-28", "2004-02-�28", '"2004-02-28', "#", "2004\x0002-28", b"2004-02-\xff28", "٣")
TIMES = ("01:00:00", "0", "\x00")
EPOCHS_OK = ("0", "7", "-3", "+12", "0042", str(2**63 - 1), str(-2**63))
EPOCHS = EPOCHS_OK + (str(2**63), str(-2**63 - 1), str(10**30), "oops", "1_0", "٣", "1.0", "1e3",
                      "nan", "\x00", b"\xe21")
MOTES_OK = ("1", "2", "3", "-1", "02")
MOTES = MOTES_OK + (str(2**64), str(2**63), "1_0", "٣", "oops", "2.0")
READINGS_OK = ("19.3", "-0.0", "0", "+1.5", ".5", "5.", "1e5", "5e-324", "2.2250738585072014e-308",
               "1.7976931348623157e308", "1.0", "1e999", "-1e999", "nan", "-nan", "NaN", "-inf",
               "inf", "Infinity", "-Infinity")
READINGS = READINGS_OK + ("1_0", "٣", "oops", "0x10", "\x00", "2\x00", "�", b"2\xff.0", "#", "1#2")


def encode(token) -> bytes:
    return token if isinstance(token, bytes) else token.encode("utf-8")


@st.composite
def sensor_lines(draw) -> bytes:
    """One log line from the alphabet: a row of 7 to 9 fields, or a blank line."""
    separator = st.text(SEPARATORS, min_size=1, max_size=2)
    end = encode(draw(st.sampled_from(LINE_ENDS)))
    if draw(st.integers(0, 5)) == 0:
        return encode(draw(st.text(SEPARATORS, max_size=3))) + end

    def token(ok, every):
        return draw(st.sampled_from(ok if draw(st.integers(0, 5)) else every))

    fields = [draw(st.sampled_from(DATES)), draw(st.sampled_from(TIMES)), token(EPOCHS_OK, EPOCHS),
              token(MOTES_OK, MOTES), *(token(READINGS_OK, READINGS) for _ in range(5))]
    fields = fields[:draw(st.sampled_from((7, 8, 8, 8, 9)))]
    line = b""
    for field in fields:
        line += encode(draw(separator)) if line or draw(st.booleans()) else b""
        line += encode(field)
    return line + encode(draw(st.text(SEPARATORS, max_size=2))) + end


def clean_lines(count: int, seed: int, end: str = "\n") -> list[bytes]:
    """Well-formed rows of 3 motes with unsorted, repeated epochs."""
    rng = random.Random(seed)
    return [(f"2004-02-28 01:00:00 {rng.randrange(-50, 500)} {rng.randrange(1, 4)} "
             f"{rng.uniform(-40, 40)!r} {rng.uniform(0, 100)!r} {rng.expovariate(0.01)!r} "
             f"{rng.uniform(2, 3)!r}{end}").encode() for _ in range(count)]


@contextmanager
def debug_lines():
    """The DEBUG messages `qsim.harness` logs inside the block."""
    messages = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: record.levelno == logging.DEBUG and messages.append(
        record.getMessage())
    logger = logging.getLogger("qsim.harness")
    level = logger.level
    logger.setLevel(logging.DEBUG)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def assert_matches_reference(path: Path, mote=None):
    with warnings.catch_warnings(record=True) as caught, debug_lines() as messages:
        warnings.simplefilter("always")
        result = ingest_sensor_log(path, mote=mote)
    assert caught == []
    rows, total, counts, drops = reference_ingest(path, mote=mote)
    assert result.rows.shape == rows.shape and result.rows.dtype == rows.dtype
    assert result.rows.tobytes() == rows.tobytes()
    assert result.total_rows == total
    assert result.dropped_by_reason == counts
    assert messages == [f"{path}:{n}: malformed sensor row skipped ({reason})" for n, reason in drops]
    return result


def test_the_alphabet_covers_every_whitespace_character():
    assert len(WHITESPACE) == 29


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([1, 9, BLOCK - 1, BLOCK, BLOCK + 1, 4095, 4096, 4097]),
       end=st.sampled_from(LINE_ENDS), seed=st.integers(0, 2**32),
       placed=st.lists(st.tuples(st.integers(0, 4096), sensor_lines()), max_size=6),
       edges=st.lists(st.tuples(st.integers(0, 4096 // BLOCK).map(lambda b: b * BLOCK)
                                | st.integers(1, 4096 // BLOCK).map(lambda b: b * BLOCK - 1),
                                sensor_lines()), max_size=3),
       last_end=st.booleans())
def test_block_ingestion_matches_the_per_row_reference(size, end, seed, placed, edges, last_end):
    """Drawn lines replace clean rows anywhere, and first or last in a block."""
    lines = clean_lines(size, seed, end)
    for position, line in placed + edges:
        if position < size:
            lines[position] = line
    if not last_end:
        lines[-1] = lines[-1].rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.txt"
        path.write_bytes(b"".join(lines))
        for mote in (None, 2):
            assert_matches_reference(path, mote)


class TestBlockEdges:
    def write(self, tmp_path, lines):
        path = tmp_path / "log.txt"
        path.write_bytes(b"".join(lines))
        return path

    def test_only_blank_lines(self, tmp_path):
        path = self.write(tmp_path, [b"\n", b"  \t\n", "　\x1c\n".encode()] * 2000)
        result = assert_matches_reference(path)
        assert result.rows.shape == (0, 4) and result.total_rows == 0

    def test_blank_block_between_two_clean_blocks(self, tmp_path):
        blank = [b"\n", b" \n", b"\t\r\n"] * (BLOCK // 3) + [b"\n"] * (BLOCK % 3)
        path = self.write(tmp_path, clean_lines(BLOCK, 1) + blank + clean_lines(BLOCK, 2))
        result = assert_matches_reference(path)
        assert result.total_rows == len(result) == 2 * BLOCK

    @pytest.mark.parametrize("size", [BLOCK, 4096])
    def test_clean_log_of_whole_blocks(self, tmp_path, monkeypatch, size):
        parse = harness._parse_sensor_row
        parsed = []
        monkeypatch.setattr(harness, "_parse_sensor_row",
                            lambda parts: parsed.append(parts) or parse(parts))
        result = assert_matches_reference(self.write(tmp_path, clean_lines(size, 3)))
        assert result.total_rows == len(result) == size
        assert parsed == []

    def test_epoch_of_2_to_the_63_in_the_second_block(self, tmp_path):
        lines = clean_lines(3 * BLOCK, 4)
        lines[BLOCK + 17] = f"2004-02-28 01:00:00 {2**63} 2 1.0 2.0 3.0 4.0\n".encode()
        result = assert_matches_reference(self.write(tmp_path, lines))
        assert result.rows[-1].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert_matches_reference(self.write(tmp_path, lines), mote=2)

    @pytest.mark.parametrize("row", [
        b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0 4.0 5.0\n",
        b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0 4.0 #note\n",
        b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0 4.0#\n",
        "2004-02-28 01:00:00 5 1 1.0 2.0 3.0\u3000 4.0\u20285\n".encode(),
        b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0\n",
    ], ids=["9-fields", "comment-field", "comment-in-reading", "unicode-separators", "7-fields"])
    def test_a_malformed_row_in_a_clean_block_is_dropped(self, tmp_path, row):
        lines = clean_lines(2 * BLOCK, 6)
        lines[BLOCK + 100] = row
        result = assert_matches_reference(self.write(tmp_path, lines))
        assert result.dropped == 1 and len(result) == 2 * BLOCK - 1

    def test_a_blank_line_in_a_rejected_block_is_no_row(self, tmp_path):
        """A 7-field row sends its block row by row, where a blank line is skipped, not counted."""
        lines = clean_lines(2 * BLOCK, 8)
        lines[BLOCK + 3] = b" \t\n"
        lines[BLOCK + 9] = b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0\n"
        result = assert_matches_reference(self.write(tmp_path, lines))
        assert result.total_rows == 2 * BLOCK - 1
        assert result.dropped_by_reason == {"field_count": 1, "unparsable": 0, "non_finite": 0}

    def test_non_finite_rows_after_blank_lines_keep_their_line_numbers(self, tmp_path):
        lines = clean_lines(2 * BLOCK, 7)
        lines[10:13] = [b"\n", b" \t\n", "\u2028\n".encode()]
        lines[20] = b"2004-02-28 01:00:00 5 1 1.0 nan 3.0 4.0\n"
        lines[BLOCK + 5] = b"\n"
        lines[BLOCK + 9] = b"2004-02-28 01:00:00 5 1 1.0 2.0 3.0 -inf\n"
        result = assert_matches_reference(self.write(tmp_path, lines))
        assert result.dropped_by_reason["non_finite"] == 2

    def test_only_a_rejected_block_goes_row_by_row(self, tmp_path, monkeypatch):
        """A bad row re-parses its own block; a non-finite reading re-parses nothing."""
        parse = harness._parse_sensor_row
        parsed = []
        monkeypatch.setattr(harness, "_parse_sensor_row",
                            lambda parts: parsed.append(parts) or parse(parts))
        lines = clean_lines(3 * BLOCK, 5)
        lines[2 * BLOCK - 1] = b"2004-02-28 01:00:00 5 1 1.0 oops 3.0 4.0\n"
        for i in range(0, 3 * BLOCK, 50):
            lines[i] = b"2004-02-28 01:00:00 5 1 1.0 nan 3.0 4.0\n"
        result = assert_matches_reference(self.write(tmp_path, lines))
        assert len(parsed) == BLOCK
        assert result.dropped_by_reason == {"field_count": 0, "unparsable": 1,
                                            "non_finite": len(range(0, 3 * BLOCK, 50))}

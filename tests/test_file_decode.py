"""A `--file` that is not UTF-8 is refused with the decoder's text for the
whole file: its byte positions count from the start of the file, though
the file is read and decoded a piece at a time."""

import os
import subprocess
import sys

import pytest

from motivec import dsl
from motivec.cli import main

DECLARATION = b"space s { cell { base = point; rank = 0; codim = 0 } }\n"


def whole_file_error(data: bytes) -> str:
    """The text the decoder gives for the whole file decoded at once."""
    with pytest.raises(UnicodeDecodeError) as err:
        data.decode("utf-8")
    return f"motivec: {err.value}\n"


def refuse(tmp_path, capsys, data: bytes) -> str:
    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    assert main(["--file", str(path), "--space", "s"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def comment(size: int) -> bytes:
    """A comment line of `size` bytes, its newline included."""
    return b"#" + b"x" * (size - 2) + b"\n"


def test_a_byte_past_the_first_read_is_named_by_its_file_offset(tmp_path, capsys):
    data = b"# " + b"x" * 100_052 + b"\n" + b"\xff" + b"\n" + DECLARATION
    assert data.index(b"\xff") == 100_055
    assert refuse(tmp_path, capsys, data) == (
        "motivec: 'utf-8' codec can't decode byte 0xff in position 100055: invalid start byte\n"
    )


def test_a_byte_in_the_first_read_keeps_its_text(tmp_path, capsys):
    data = b"space s { cell { base = point; rank = 0; \xff codim = 0 } }\n"
    assert refuse(tmp_path, capsys, data) == (
        "motivec: 'utf-8' codec can't decode byte 0xff in position 41: invalid start byte\n"
    )


@pytest.mark.parametrize("before", [0, 40, 8191, 8192, 65535, 65536, 100_000, 200_001])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82A", b"\xf0\x9f\x98", b"\xe2\x82\xac\xff"])
def test_each_refusal_is_the_whole_file_decoders(tmp_path, capsys, before, bad):
    """Bad bytes after `before` bytes of comment, around the reads of the
    decoder and of the lexer, a sequence at the end of the file included."""
    data = (comment(before) if before > 1 else b"") + bad + b"\n" * (bad != b"\xf0\x9f\x98")
    assert refuse(tmp_path, capsys, data) == whole_file_error(data)


@pytest.mark.parametrize("data, position", [(b"\xff\n", 0), (b"# comment line\n\xff\n", 15)],
                         ids=["first-byte", "after-a-comment"])
def test_a_pipe_names_the_byte_by_its_offset(data, position):
    """A pipe names an undecodable byte by its offset from the start of the
    input, as a file does, and the exit code is 1."""
    src = os.path.dirname(os.path.dirname(dsl.__file__))
    proc = subprocess.run([sys.executable, "-m", "motivec.cli", "--file", "/dev/stdin", "--space", "s"],
                          input=data, capture_output=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (f"motivec: 'utf-8' codec can't decode byte 0xff in position {position}: "
                           "invalid start byte\n").encode()

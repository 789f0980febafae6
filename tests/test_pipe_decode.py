"""A `--file` read from a pipe names an undecodable byte by its offset from
the start of the input, as a plain file does: the count is of the bytes
handed to the decoder, not a position the pipe cannot report."""

import os
import subprocess
import sys

import pytest

from motivec import dsl

from test_file_decode import DECLARATION, whole_file_error


@pytest.mark.parametrize("data", [
    b"# " + b"x" * 100_052 + b"\n\xff\n" + DECLARATION,
    b"#" + b"x" * 65_534 + b"\n\xe2\x82A\n" + DECLARATION,
    b"#" + b"x" * 8_190 + b"\n" + DECLARATION + b"\xf0\x9f\x98",
], ids=["byte-100055", "cut-at-64KiB", "cut-at-the-end"])
def test_a_pipe_names_the_offset_from_its_start(data):
    src = os.path.dirname(os.path.dirname(dsl.__file__))
    proc = subprocess.run([sys.executable, "-m", "motivec.cli", "--file", "/dev/stdin", "--space", "s"],
                          input=data, capture_output=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == whole_file_error(data).encode()

"""Golden outputs: byte-for-byte comparisons against files under
`tests/golden/`.  A golden moves only with a declared output change; the
helper next to each test rewrites its file."""

from golden_certificates import GOLDEN, certificates_json


def test_certificates_match_the_golden_file():
    assert certificates_json() == GOLDEN.read_text()

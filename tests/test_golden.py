"""Golden outputs: byte-for-byte comparisons against files under
`tests/golden/`.  A golden moves only with a declared output change; the
helper next to each test rewrites its file."""

import golden_certificates
import golden_cli
import golden_decompositions
import golden_orbit


def test_certificates_match_the_golden_file():
    assert golden_certificates.certificates_json() == \
        golden_certificates.GOLDEN.read_text()


def test_decompositions_and_measures_match_the_golden_file():
    assert golden_decompositions.decompositions_json() == \
        golden_decompositions.GOLDEN.read_text()


def test_ranks_orbits_and_kac_sums_match_the_golden_file():
    assert golden_orbit.orbit_json() == golden_orbit.GOLDEN.read_text()


def test_cli_outputs_match_the_golden_file():
    assert golden_cli.cli_json() == golden_cli.GOLDEN.read_text()

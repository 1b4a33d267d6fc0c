"""Decompose an eventually periodic sequence into primitive streams.

A stream is a maximal strongly communicating family of symbols, one per
level, that carries its own primitive sub-diagram.  The decomposition
comes with 0-1 block matrices connecting the streams and a primitivity
certificate for each one.
"""

from adic import stream_decompose, constant
from adic.gallery import seven_matrix_example


def main():
    d = seven_matrix_example()
    dec = stream_decompose(d.seq)
    print("streams:", len(dec.streams))
    for s in dec.streams:
        print("  stream %d: members at level %d = %s, period %d"
              % (s.index, dec.valid_from,
                 sorted(s.members_at(dec.valid_from)), s.rho))
    for idx, cert in sorted(dec.certificates["streams"].items()):
        print("  primitivity certificate for stream %d: %s" % (idx, cert))

    print("block matrices (0-1 connections between streams):")
    for k in range(7):
        print("  level %d: %s" % (k, dec.block_matrix(k).to_lists()))

    # the triangular normal form: a gathered, permuted conjugate, read
    # from the decomposition above rather than decomposing again
    form = dec.frobenius_form()
    print("gathering times:", form.gathering_times)
    print("form period:", form.form.period)

    # a simple triangular example decomposes into its diagonal blocks
    dec2 = stream_decompose(constant([[3, 1], [0, 2]], ["0", "1"]))
    print("[[3,1],[0,2]] has %d streams" % len(dec2.streams))


if __name__ == "__main__":
    main()

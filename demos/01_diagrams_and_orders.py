"""Build layered diagrams, put edge orders on them, and walk their words.

A diagram is an infinite sequence of nonnegative integer matrices over
labeled alphabets; entry M_k(a, b) is the number of parallel edges from
symbol a at level k to symbol b at level k+1.  Everything below is exact.
"""

from adic import (
    constant,
    from_int_matrices,
    partial_product,
    BratteliDiagram,
    substitution_order,
    enumerate_paths,
    count_words,
    word_metric,
)


def main():
    # the dyadic adding machine: one symbol, two parallel edges per level
    dyadic = BratteliDiagram(constant([[2]], ["0"]))
    print("dyadic words to level 3:", count_words(dyadic.seq, 0, 2))
    for w in enumerate_paths(dyadic.seq, 2):
        print("  ", w)

    # an eventually periodic sequence: one prefix matrix, then a 2-cycle
    seq = from_int_matrices(
        [[[1, 1]], [[1], [1]], [[2]]],
        cycle_from=2,
        labels=[("0",), ("0", "1"), ("0",), ("0",)])
    print("prefix length:", seq.prefix_len, " period:", seq.period)
    print("product of levels 0..3:\n", partial_product(seq, 0, 3).to_lists())

    # substitution orders: the Chacon order a < b < c < d on [[1,1],[0,3]]
    chacon = constant([[1, 1], [0, 3]], ["0", "1"])
    order = substitution_order(chacon, {"0": "0", "1": "1101"})
    print("edges into '1', smallest first:", order.incoming(0, "1"))

    # the path metric: distance 2^-(agreement) weighted by word counts
    a = [(0, "0", "0", 0), (1, "0", "0", 0), (2, "0", "0", 0)]
    b = [(0, "0", "0", 0), (1, "0", "0", 0), (2, "0", "0", 1)]
    print("metric between two dyadic words:", word_metric(dyadic.seq, a, b))


if __name__ == "__main__":
    main()

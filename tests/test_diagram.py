from fractions import Fraction

import pytest

from adic.errors import (
    MalformedWord,
    HorizonExceeded,
    InsufficientPrefix,
    AbelianizationMismatch,
)
from adic.matrixseq import constant, GenMatrix, Truncated
from adic.diagram import (
    BratteliDiagram,
    substitution_order,
    check_word,
    count_words,
    enumerate_paths,
    word_metric,
)
from adic.vershik import LazyPath


def dyadic():
    return BratteliDiagram(constant([[2]], ["0"]))


def test_default_order_is_sorted():
    d = BratteliDiagram(constant([[1, 1], [1, 0]], ["0", "1"]))
    assert d.order.incoming(0, "0") == [(0, "0", "0", 0), (0, "1", "0", 0)]
    assert d.order.incoming(0, "1") == [(0, "0", "1", 0)]


def test_order_next_prev_min_max():
    d = dyadic()
    e0 = (0, "0", "0", 0)
    e1 = (0, "0", "0", 1)
    assert d.order.min_edge_into(0, "0") == e0
    assert d.order.max_edge_into(0, "0") == e1
    assert d.order.next_edge(e0) == e1
    assert d.order.prev_edge(e1) == e0
    assert d.order.is_min(e0) and d.order.is_max(e1)


def test_substitution_order_chacon():
    seq = constant([[1, 1], [0, 3]], ["0", "1"])
    order = substitution_order(seq, {"0": "0", "1": "1101"})
    assert order.incoming(0, "1") == [
        (0, "1", "1", 0), (0, "1", "1", 1), (0, "0", "1", 0), (0, "1", "1", 2)]


def test_substitution_order_abelianization_mismatch():
    seq = constant([[1, 1], [0, 3]], ["0", "1"])
    with pytest.raises(AbelianizationMismatch):
        substitution_order(seq, {"0": "0", "1": "110"})


def test_check_word_rejects_gaps():
    seq = constant([[2]], ["0"])
    with pytest.raises(MalformedWord):
        check_word(seq, [(0, "0", "0", 0), (2, "0", "0", 0)])
    with pytest.raises(MalformedWord):
        check_word(seq, [(0, "0", "0", 5)])


# (word, start, a valid word whose path puts the word's valid edges in the
# edge index, the error, its message)
BAD_WORDS = [
    ([(1, "0", "0", 0)], 0, [(0, "0", "0", 0), (1, "0", "0", 0)],
     MalformedWord, "edge (1, '0', '0', 0) at position 0 should be at "
     "level 0"),
    ([(0, "0", "0", 0), (1, "x", "0", 0)], 0, [(0, "0", "0", 0)],
     MalformedWord, "edge (1, 'x', '0', 0) uses unknown symbols"),
    ([(0, "0", "0", 0), (1, ["0"], "0", 0)], 0, [(0, "0", "0", 0)],
     MalformedWord, "edge (1, ['0'], '0', 0) uses unknown symbols"),
    ([(0, "0", "0", 0), (1, "0", "1", 1)], 0,
     [(0, "0", "0", 0), (1, "0", "1", 0)],
     MalformedWord, "edge (1, '0', '1', 1) index out of range "
     "(multiplicity 1)"),
    ([(0, "0", "1", 0), (1, "0", "0", 0)], 0,
     [(0, "0", "1", 0), (1, "1", "0", 0), (2, "0", "0", 0)],
     MalformedWord, "edges (0, '0', '1', 0) and (1, '0', '0', 0) do not "
     "compose"),
    ([(2, "0", "0", 0), (3, "0", "0", 0)], 2, [(2, "0", "0", 0)],
     HorizonExceeded, "level 3 beyond horizon 3"),
]


@pytest.mark.parametrize("word, start, valid, error, message", BAD_WORDS)
def test_check_word_errors_read_the_same_once_edges_are_indexed(
        word, start, valid, error, message):
    fib = GenMatrix.from_lists(("0", "1"), ("0", "1"), [[1, 1], [1, 0]])
    seq = Truncated([fib] * 3)
    with pytest.raises(error) as before:
        check_word(seq, word, start)
    LazyPath(BratteliDiagram(seq), valid, start=valid[0][0])
    assert seq._edge_index
    with pytest.raises(error) as after:
        check_word(seq, word, start)
    assert str(before.value) == str(after.value) == message


def test_check_word_returns_the_matrix_labels_and_keeps_no_edges():
    seq = constant([[1, 1], [1, 0]], [0, 1])
    for edge in ((0, 1.0, 0, 0), [0, 1.0, 0.0, 0], (0, 1, 0, 0)):
        got, = check_word(seq, [edge])
        assert got == (0, 1, 0, 0)
        assert [type(x) for x in got] == [int] * 4
    # only the paths that keep their edges fill the edge index
    word_metric(seq, [(0, 1, 0, 0)], [(0, 0, 0, 0)])
    assert seq._edge_index is None


@pytest.mark.parametrize("edge", [(False, "0", "0", 0), (0, "0", "0", True),
                                  [0, "0", "0", False]])
def test_check_word_rejects_bool_levels_and_indices(edge):
    with pytest.raises(MalformedWord, match="is not \\(level"):
        check_word(constant([[2]], ["0"]), [edge])


def test_cylinder_counts():
    seq = constant([[2]], ["0"])
    assert count_words(seq, 0, 2) == 8


def test_enumerate_paths_sorted_and_complete():
    seq = constant([[1, 1], [1, 0]], ["0", "1"])
    paths = enumerate_paths(seq, 3)
    assert len(paths) == count_words(seq, 0, 2)
    assert paths == sorted(paths)
    # one tuple per distinct edge, shared by every word through it
    edges = [e for w in paths for e in w]
    assert len({id(e) for e in edges}) == len(set(edges))


def test_word_metric_dyadic():
    seq = constant([[2]], ["0"])
    a = [(0, "0", "0", 0), (1, "0", "0", 0), (2, "0", "0", 0)]
    b = [(0, "0", "0", 0), (1, "0", "0", 0), (2, "0", "0", 1)]
    # agree through levels 0..1; 4 words on levels 0..1
    assert word_metric(seq, a, b) == Fraction(1, 4)
    c = [(0, "0", "0", 1)] + a[1:]
    assert word_metric(seq, a, c) == 1
    with pytest.raises(InsufficientPrefix):
        word_metric(seq, a, a)


def test_word_metric_reads_list_and_tuple_edges_alike():
    # the edges are compared as check_word returns them, so a list edge
    # equals the tuple edge it spells
    seq = constant([[2]], ["0"])
    e = [(0, "0", "0", 0), (1, "0", "0", 1)]
    f = [(0, "0", "0", 0), (1, "0", "0", 0)]
    assert word_metric(seq, e, f) == Fraction(1, 2)
    assert word_metric(seq, [list(x) for x in e], f) == Fraction(1, 2)
    assert word_metric(seq, e, [list(x) for x in f]) == Fraction(1, 2)


def test_diagram_json_roundtrip_with_order():
    seq = constant([[1, 1], [0, 3]], ["0", "1"])
    order = substitution_order(seq, {"0": "0", "1": "1101"})
    d = BratteliDiagram(seq, order)
    back = BratteliDiagram.from_json(d.to_json())
    assert back.order.incoming(0, "1") == d.order.incoming(0, "1")
    assert back.seq.matrix(0) == seq.matrix(0)


def test_order_naming_an_unknown_target_is_rejected():
    doc = {"kind": "eventually_periodic", "alphabets": [["0"]],
           "prefix": [], "cycle": [[[1]]],
           "order": {"cycle": [{"1": [["0", 0]]}]}}
    with pytest.raises(MalformedWord, match="'1'"):
        BratteliDiagram.from_json(doc)


def test_truncated_diagram_order_roundtrip():
    t = Truncated([GenMatrix.from_lists(("0",), ("0",), [[2]])] * 3)
    d = BratteliDiagram(t)
    back = BratteliDiagram.from_json(d.to_json())
    assert back.order.incoming(1, "0") == d.order.incoming(1, "0")

"""Graded graphs presented by matrix sequences, with stable edge orders.

An edge from symbol a at level k to symbol b at level k+1 is identified by
the tuple (k, a, b, i) with 0 <= i < M_k(a,b).  A stable order is, for every
level and every target symbol, a total order on the edges arriving at that
target.  The default order sorts edges by (source position, index).
"""

from fractions import Fraction

from .errors import (
    MalformedWord,
    InsufficientPrefix,
    AbelianizationMismatch,
    NotReduced,
    ShapeMismatch,
)
from . import matrixseq
from .matrixseq import partial_product


def edges_from_matrix(level, m):
    out = []
    for a in m.rows:
        for b in m.cols:
            for i in range(m.entry(a, b)):
                out.append((level, a, b, i))
    return out


class StableOrder:
    """Per-level, per-target edge orders for an eventually periodic (or
    truncated) diagram.  Orders are stored level-free as (source, index)
    pairs, one level order per stored matrix of the sequence, and read
    through `seq.index(k)`; for eventually periodic diagrams the cycle part
    repeats.
    """

    def __init__(self, seq, prefix_orders=None, cycle_orders=None,
                 term_orders=None):
        self.seq = seq
        given = {"prefix": prefix_orders, "cycle": cycle_orders,
                 "terms": term_orders}
        orders = []
        for part, n in seq._parts:
            levels = given[part] or [None] * n
            if len(levels) != n:
                raise ShapeMismatch("%d %s orders for %d levels"
                                    % (len(levels), part, n))
            orders += levels
        self._orders = [self._fill(m, o) for m, o in zip(seq.stored, orders)]

    @staticmethod
    def _fill(m, order):
        """Normalize/validate one level's order: {target: [(source, idx)]}."""
        for b in order or ():
            if b not in m.cols:
                raise MalformedWord("order names target %r, which is not a "
                                    "symbol of its level" % (b,))
        full = {}
        for b in m.cols:
            expect = [(a, i) for a in m.rows for i in range(m.entry(a, b))]
            if order is None or b not in order:
                full[b] = list(expect)
            else:
                given = [tuple(e) for e in order[b]]
                if sorted(given) != sorted(expect):
                    raise MalformedWord(
                        "order for target %r is not a permutation of its "
                        "incoming edges" % (b,))
                full[b] = given
        return full

    def level_orders(self, k):
        return self._orders[self.seq.index(k)]

    def incoming(self, k, b):
        """Ordered edge list into symbol b at level k+1."""
        order = self.level_orders(k)
        if b not in order:
            raise MalformedWord("no symbol %r at level %d" % (b, k + 1))
        return [(k, a, b, i) for (a, i) in order[b]]

    def position(self, edge):
        k, a, b, i = edge
        order = self.level_orders(k)[b]
        return order.index((a, i))

    def class_size(self, edge):
        k, a, b, i = edge
        return len(self.level_orders(k)[b])

    def is_max(self, edge):
        k, a, b, i = edge
        return self.level_orders(k)[b][-1] == (a, i)

    def is_min(self, edge):
        k, a, b, i = edge
        return self.level_orders(k)[b][0] == (a, i)

    def next_edge(self, edge):
        k, a, b, i = edge
        order = self.level_orders(k)[b]
        pos = order.index((a, i))
        if pos + 1 >= len(order):
            return None
        na, ni = order[pos + 1]
        return (k, na, b, ni)

    def prev_edge(self, edge):
        k, a, b, i = edge
        order = self.level_orders(k)[b]
        pos = order.index((a, i))
        if pos == 0:
            return None
        na, ni = order[pos - 1]
        return (k, na, b, ni)

    def min_edge_into(self, k, b):
        order = self.level_orders(k)[b]
        if not order:
            raise NotReduced("no edge enters vertex %r at level %d"
                             % (b, k + 1))
        a, i = order[0]
        return (k, a, b, i)

    def max_edge_into(self, k, b):
        order = self.level_orders(k)[b]
        if not order:
            raise NotReduced("no edge enters vertex %r at level %d"
                             % (b, k + 1))
        a, i = order[-1]
        return (k, a, b, i)

    def to_json(self):
        out, start = {}, 0
        for part, n in self.seq._parts:
            out[part] = [{b: [[a, i] for (a, i) in pairs]
                          for b, pairs in lo.items()}
                         for lo in self._orders[start:start + n]]
            start += n
        return out


class BratteliDiagram:
    def __init__(self, seq, order=None):
        self.seq = seq
        self.order = order if order is not None else StableOrder(seq)
        # the rank table: start level -> vershik._RankTable, filled on demand
        self._rank_tables = {}

    def to_json(self):
        out = matrixseq.to_json(self.seq)
        out["order"] = self.order.to_json()
        return out

    @classmethod
    def from_json(cls, obj):
        seq = matrixseq.from_json(obj)
        order_obj = obj.get("order")
        if order_obj is None:
            return cls(seq)
        if not isinstance(order_obj, dict):
            raise ShapeMismatch("'order' must be a JSON object")

        def conv(key, n):
            """The level orders under `key`: none, or exactly n of them."""
            levels = order_obj.get(key, [])
            if not isinstance(levels, list) or len(levels) not in (0, n) \
                    or not all(_is_level_order(lo) for lo in levels):
                raise ShapeMismatch(
                    "order %r must be a list of %d level orders mapping "
                    "symbols to [source, index] pairs" % (key, n))
            return [{b: [tuple(e) for e in pairs] for b, pairs in lo.items()}
                    for lo in levels] or None
        given = {part: conv(part, n) for part, n in seq._parts}
        return cls(seq, StableOrder(seq, given.get("prefix"),
                                    given.get("cycle"), given.get("terms")))


def _is_level_order(lo):
    return isinstance(lo, dict) and all(
        isinstance(pairs, list) and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and type(e[1]) is int for e in pairs)
        for pairs in lo.values())


def substitution_order(seq, substitutions):
    """Build a stable order on the cycle from substitution words; prefix
    levels keep the default order (`StableOrder(prefix_orders=...)` sets
    them).

    `substitutions` maps each target symbol to the word of source symbols
    read off in edge order, one dict per cycle phase (or a single dict used
    for every phase).  A list of another length raises ValueError.  The
    letter counts must reproduce the matrix columns, otherwise
    AbelianizationMismatch is raised.
    """
    if not seq.is_eventually_periodic:
        raise ShapeMismatch("substitution orders need an eventually periodic input")
    if isinstance(substitutions, dict):
        substitutions = [substitutions] * seq.period

    def order_for(m, subs):
        out = {}
        for b in m.cols:
            word = list(subs[b])
            counts = {}
            pairs = []
            for a in word:
                i = counts.get(a, 0)
                counts[a] = i + 1
                pairs.append((a, i))
            for a in m.rows:
                if counts.get(a, 0) != m.entry(a, b):
                    raise AbelianizationMismatch(
                        "word for %r has %d occurrences of %r, matrix says %d"
                        % (b, counts.get(a, 0), a, m.entry(a, b)))
            out[b] = pairs
        return out

    cycle_orders = [order_for(m, subs)
                    for m, subs in zip(seq.cycle, substitutions, strict=True)]
    return StableOrder(seq, cycle_orders=cycle_orders)


# ---------------------------------------------------------------------------
# words, cylinders, metric


def _edge_tuple(edge):
    """`edge` as a tuple (k, a, b, i); MalformedWord unless it is a tuple
    or list of four items with int level k and int index i (a bool is not
    an int here: True would name level or index 1)."""
    if isinstance(edge, (tuple, list)) and len(edge) == 4 \
            and isinstance(edge[0], int) and isinstance(edge[3], int) \
            and not isinstance(edge[0], bool) \
            and not isinstance(edge[3], bool):
        return tuple(edge)
    raise MalformedWord("edge %r is not (level, source, target, index)"
                        % (edge,))


def check_word(seq, word, start=0):
    """Validate an edge word starting at `start` and return it as a tuple
    of edge tuples, built from the matrices' own labels; raises
    MalformedWord (HorizonExceeded past a truncated sequence's horizon).
    It keeps nothing: `vershik.LazyPath` puts the edges of the paths it
    builds in the sequence's edge index (see `MatrixSequence`)."""
    out = []
    for j, edge in enumerate(word):
        k, a, b, i = edge = _edge_tuple(edge)
        if k != start + j:
            raise MalformedWord("edge %r at position %d should be at level %d"
                                % (edge, j, start + j))
        m = seq.matrix(k)
        if a not in m.rows or b not in m.cols:
            raise MalformedWord("edge %r uses unknown symbols" % (edge,))
        if not 0 <= i < m.entry(a, b):
            raise MalformedWord("edge %r index out of range (multiplicity %d)"
                                % (edge, m.entry(a, b)))
        if out and out[-1][2] != a:
            raise MalformedWord("edges %r and %r do not compose"
                                % (out[-1], edge))
        a, b = m.rows[m.rows.index(a)], m.cols[m.cols.index(b)]
        out.append((int(k), a, b, int(i)))
    return tuple(out)


def count_words(seq, k, n):
    """Number of allowed edge words covering levels k..n inclusive."""
    return partial_product(seq, k, n).entry_sum()


def enumerate_paths(diagram, depth):
    """All allowed edge words covering levels 0..depth-1, sorted."""
    seq = getattr(diagram, "seq", diagram)
    if depth <= 0:
        return [()]
    words = [(e,) for e in edges_from_matrix(0, seq.matrix(0))]
    for k in range(1, depth):
        # each source's outgoing edges once, shared by every word through it
        out = {}
        for e in edges_from_matrix(k, seq.matrix(k)):
            out.setdefault(e[1], []).append((e,))
        words = [word + e for word in words for e in out.get(word[-1][2], ())]
    return sorted(words)


def word_metric(seq_or_diagram, e, f):
    """Ultrametric distance between two paths given by prefixes e, f.

    Distance 1 when the first edges differ; otherwise 1/(number of words
    through the last agreeing level).  Raises InsufficientPrefix when the
    given prefixes agree throughout their common length."""
    seq = getattr(seq_or_diagram, "seq", seq_or_diagram)
    e, f = check_word(seq, e), check_word(seq, f)
    common = min(len(e), len(f))
    if common == 0:
        raise InsufficientPrefix("empty prefix")
    if e[0] != f[0]:
        return Fraction(1)
    m = None
    for j in range(common):
        if e[j] != f[j]:
            break
        m = j
    else:
        raise InsufficientPrefix("prefixes agree on their common length")
    return Fraction(1, count_words(seq, 0, m))

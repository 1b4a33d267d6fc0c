"""Nonnegative integer matrices over labeled alphabets, and infinite
sequences of them given either by an eventually periodic description or by a
finite truncation.

Conventions used throughout the package:

- a matrix maps level i to level i+1: rows are labeled by the level-i
  alphabet, columns by the level-(i+1) alphabet;
- alphabets are tuples of string labels; the tuple order is only for
  deterministic display, composability is checked set-wise;
- entries are plain Python ints (arbitrary precision); measure values are
  fractions.Fraction.  No floats anywhere on a decision path.
"""

import functools
import itertools
import math
import operator

from .errors import (
    IncompatibleAlphabets,
    HorizonExceeded,
    ShapeMismatch,
)
from .verdict import Verdict


class GenMatrix:
    """A nonnegative integer matrix with labeled rows and columns.

    Absent entries are zero.  Empty alphabets ("virtual" matrices) are
    allowed; products with them are virtual or zero as dimensions dictate.
    """

    def __init__(self, rows, cols, entries=None):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if len(set(self.rows)) != len(self.rows):
            raise IncompatibleAlphabets("duplicate row labels: %r" % (self.rows,))
        if len(set(self.cols)) != len(self.cols):
            raise IncompatibleAlphabets("duplicate column labels: %r" % (self.cols,))
        self.entries = {}
        if entries:
            rowset, colset = set(self.rows), set(self.cols)
            for (a, b), v in entries.items():
                if a not in rowset or b not in colset:
                    raise ShapeMismatch("entry (%r,%r) outside alphabets" % (a, b))
                if v < 0:
                    raise ShapeMismatch("negative entry at (%r,%r)" % (a, b))
                if v:
                    self.entries[(a, b)] = v

    @classmethod
    def from_lists(cls, rows, cols, array):
        """Build from a row-major list of lists."""
        rows, cols = tuple(rows), tuple(cols)
        if len(array) != len(rows) or any(len(r) != len(cols) for r in array):
            raise ShapeMismatch("array shape does not match alphabets")
        entries = {}
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                if array[i][j]:
                    entries[(a, b)] = array[i][j]
        return cls(rows, cols, entries)

    def entry(self, a, b):
        return self.entries.get((a, b), 0)

    def to_lists(self):
        return [[self.entry(a, b) for b in self.cols] for a in self.rows]

    def is_virtual(self):
        return not self.rows or not self.cols

    def is_zero(self):
        return not self.entries

    def is_positive(self):
        if self.is_virtual():
            return False
        return all((a, b) in self.entries for a in self.rows for b in self.cols)

    def transpose(self):
        return GenMatrix(self.cols, self.rows,
                         {(b, a): v for (a, b), v in self.entries.items()})

    def entry_sum(self):
        return sum(self.entries.values())

    def mul(self, other):
        if set(self.cols) != set(other.rows):
            raise IncompatibleAlphabets(
                "cannot multiply: cols %r vs rows %r" % (self.cols, other.rows))
        entries = {}
        # group other's entries by row once
        by_row = {}
        for (b, c), v in other.entries.items():
            by_row.setdefault(b, []).append((c, v))
        for (a, b), u in self.entries.items():
            for c, v in by_row.get(b, ()):
                key = (a, c)
                entries[key] = entries.get(key, 0) + u * v
        return GenMatrix(self.rows, other.cols, entries)

    def restrict(self, rows, cols):
        # the kept entries are valid already: reuse their keys instead of
        # checking and copying them again
        out = GenMatrix(rows, cols)
        rowset, colset = set(out.rows), set(out.cols)
        out.entries = {key: v for key, v in self.entries.items()
                       if key[0] in rowset and key[1] in colset}
        return out

    def mul_vec(self, vec):
        """Apply to a column vector given as {col_label: value}."""
        out = {a: 0 for a in self.rows}
        for (a, b), v in self.entries.items():
            out[a] += v * vec.get(b, 0)
        return out

    def vec_mul(self, vec):
        """Left-multiply a row vector {row_label: value}."""
        out = {b: 0 for b in self.cols}
        for (a, b), v in self.entries.items():
            out[b] += vec.get(a, 0) * v
        return out

    def __eq__(self, other):
        """Equality of alphabets-as-sets and all entries."""
        if not isinstance(other, GenMatrix):
            return NotImplemented
        return (set(self.rows) == set(other.rows)
                and set(self.cols) == set(other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((frozenset(self.rows), frozenset(self.cols),
                     frozenset(self.entries.items())))

    def __repr__(self):
        return "GenMatrix(%r, %r, %r)" % (self.rows, self.cols, self.to_lists())


def _check_chain(mats):
    for i in range(len(mats) - 1):
        if set(mats[i].cols) != set(mats[i + 1].rows):
            raise IncompatibleAlphabets(
                "level %d cols %r do not match level %d rows %r"
                % (i, mats[i].cols, i + 1, mats[i + 1].rows))


class MatrixSequence:
    """Base class; see EventuallyPeriodic and Truncated.

    A sequence keeps its finitely many matrices in one list `stored`: the
    prefix then the cycle, or the terms.  `index(k)` is the only map from
    a level k to its position in `stored`; it raises IndexError for k < 0
    and HorizonExceeded at or past a truncated horizon.  Any per-level table
    kept parallel to `stored` is read as `table[seq.index(k)]`.  `_parts`
    names the runs of `stored` as the JSON format does, with their lengths.

    `_edge_index` is the sequence's edge index, {(k, a, b, i): edge}: one
    tuple per distinct edge of the `vershik.LazyPath`s built over the
    sequence, which they all share.  It is None until the first such path
    is built, it is kept for the sequence's lifetime, and its size is
    O(distinct edges of those paths).
    """

    horizon = None
    _edge_index = None

    def matrix(self, k):
        return self.stored[self.index(k)]

    def alphabet(self, k):
        return self.matrix(k).rows

    @property
    def is_eventually_periodic(self):
        return isinstance(self, EventuallyPeriodic)


class EventuallyPeriodic(MatrixSequence):
    def __init__(self, prefix, cycle):
        prefix, cycle = list(prefix), list(cycle)
        if not cycle:
            raise ShapeMismatch("cycle must be nonempty")
        _check_chain(prefix + cycle)
        if set(cycle[-1].cols) != set(cycle[0].rows):
            raise IncompatibleAlphabets("cycle does not close")
        self.prefix = prefix
        self.cycle = cycle
        self.stored = prefix + cycle
        self.prefix_len = len(prefix)
        self.period = len(cycle)
        self._parts = (("prefix", self.prefix_len), ("cycle", self.period))

    def index(self, k):
        if k < self.prefix_len:
            if k < 0:
                raise IndexError(k)
            return k
        return self.prefix_len + (k - self.prefix_len) % self.period

    def liminf_alphabet_size(self):
        return min(len(m.rows) for m in self.cycle)

    def __repr__(self):
        return ("EventuallyPeriodic(prefix=%d mats, cycle=%d mats)"
                % (self.prefix_len, self.period))


class Truncated(MatrixSequence):
    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ShapeMismatch("need at least one term")
        _check_chain(terms)
        self.terms = self.stored = terms
        self.horizon = len(terms)
        self._parts = (("terms", self.horizon),)

    def index(self, k):
        if k < 0:
            raise IndexError(k)
        if k >= self.horizon:
            raise HorizonExceeded("level %d beyond horizon %d"
                                  % (k, self.horizon))
        return k

    def alphabet(self, k):
        if k == self.horizon:
            return self.terms[-1].cols
        return self.matrix(k).rows

    def __repr__(self):
        return "Truncated(%d terms)" % self.horizon


def from_int_matrices(mats, cycle_from=None, labels=None):
    """Convenience constructor from row-major int matrices.

    Labels default to "0","1",...  per level, sized to fit.  If `cycle_from`
    is given, matrices from that index on form the cycle; otherwise the
    result is Truncated.
    """
    dims = [len(m) for m in mats] + [len(mats[-1][0])]
    alphs = []
    for k, d in enumerate(dims):
        if labels is not None:
            alphs.append(tuple(labels[k]))
        else:
            alphs.append(tuple(str(j) for j in range(d)))
    gm = [GenMatrix.from_lists(alphs[i], alphs[i + 1], m)
          for i, m in enumerate(mats)]
    if cycle_from is None:
        return Truncated(gm)
    return EventuallyPeriodic(gm[:cycle_from], gm[cycle_from:])


def constant(mat_lists, labels=None):
    """The stationary sequence repeating one square matrix."""
    d = len(mat_lists)
    labs = tuple(labels) if labels is not None else tuple(str(j) for j in range(d))
    m = GenMatrix.from_lists(labs, labs, mat_lists)
    return EventuallyPeriodic([], [m])


def _scalar_spec(spec):
    """The (prefix, cycle) lists of an eventually periodic scalar sequence
    given as one number (constant), a list (the cycle) or a (prefix, cycle)
    pair of lists."""
    if isinstance(spec, tuple) and len(spec) == 2 and \
            isinstance(spec[0], (list, tuple)):
        return list(spec[0]), list(spec[1])
    if isinstance(spec, (list, tuple)):
        return [], list(spec)
    return [], [spec]


def _spec_term(prefix, cycle, i):
    """Term i of the scalar sequence with this prefix and cycle."""
    if i < len(prefix):
        return prefix[i]
    return cycle[(i - len(prefix)) % len(cycle)]


def partial_product(seq, i, n):
    """The product matrix(i) * matrix(i+1) * ... * matrix(n), mapping level
    i to level n+1 (both endpoints inclusive)."""
    if n < i:
        raise ShapeMismatch("empty product range %d..%d" % (i, n))
    out = seq.matrix(i)
    for k in range(i + 1, n + 1):
        out = out.mul(seq.matrix(k))
    return out


def _compare_horizon(m, mhat):
    """The joint layout of a pair of sequences, as (P, L).  For two
    eventually periodic sequences P is the longer prefix and L the lcm of
    the periods: levels P..P+L-1 repeat forever in both, so the levels
    0..P+L-1 meet every pair of stored positions that ever meets.  When
    either is truncated, L is 0 and P is the shorter horizon: the levels
    both sequences define."""
    if m.is_eventually_periodic and mhat.is_eventually_periodic:
        return (max(m.prefix_len, mhat.prefix_len),
                math.lcm(m.period, mhat.period))
    return min(s.horizon for s in (m, mhat) if s.horizon is not None), 0


def submatrix_leq(m, mhat):
    """Verdict on: m is a subsequence of mhat (alphabets contained, entries
    entrywise <=) at every level.  Exact for two eventually periodic
    sequences; Undecided(horizon) when only checkable to a horizon."""
    P, L = _compare_horizon(m, mhat)
    levels = P + L
    for k in range(levels):
        a, ahat = m.matrix(k), mhat.matrix(k)
        if not set(a.rows) <= set(ahat.rows) or not set(a.cols) <= set(ahat.cols):
            return Verdict.no({"level": k, "reason": "alphabet not contained"})
        for (x, y), v in a.entries.items():
            if v > ahat.entry(x, y):
                return Verdict.no({"level": k, "entry": [x, y],
                                   "values": [v, ahat.entry(x, y)]})
    if L:
        return Verdict.yes({"levels_checked": levels, "covers": "all levels"})
    return Verdict.undecided(levels, {"levels_checked": levels})


def gather(seq, times=None, blocks=None):
    """Gather consecutive matrices into products.

    Exactly one of `times` / `blocks` must be given.

    - times: strictly increasing level list starting at 0; output term j is
      the product over [times[j], times[j+1]).  The output is Truncated.
    - blocks = (prefix_blocks, cycle_blocks): lists of block lengths.  The
      cycle blocks must start at or after the input prefix and sum to a
      multiple of the period, so the output is EventuallyPeriodic.
    """
    if (times is None) == (blocks is None):
        raise ShapeMismatch("pass exactly one of times/blocks")
    if times is not None:
        if not times or times[0] != 0 or any(
                times[j] >= times[j + 1] for j in range(len(times) - 1)):
            raise ShapeMismatch("times must be strictly increasing from 0")
        if len(times) < 2:
            raise ShapeMismatch("need at least two times")
        if seq.horizon is not None and times[-1] > seq.horizon:
            raise HorizonExceeded("times reach %d beyond horizon %d"
                                  % (times[-1], seq.horizon))
        terms = [partial_product(seq, times[j], times[j + 1] - 1)
                 for j in range(len(times) - 1)]
        return Truncated(terms)

    if not seq.is_eventually_periodic:
        raise ShapeMismatch("block gathering needs an eventually periodic input")
    prefix_blocks, cycle_blocks = blocks
    if any(b <= 0 for b in itertools.chain(prefix_blocks, cycle_blocks)):
        raise ShapeMismatch("block lengths must be positive")
    if not cycle_blocks:
        raise ShapeMismatch("need at least one cycle block")
    start = sum(prefix_blocks)
    if start < seq.prefix_len:
        raise ShapeMismatch("prefix blocks must cover the input prefix")
    if sum(cycle_blocks) % seq.period != 0:
        raise ShapeMismatch("cycle blocks must sum to a multiple of the period")
    new_prefix, k = [], 0
    for b in prefix_blocks:
        new_prefix.append(partial_product(seq, k, k + b - 1))
        k += b
    new_cycle = []
    for b in cycle_blocks:
        new_cycle.append(partial_product(seq, k, k + b - 1))
        k += b
    return EventuallyPeriodic(new_prefix, new_cycle)


# ---------------------------------------------------------------------------
# reduction


def _right_alive_step(m, nxt):
    """Rows of m with an edge into the set `nxt` of next-level symbols."""
    return {a for (a, b) in m.entries if b in nxt}


def _survive_step(m, cur, alive):
    """Symbols of `alive` reached by an edge of m from the set `cur`."""
    return frozenset(b for (a, b) in m.entries if a in cur and b in alive)


def _restrict_to(m, rows, cols):
    """m restricted to the symbol sets rows x cols, keeping label order."""
    return m.restrict(tuple(a for a in m.rows if a in rows),
                      tuple(b for b in m.cols if b in cols))


def _periodic_only(seq, name):
    """Raise ShapeMismatch unless seq is eventually periodic: reduction and
    primitivity are statements about infinite sequences."""
    if not seq.is_eventually_periodic:
        raise ShapeMismatch("%s needs an eventually periodic sequence; "
                            "read a window with stream_decompose" % name)


def reduce_sequence(seq):
    """Remove symbols that cannot be extended infinitely to the right or
    reached from level 0 on the left.  Returns (reduced, log).

    The input must be eventually periodic; a Truncated window raises
    ShapeMismatch (stream_decompose reads a window through its
    continuation).  The result keeps exactly the same infinite edge paths,
    is unique, and is eventually periodic, possibly with a longer prefix.
    The log maps the prefix levels ("levels") and the cycle positions
    ("periodic") of the result to the sorted symbols removed there.
    """
    _periodic_only(seq, "reduce_sequence")
    P, stored = seq.prefix_len, seq.stored
    # right[i]: the right-extendable rows of stored[i].  Greatest
    # fixpoint on the cycle, then backward through the prefix.
    right = [set(m.rows) for m in stored]
    changed = True
    while changed:
        changed = False
        for i in range(P, len(stored)):
            keep = _right_alive_step(stored[i], right[seq.index(i + 1)])
            if keep != right[i]:
                right[i] = keep
                changed = True
    for i in range(P - 1, -1, -1):
        right[i] = _right_alive_step(stored[i], right[i + 1])

    # forward sweep until (stored position, surviving set) repeats
    survive = [frozenset(right[0])]
    seen = {}
    k = 0
    while True:
        state = (seq.index(k), survive[k])
        if state in seen:
            loop_start = seen[state]
            break
        seen[state] = k
        survive.append(_survive_step(seq.matrix(k), survive[k],
                                     right[seq.index(k + 1)]))
        k += 1
    # survive[k] == survive[loop_start], so the last cycle matrix maps
    # into the cycle's first surviving set
    terms = [_restrict_to(seq.matrix(i), survive[i], survive[i + 1])
             for i in range(k)]
    removed = [sorted(set(seq.matrix(i).rows) - survive[i])
               for i in range(k)]
    log = {"levels": {i: removed[i] for i in range(loop_start)},
           "periodic": {i - loop_start: removed[i]
                        for i in range(loop_start, k)}}
    return EventuallyPeriodic(terms[:loop_start], terms[loop_start:]), log


def is_reduced(seq):
    """True iff every stored matrix has a nonzero entry in each row and each
    column.  For an eventually periodic sequence this holds exactly when
    reduce_sequence removes no symbol; for a window, exactly when it removes
    none from the window continued by the all-ones square matrix on its
    last alphabet."""
    return all(len({a for a, _ in m.entries}) == len(m.rows)
               and len({b for _, b in m.entries}) == len(m.cols)
               for m in seq.stored)


# ---------------------------------------------------------------------------
# primitivity


def wielandt_bound(d):
    return (d - 1) ** 2 + 1


def _after(seq, j):
    """The step key of a boolean product whose last matrix sits at stored
    position j of an eventually periodic sequence.  The key is j itself:
    the next matrix is the one after position j (`_next`), and the
    product's columns are in the order of stored[j].cols.  Only the last
    prefix and the last cycle position share a next matrix; they share the
    key P - 1 when they list their columns alike.  So two products share a
    key exactly when their next matrix and column order agree."""
    if j + 1 < len(seq.stored):
        return j
    P = seq.prefix_len
    return P - 1 if P and seq.stored[P - 1].cols == seq.stored[j].cols \
        else j


def _next(seq, key):
    """The stored position of the matrix after step key `key`."""
    return key + 1 if key + 1 < len(seq.stored) else seq.prefix_len


def _step(seq, table, key):
    """The gather step at `key` (see `_after`): multiply a product whose
    columns are in the order of stored[key].cols by the next matrix.
    Built and kept in `table` as the tuple (gather, zeros, extras,
    zero_row, following):

    - `gather` takes each new column's first source mask in one C call;
      the `extras` (column, source) pairs are OR-ed in after it, and the
      `zeros`, columns with no source, are cleared;
    - `zero_row` says whether the matrix has a zero row, the only way a
      step can drop a row from the product's union;
    - `following` is the key after this step.

    The sequence constructors check that consecutive alphabets agree as
    sets, so the order lists the matrix's rows."""
    i = _next(seq, key)
    mat = seq.stored[i]
    order = seq.stored[key].cols
    at = dict(zip(order, range(len(order))))
    col = dict(zip(mat.cols, range(len(mat.cols))))
    index = [None] * len(mat.cols)
    extras = []
    for (a, b) in mat.entries:
        c = col[b]
        if index[c] is None:
            index[c] = at[a]
        else:
            extras.append((c, at[a]))
    zeros = [c for c, j in enumerate(index) if j is None] \
        if None in index else ()
    for c in zeros:
        index[c] = 0
    # a run takes gather steps only after a direct pass over every cycle
    # level, and a pass over a one-symbol level ends the run (the product
    # is positive or has a zero row), so `index` has two or more entries and
    # the gather returns a tuple
    gather = operator.itemgetter(*index)
    zero_row = len({a for a, _ in mat.entries}) < len(mat.rows)
    step = table[key] = (gather, zeros, extras, zero_row, _after(seq, i))
    return step


def _positivity_from(seq, k, table):
    """Iterate the boolean partial products of an eventually periodic
    sequence starting at level k until a strictly positive product appears
    or the state (stored position, column order, boolean product) repeats.
    Returns ('yes', n) or ('no', n).  matrix(k) must have rows.

    The product is kept as a tuple of int bitmasks, one per column in the
    column order of the last matrix multiplied: bit i of a column's mask is
    set iff row i of matrix(k) reaches that column.  The first
    2 * len(seq.stored) steps are direct, by label; later steps are the
    gather steps of `table` (see `_step`), which one table shares among all
    start levels of a sequence.  A gather step costs more to build than a
    direct step and pays off only when it is reused, which the short runs
    of most sequences rarely do."""
    i = seq.index(k)
    mat = seq.stored[i]
    full = (1 << len(mat.rows)) - 1
    direct = 2 * len(seq.stored)
    by_label = {a: 1 << j for j, a in enumerate(mat.rows)}
    n = 0
    seen = set()
    while True:
        if n < direct:
            if n:
                i = _next(seq, key)
                mat = seq.stored[i]
            by_label, prev = dict.fromkeys(mat.cols, 0), by_label
            for (a, b) in mat.entries:
                by_label[b] |= prev[a]
            masks = tuple(by_label.values())
            zero_row = True
            key = _after(seq, i)
        else:
            gather, zeros, extras, zero_row, key = \
                table.get(key) or _step(seq, table, key)
            prev, masks = masks, gather(masks)
            if zeros or extras:
                fixed = list(masks)
                for c in zeros:
                    fixed[c] = 0
                for c, j in extras:
                    fixed[c] |= prev[j]
                masks = tuple(fixed)
        n += 1
        # an all-zero row can never fill in again
        if zero_row and functools.reduce(operator.or_, masks, 0) != full:
            return ("no", n)
        # masks is not empty: a direct step's union is full, and a gather
        # step has two or more columns
        if masks.count(full) == len(masks):
            return ("yes", n)
        # one hash per state: a repeat leaves the set's size unchanged
        seen.add((key, masks))
        if len(seen) < n:
            return ("no", n)


def is_primitive(seq):
    """Verdict on: for every level k there is n with the partial product
    from k to n strictly positive.  The verdict is exact; the input must be
    eventually periodic (a Truncated window raises ShapeMismatch).  A level
    with an empty alphabet has no positive product."""
    _periodic_only(seq, "is_primitive")
    if any(not m.rows for m in seq.stored):
        return Verdict.no({"reason": "empty alphabet"})
    table = {}
    witness = {}
    for k in range(len(seq.stored)):
        res, n = _positivity_from(seq, k, table)
        if res == "no":
            return Verdict.no({"start_level": k, "steps_explored": n})
        witness[k] = n
    d = max(len(m.rows) for m in seq.stored)
    return Verdict.yes({"positive_after": witness,
                        "wielandt_bound": wielandt_bound(d)})


# ---------------------------------------------------------------------------
# JSON


def to_json(seq):
    if seq.is_eventually_periodic:
        alphabets = [list(m.rows) for m in seq.prefix] + \
                    [list(m.rows) for m in seq.cycle]
        return {"kind": "eventually_periodic",
                "alphabets": alphabets,
                "prefix": [m.to_lists() for m in seq.prefix],
                "cycle": [m.to_lists() for m in seq.cycle]}
    alphabets = [list(m.rows) for m in seq.terms] + [list(seq.terms[-1].cols)]
    return {"kind": "truncated",
            "alphabets": alphabets,
            "terms": [m.to_lists() for m in seq.terms]}


def _json_list(obj, key, item, what, default=None):
    """The list obj[key], each element checked by `item`; ShapeMismatch
    naming `what` when the key is missing or an element is malformed."""
    value = obj.get(key, default)
    if not isinstance(value, list) or not all(item(x) for x in value):
        raise ShapeMismatch("%r must be a list of %s" % (key, what))
    return value


def _is_symbol_list(x):
    return isinstance(x, list) and all(isinstance(a, str) for a in x)


def _is_int_array(x):
    return isinstance(x, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row)
        for row in x)


def from_json(obj):
    if not isinstance(obj, dict):
        raise ShapeMismatch("a sequence must be a JSON object")
    kind = obj.get("kind", "eventually_periodic" if "cycle" in obj else "truncated")
    if kind not in ("eventually_periodic", "truncated"):
        raise ShapeMismatch("unknown kind %r" % (kind,))
    alphs = [tuple(a) for a in _json_list(obj, "alphabets", _is_symbol_list,
                                          "lists of string symbols")]
    matrices = "matrices (lists of rows of integers)"
    if kind == "eventually_periodic":
        prefix_arrays = _json_list(obj, "prefix", _is_int_array, matrices, [])
        cycle_arrays = _json_list(obj, "cycle", _is_int_array, matrices)
        P, T = len(prefix_arrays), len(cycle_arrays)
        if len(alphs) != P + T:
            raise ShapeMismatch("need one alphabet per prefix/cycle matrix")
        mats = []
        for i, arr in enumerate(prefix_arrays + cycle_arrays):
            rows = alphs[i]
            if i < P + T - 1:
                cols = alphs[i + 1]
            else:
                cols = alphs[P]  # cycle closes
            mats.append(GenMatrix.from_lists(rows, cols, arr))
        return EventuallyPeriodic(mats[:P], mats[P:])
    arrays = _json_list(obj, "terms", _is_int_array, matrices)
    if len(alphs) != len(arrays) + 1:
        raise ShapeMismatch("need one alphabet per level incl. final")
    mats = [GenMatrix.from_lists(alphs[i], alphs[i + 1], arr)
            for i, arr in enumerate(arrays)]
    return Truncated(mats)

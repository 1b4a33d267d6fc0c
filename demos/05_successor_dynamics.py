"""The successor map on ordered path spaces, and return-time sums.

Paths are stored lazily (explicit prefix + periodic tail).  The successor
increments the least non-maximal edge; iterating it is an exact odometer
on the path space.  For a base diagram embedded in an ambient one, the
depth-truncated Kac sums of return time x base mass decide the tower mass
numerically alongside the exact verdict.
"""

from adic import (
    successor,
    extremal_path,
    extremal_paths,
    simulate_orbit,
    kac_partial_sum,
    cyclic_return_time,
    CentralMeasure,
    classify_measures,
)
from adic.gallery import chacon, ics, odometer


def main():
    # counting in binary: the dyadic machine from its minimal path
    d = odometer(2)
    p = extremal_path(d, [], "min", "0")
    for n in range(5):
        print("n=%d -> indices %s" % (n, [e[3] for e in p.word(3)]))
        p = successor(p)

    # extremal paths of the Chacon diagram: two minimal, two maximal
    c = chacon()
    mins, maxs = extremal_paths(c, "min"), extremal_paths(c, "max")
    print("minimal tails:", [q.tail_cycle for q in mins])
    print("maximal tails:", [q.tail_cycle for q in maxs])

    # orbit statistics track the distinguished measure
    start = extremal_path(chacon(), [], "min", "1")
    stats = simulate_orbit(start, 500, depth=1)
    print("depth-1 frequencies after 500 steps:")
    for w, f in sorted(stats["frequencies"].items()):
        print("  %s: %s" % (w, f))

    # Kac sums for the middle-thirds base [2] inside the triadic machine
    emb = ics("triadic")
    cls = classify_measures(emb.base_seq)
    mu = CentralMeasure(cls.seq, cls.measures[0].ray)
    print("cyclic return times at depth 1:",
          [cyclic_return_time(emb, ((0, "0", "0", i),)) for i in (0, 2)])
    for depth in (1, 3, 6, 12, 18):
        print("kac partial sum at depth %2d: %s"
              % (depth, kac_partial_sum(emb, mu, depth)))


if __name__ == "__main__":
    main()

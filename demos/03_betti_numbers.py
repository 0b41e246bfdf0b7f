"""Betti numbers from exact coboundary ranks.

The differential is determined by d z* (minus the dual of the bracket
table) and extended as a degree-+1 superderivation.  Cochain spaces are
finite in each degree, so dim H^q = dim C^q - rank d_q - rank d_{q-1},
all over exact rationals.
"""

from heisenberg_cohomology import (SuperElement, SuperSpaceDims, betti_table,
                                   d_element, differential_matrix,
                                   enumerate_basis, make_heisenberg_even,
                                   make_heisenberg_odd)


def main():
    h11 = make_heisenberg_even(1, 1)
    h1 = make_heisenberg_odd(1)

    print("the only generator dual with nonzero d is the central one:")
    for alg in (h11, h1):
        images = [(mono, d_element(alg, SuperElement.from_monomial(mono)))
                  for mono in differential_matrix(alg, 1).domain]
        nonzero = [(m, im) for m, im in images if not im.is_zero()]
        assert len(nonzero) == 1
        z_dual, image = nonzero[0]
        print("  %-7s d %s = %s" % (alg.name, z_dual, image))
    print()

    print("d^2 = 0 at matrix level on h_{1,1}, q <= 4:", end=" ")
    dims = SuperSpaceDims(*h11.superdim)
    print(all(d_element(h11, d_element(h11, SuperElement.from_monomial(mono))).is_zero()
              for q in range(5) for mono in enumerate_basis(dims, q)))
    print()

    for alg, q_max in ((h11, 6), (make_heisenberg_even(2, 2), 6),
                       (h1, 8), (make_heisenberg_odd(2), 8)):
        table = betti_table(alg, q_max)
        print("betti numbers of %s:" % alg.name)
        print("  q:      ", "  ".join("%4d" % r.q for r in table))
        print("  dim C^q:", "  ".join("%4d" % r.dim_cochain for r in table))
        print("  dim Z^q:", "  ".join("%4d" % r.dim_cocycles for r in table))
        print("  dim B^q:", "  ".join("%4d" % r.dim_coboundaries for r in table))
        print("  dim H^q:", "  ".join("%4d" % r.dim_cohomology for r in table))
        print()

    print("note the even-center tables stabilize (pairs cancel in the")
    print("alternating sum) while the odd-center ones keep growing with")
    print("the symmetric powers of the odd duals.")


if __name__ == "__main__":
    main()

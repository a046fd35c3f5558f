"""Hand-checked cases for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py
"""

from fractions import Fraction

import oracles

P3 = (3, [(0, 1), (1, 2)])
K3 = (3, [(0, 1), (0, 2), (1, 2)])
C4 = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def auts(graph):
    return oracles.automorphisms(*graph)


def test_automorphism_groups():
    assert sorted(auts(P3)) == [(0, 1, 2), (2, 1, 0)]
    assert len(auts(K3)) == 6
    assert len(auts(C4)) == 8      # the dihedral group of the square


def test_vertex_orbits():
    assert oracles.vertex_orbits(3, auts(P3)) == {frozenset({0, 2}),
                                                  frozenset({1})}
    assert oracles.vertex_orbits(4, auts(C4)) == {frozenset(range(4))}


def test_burnside_counts():
    # P3: the swap fixes only the centre, so (3^k + 1) / 2 orbits
    assert [oracles.burnside_count(3, auts(P3), k)
            for k in (1, 2, 4)] == [2, 5, 41]
    # K3: S3 orbits on [3]^k are set partitions into at most 3 blocks;
    # for k = 4 that is Bell(4) = 15 less the one with four blocks
    assert [oracles.burnside_count(3, auts(K3), k)
            for k in (1, 2, 4)] == [1, 2, 14]
    # C4: orbitals are distance classes 0, 1 and 2
    assert oracles.burnside_count(4, auts(C4), 2) == 3


def test_catalan_numbers():
    assert [oracles.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_fuss_catalan_numbers():
    assert [oracles.fuss_catalan(k) for k in range(1, 5)] == [1, 3, 12, 55]


def test_tree_closed_walks():
    # the 2-regular tree is the integer line: C(2k, k) closed walks
    assert [oracles.tree_closed_walks(2, n) for n in range(7)] == \
        [1, 0, 2, 0, 6, 0, 20]
    # 3-regular: 3 out-and-back walks; at length 4, 3*3 double
    # out-and-backs plus 3*2 walks down two levels and back
    assert oracles.tree_closed_walks(3, 2) == 3
    assert oracles.tree_closed_walks(3, 4) == 15
    assert oracles.tree_closed_walks(3, 5) == 0


def test_reduces_to_identity():
    assert oracles.reduces_to_identity("")
    assert oracles.reduces_to_identity("abba")
    assert oracles.reduces_to_identity("acca" + "bb")
    assert not oracles.reduces_to_identity("aba")
    assert not oracles.reduces_to_identity("abab")


def test_pointed_hom_counts():
    edge = (2, [(0, 1)])
    triangle = (3, [(0, 1), (1, 2), (0, 2)])
    cherry = (3, [(0, 1), (1, 2)])
    p3 = oracles.adjacency(*P3)
    k3 = oracles.adjacency(*K3)
    # pinned edge: the degree of the image
    assert oracles.pointed_hom_count(*edge, 0, p3, 1) == 2
    assert oracles.pointed_hom_count(*edge, 0, p3, 0) == 1
    assert oracles.pointed_hom_count(*triangle, 0, k3, 2) == 2
    assert oracles.pointed_hom_count(*triangle, 0, p3, 1) == 0
    # a path pinned at an end counts walks of length 2: 2 * 2 in K3
    assert oracles.pointed_hom_count(*cherry, 0, k3, 0) == 4
    # pinned at the middle it counts ordered neighbour pairs: 2 * 2
    assert oracles.pointed_hom_count(*cherry, 1, p3, 1) == 4
    assert oracles.pointed_hom_count(1, [], 0, p3, 2) == 1


def test_classical_haar():
    k3, p3 = auts(K3), auts(P3)
    for e in range(3):
        assert oracles.classical_haar(k3, (e,), (e,), e) == 1
    assert oracles.classical_haar(k3, (0,), (1,), 0) == 1
    # g(0) = 0 and g(1) = 1 leaves only the identity: 1 / |Stab(0)|
    assert oracles.classical_haar(k3, (0, 1), (0, 1), 0) == Fraction(1, 2)
    assert oracles.classical_haar(k3, (0, 0), (0, 1), 0) == 0
    assert oracles.classical_haar(p3, (0,), (2,), 0) == 1
    assert oracles.classical_haar(p3, (0,), (1,), 0) == 0
    # the centre's stabiliser is the whole group
    assert oracles.classical_haar(p3, (0,), (0,), 1) == Fraction(1, 2)


def test_grandparent_parent():
    assert oracles.grandparent_parent("(0|01)") == "(0|0)"
    assert oracles.grandparent_parent("(0|0)") == "(0|)"
    assert oracles.grandparent_parent("(0|)") == "(1|)"
    assert oracles.grandparent_parent("(2|1)") == "(2|)"

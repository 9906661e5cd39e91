"""Hand-checked cases for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

from fractions import Fraction

import oracles


def one_object(elements, mul, name="x"):
    """Composition table of the one-object category of a monoid; the arrow
    "f then g" is g * f."""
    return {"objects": [name], "arrows": list(elements),
            "src": {a: name for a in elements},
            "dst": {a: name for a in elements},
            "identities": {name: elements[0]},
            "compose": {(f, g): mul(g, f) for f in elements for g in elements}}


def perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


S3 = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]


def test_matmul_and_trace():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, Fraction(1, 2)]]
    assert oracles.matmul(a, b) == [[2, 2], [4, 5]]
    assert oracles.trace(oracles.matmul(a, b)) == 7
    assert oracles.trace(oracles.identity(4)) == 4


def test_three_cycle_has_trace_zero():
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert oracles.trace(cycle) == 0
    # its cube is the identity
    cube = oracles.matmul(cycle, oracles.matmul(cycle, cycle))
    assert cube == oracles.identity(3)


def test_group_classes_from_multiplication():
    assert sorted(oracles.group_class_sizes(S3, perm_mul)) == [1, 2, 3]
    c4 = list(range(4))
    assert oracles.group_class_sizes(c4, lambda a, b: (a + b) % 4) \
        == [1, 1, 1, 1]


def test_category_classes_of_s3_and_idempotent():
    assert oracles.category_class_count(one_object(S3, perm_mul)) == 3
    idem = one_object(["1", "e"], lambda g, f: "1" if f == g == "1" else "e")
    assert oracles.category_class_count(idem) == 2


def test_orbits_of_c4_on_cosets_of_c2():
    cosets = [frozenset({0, 2}), frozenset({1, 3})]

    def act(g, c):
        return frozenset((g + x) % 4 for x in c)

    assert oracles.orbit_count(cosets, range(4), act) == 1
    # adding C4 acting on itself gives a second orbit
    points = cosets + list(range(4))

    def act2(g, z):
        return act(g, z) if isinstance(z, frozenset) else (g + z) % 4

    assert oracles.orbit_count(points, range(4), act2) == 2


def test_fixed_points_on_idempotent_representable():
    idem = one_object(["1", "e"], lambda g, f: "1" if f == g == "1" else "e")
    # hom(x, x) = {1, e}; postcomposing with e sends both to e
    assert oracles.fixed_points(idem, ["x"], "e") == 1
    assert oracles.fixed_points(idem, ["x", "x"], "1") == 4
    basis = oracles.representable_basis(idem, ["x"])
    mats = oracles.representable_matrices(idem, basis)
    assert oracles.trace(mats["e"]) == 1


def test_yoneda_endo_is_natural():
    table = one_object(S3, perm_mul)
    summands = ["x", "x"]
    basis = oracles.representable_basis(table, summands)
    mats = oracles.representable_matrices(table, basis)
    coefs = {(0, 1): {(1, 0, 2): 2, (1, 2, 0): -1}, (1, 1): {(0, 1, 2): 3}}
    f = oracles.yoneda_endo(table, summands, basis, coefs)["x"]
    for g in S3:
        assert oracles.matmul(mats[g], f) == oracles.matmul(f, mats[g])


def test_indecomposables_of_composable_pair():
    table = {"objects": ["a", "b", "c"],
             "arrows": ["a", "b", "c", "f", "g", "gf"],
             "src": {"a": "a", "b": "b", "c": "c", "f": "a", "g": "b",
                     "gf": "a"},
             "dst": {"a": "a", "b": "b", "c": "c", "f": "b", "g": "c",
                     "gf": "c"},
             "identities": {"a": "a", "b": "b", "c": "c"},
             "compose": {("f", "g"): "gf", ("a", "f"): "f", ("f", "b"): "f"}}
    assert oracles.indecomposable_count(table) == 2

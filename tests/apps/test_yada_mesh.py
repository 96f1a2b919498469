"""The committed yada meshes (:mod:`repro.apps.stamp.yada_mesh`).

Each entry must be exactly what scipy's Delaunay returns (the oracle in
``yada_mesh_oracle.py``), and, without scipy, a valid Delaunay
triangulation: symmetric adjacency, neighbour rows that share the right
edge, empty circumcircles and Euler's triangle count.
"""

from collections import Counter
from fractions import Fraction

import pytest

from repro.apps.stamp import yada
from repro.apps.stamp.yada_mesh import MESHES
from repro.errors import AppError

SHAPES = sorted(MESHES)
SHAPE_IDS = [f"{n}pts-seed{seed}" for n, seed in SHAPES]


def test_table_holds_every_shape_the_repo_uses():
    assert (48, 13) in MESHES     # make_input's default: Figs. 17, Table 3
    assert (40, 13) in MESHES     # tests/apps/test_stamp.py


def test_unknown_shape_names_the_command_that_prints_it():
    with pytest.raises(AppError, match=r"yada_mesh_oracle\.py 50 7"):
        yada.make_input(n_points=50, seed=7)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_entry_equals_scipy(shape):
    pytest.importorskip("scipy")
    from .yada_mesh_oracle import qhull_mesh

    points, simplices, neighbors = MESHES[shape]
    want_points, want_simplices, want_neighbors = qhull_mesh(*shape)
    assert ([(x.hex(), y.hex()) for x, y in points]
            == [(x.hex(), y.hex()) for x, y in want_points])
    assert simplices == want_simplices
    assert neighbors == want_neighbors


def _orient(a, b, c):
    """Twice the signed area of ``abc``, exactly."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_circle(a, b, c, d):
    """Positive iff ``d`` lies strictly inside the circle through the
    counter-clockwise triangle ``abc`` (exact on Fractions)."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))


def check_mesh(points, simplices, neighbors):
    """Raise AssertionError unless the table is a Delaunay triangulation
    of ``points`` with Qhull's neighbour convention."""
    n_tri = len(simplices)
    assert len(neighbors) == n_tri
    # row j's neighbour is across the edge opposite vertex j; -1 marks an
    # edge no other triangle has (the hull)
    edge_uses = Counter(frozenset(tri[:j] + tri[j + 1:])
                        for tri in simplices for j in range(3))
    hull_vertices = set()
    for t, (tri, row) in enumerate(zip(simplices, neighbors)):
        assert len(set(tri)) == 3
        for j, u in enumerate(row):
            edge = frozenset(tri[:j] + tri[j + 1:])
            if u == -1:
                assert edge_uses[edge] == 1, (t, j)
                hull_vertices |= edge
            else:
                assert set(simplices[u]) & set(tri) == edge, (t, j, u)
                assert t in neighbors[u], (t, u)   # symmetric
    # every point is a vertex, and Euler: 2n - 2 - h triangles
    assert {v for tri in simplices for v in tri} == set(range(len(points)))
    assert n_tri == 2 * len(points) - 2 - len(hull_vertices)
    # empty circumcircles, exactly (Fraction holds each float exactly)
    exact = [(Fraction(x), Fraction(y)) for x, y in points]
    for t, tri in enumerate(simplices):
        a, b, c = (exact[v] for v in tri)
        area = _orient(a, b, c)
        assert area != 0, t
        if area < 0:
            b, c = c, b
        for v, d in enumerate(exact):
            if v not in tri:
                assert _in_circle(a, b, c, d) <= 0, (t, v)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_entry_is_a_delaunay_triangulation(shape):
    check_mesh(*MESHES[shape])


def test_check_rejects_a_point_inside_a_circumcircle():
    points, simplices, neighbors = MESHES[(40, 13)]
    a, b, c = (points[v] for v in simplices[0])
    centroid = ((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3)
    # move a vertex of another triangle into triangle 0
    far = next(v for v in range(len(points)) if v not in simplices[0])
    moved = list(points)
    moved[far] = centroid
    with pytest.raises(AssertionError):
        check_mesh(moved, simplices, neighbors)

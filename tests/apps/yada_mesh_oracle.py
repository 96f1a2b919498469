"""scipy's Delaunay triangulation of yada's random point sets.

The oracle for the committed table :mod:`repro.apps.stamp.yada_mesh`:
numpy and scipy are test-only dependencies, so yada's input generator
reads Qhull's output from the table instead of triangulating at run time.

To add a mesh shape, print its entry and paste it into ``MESHES``::

    python tests/apps/yada_mesh_oracle.py N_POINTS SEED
"""

import sys


def qhull_mesh(n_points, seed):
    """``(points, simplices, neighbors)`` as nested tuples of Python
    floats and ints, exactly as ``scipy.spatial.Delaunay`` returns them
    for ``n_points`` uniform points drawn from ``default_rng(seed)``."""
    import numpy as np
    from scipy.spatial import Delaunay

    pts = np.random.default_rng(seed).random((n_points, 2))
    tri = Delaunay(pts)
    return (tuple((float(x), float(y)) for x, y in pts),
            tuple(tuple(int(v) for v in row) for row in tri.simplices),
            tuple(tuple(int(v) for v in row) for row in tri.neighbors))


def _rows(rows, per_line):
    lines = []
    for i in range(0, len(rows), per_line):
        chunk = rows[i:i + per_line]
        lines.append("            " + " ".join(f"{r!r}," for r in chunk))
    return lines


def format_entry(n_points, seed):
    """The ``MESHES`` entry for one shape, as Python source."""
    points, simplices, neighbors = qhull_mesh(n_points, seed)
    return "\n".join(
        [f"    ({n_points}, {seed}): (",
         "        (  # points",
         *_rows(points, 1),
         "        ),",
         "        (  # simplices",
         *_rows(simplices, 4),
         "        ),",
         "        (  # neighbors",
         *_rows(neighbors, 4),
         "        ),",
         "    ),"])


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: yada_mesh_oracle.py N_POINTS SEED")
    print(format_entry(int(sys.argv[1]), int(sys.argv[2])))

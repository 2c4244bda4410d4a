"""Node-by-node contour quadrature: the test oracle for the panel-stacked rule.

``normality.resolvent_quadrature`` solves the resolvents of a chunk of
Gauss-Legendre panels in one stacked call and adds the weighted terms a
chunk at a time.  This module evaluates the same rule the plain way: one
``np.linalg.solve`` per contour node, each weighted term added in place as
soon as it is formed.  It shares only the rule itself
(``normality._contour_nodes``) with the package.
"""

import numpy as np

from gradmod.normality import _contour_nodes


def node_by_node_quadrature(b, gap, nodes, transforms=(), doublings=0):
    """(P, [[Y, P] for Y in transforms]) by one solve per node, summed in node order."""
    b = np.asarray(b, dtype=complex)
    dim = b.shape[0]
    pts, weights = _contour_nodes(float(np.linalg.norm(b, 2)), gap, nodes,
                                  doublings)
    eye = np.eye(dim, dtype=complex)
    proj = np.zeros_like(b)
    comms = [y @ b - b @ y for y in transforms]
    transformed = [np.zeros_like(b) for _ in transforms]
    for lam, w in zip(pts, weights):
        res = np.linalg.solve(lam * eye - b, eye)
        proj += w * res
        for out, c in zip(transformed, comms):
            out += w * (res @ c @ res)
    factor = 1.0 / (2.0j * np.pi)
    return factor * proj, [factor * t for t in transformed]

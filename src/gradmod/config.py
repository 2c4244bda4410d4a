"""Shared numerical tolerances and diagnostic thresholds.

Every module draws its cutoffs from here so that a single edit retunes the
whole toolkit consistently, except three local constants: the trend noise
floor (``trends``), the spectral-gap margin (``normality``) and the resolvent
oracle tolerance (``cli.cmd_identity``).
"""

# Rank decisions (``linalg._kept``) and eigenvalue zero cuts: values at most
# RANK_TOL_FACTOR * max(sigma_max, the caller's closed-form norm) are zero.
RANK_TOL_FACTOR = 1e-10

# Exact finite-matrix identities (row sums, commutator decompositions, B^2 = 0).
EXACT_TOL = 1e-12

# Blockwise operator identities that compose several products (compression
# identities, Dirac squares).
IDENTITY_TOL = 1e-11

# Span comparisons (principal-angle distances between level subspaces).
SPAN_TOL = 1e-10

# Round trips that chain several rank-revealing factorizations.
ROUNDTRIP_TOL = 1e-9

# Trend classification for truncated series: the mass ratio of the last
# geometric quarter of the summation range to the first.  Truncations cannot
# decide limits, so anything between the two thresholds is "inconclusive".
TREND_CONVERGING = 0.2
TREND_DIVERGING = 0.8

# Summation indices below this are transient and excluded from trend fits.
TREND_BURN_IN = 8

# Contour quadrature for spectral projections.
QUAD_DEFAULT_NODES = 512
QUAD_REFINE_FLOOR = 1e-10
QUAD_MAX_NODES = 1 << 17

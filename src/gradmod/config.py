"""Shared numerical tolerances and diagnostic thresholds.

Every module draws its tolerances and thresholds from here so that a single
edit retunes the whole toolkit consistently.  The constants that live next
to the one piece of code that reads them are:

- ``linalg.TRIANGLE_MIN_WORK`` and ``linalg.TRIANGLE_RANGE``: when a tall
  operand's SVD goes through its QR triangle, and when
  ``submodules.euler_candidates`` takes its candidate basis from a reduced
  QR;
- ``linalg.FROBENIUS_MIN_BOUND``: the smallest bound a Frobenius norm may
  certify a residual against (below it squares may underflow);
- ``normality.GL_ORDER``: points per Gauss-Legendre panel of the contour,
  and ``normality.CHUNK_ENTRIES``: the most complex entries of one stacked
  resolvent temporary (never less than one panel);
- the spectral-gap margin 1e-9 of ``normality.resolvent_projection``
  (an eigenvalue from ``gap * (1 - 1e-9)`` up lies on the far side of the
  gap);
- ``trends.NOISE_FLOOR`` and ``trends.SLOPE_BINS``: the trend noise floor
  and the bin count of the decay-slope fit;
- the 1e-8 tolerance of ``cli.cmd_identity``'s resolvent-vs-eigendecomposition
  check.

``cli`` scales the tolerances of the exact identities that are linear in
the coordinate tuple (invariance, co-invariance) by max(max rho, 1)
(``cli.linear_scale``), and of those quadratic in it by max(max rho^2, 1)
(``cli.tuple_scale``).  Each such residual is printed as
max(||X||_2, bound) with bound = min(RESIDUAL_FLOOR * scale, tolerance)
(``cli.limits``); one whose Frobenius norm is at most the bound reads as
the bound and takes no SVD (``linalg.residual``).
"""

# Rank decisions (``linalg._kept``) and eigenvalue zero cuts: values at most
# RANK_TOL_FACTOR * max(sigma_max, the caller's closed-form norm) are zero.
RANK_TOL_FACTOR = 1e-10

# Exact finite-matrix identities (row sums, commutator decompositions, B^2 = 0).
EXACT_TOL = 1e-12

# Blockwise operator identities that compose several products (compression
# identities, Dirac squares).
IDENTITY_TOL = 1e-11

# The printed floor of a roundoff residual of an exact identity, relative to
# its tolerance scale: a residual at most RESIDUAL_FLOOR * scale (and at most
# its tolerance) prints as that bound, certified by its Frobenius norm.
RESIDUAL_FLOOR = 1e-13

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

# Coordinates over a window: the command line refuses more (C(N+d, d) r), and
# ``linearize.linearize_full`` stops before a pullback to a larger d.S.
# ``weights`` and ``counterexample`` allocate N floats and refuse a larger --N.
MAX_AMBIENT_DIM = 200_000

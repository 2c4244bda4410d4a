"""The layout of a degree-1 operator tuple; this module holds no code.

A tuple T_1, ..., T_d of degree-1 graded operators is a plain dict that maps
each stored level n to one array of shape (d, dim level n+1, dim level n),
complex (real for a Fock tuple), whose entry [k-1] is the block T_k(n).  The
producers are ``StandardModule.coordinate_tuple``,
``StandardModule.fock_tuple`` and ``GradedSubmodule.quotient_tuple``; the
consumers (``koszul.build_koszul`` and ``solve_syzygy``, and in
``normality`` ``self_commutators``, ``schatten_report`` and the identity
checks ``row_sum_residual``, ``commutator_decomposition_residual`` and
``compression_identity_residuals``) read the stacks as they are.

The module stays only because the benchmark's tracer
(``perfbench/tracer.py``) imports every layer module by name, this one
included.
"""

"""The layout of a degree-1 operator tuple; this module holds no code.

A tuple T_1, ..., T_d of degree-1 graded operators is a plain dict that maps
each stored level n to one complex array of shape (d, dim level n+1,
dim level n), whose entry [k-1] is the block T_k(n).  The producers are
``StandardModule.coordinate_tuple`` and ``QuotientModule.coordinate_tuple``;
the consumers (``koszul.build_koszul``, ``koszul.solve_syzygy``,
``normality.self_commutators`` and ``normality.schatten_report``) read the
stacks as they are.

The module stays only because the benchmark's tracer
(``perfbench/tracer.py``) imports every layer module by name, this one
included.
"""

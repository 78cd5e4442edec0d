"""Vectorized batch kernels: operate-on-compressed execution (section 6.1).

    The EE's implementation is heavily optimized to reduce the number
    of function calls [...] Vertica operates on the encoded data
    whenever possible.  (section 6.1)

This package is the execution engine's one way to compute over a block
of :mod:`repro.columnar` vectors (which keep a block's encoded
representation alive across operators) and the selections describing
the rows a predicate kept:

* :mod:`.predicates` — a compiler from the expression tree to
  vectorized predicate kernels (dictionary comparisons test each
  dictionary entry once, RLE predicates test each run once, sorted
  columns binary-search, any other shape a mask over the block);
* :mod:`.aggregate` — GroupBy/aggregate kernels (RLE run arithmetic,
  dictionary-keyed accumulation, bulk folds over plain columns).

There is no second engine to fall back to: every predicate compiles
and every aggregation shape folds here.  The tests hold the kernels to
plain-Python oracles of their own.
"""

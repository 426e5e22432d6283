"""Reference models the tests use as oracles for the production fast paths.

Nothing under ``src/`` imports these.  They materialise every object the
hardware would see (pack units, packs, compressed rows) or compute every
distance the long way (a float64 GEMM over all rows), so they are slow
but easy to check by hand.
"""

"""Reference models the tests use as oracles for the production fast paths.

Nothing under ``src/`` imports these.  They materialise every object the
hardware would see (pack units, packs, compressed rows), so they are
slow but easy to check by hand.
"""

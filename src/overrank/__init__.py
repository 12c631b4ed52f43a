"""overrank: an exact q-series engine and verification harness for
overpartition rank-difference identities.

The package builds every generating function, infinite product and
generalized Lambert series in the rank-difference circle of identities with
exact rational arithmetic, and machine-verifies each identity coefficient by
coefficient to a configurable truncation order, cross-checked against a
combinatorial counting oracle.

Every name has one home, its module, and is imported from there (``from
overrank.combinat import nbar``); the package itself binds only
``__version__``.  The command line is ``overrank.cli``.
"""

__version__ = "0.1.0"

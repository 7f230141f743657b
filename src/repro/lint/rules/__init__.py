"""Builtin rule modules.

Importing this package registers every builtin rule with the registry; a new
rule module only needs to be imported here to join ``--list-rules``, the
engine and the fixture-driven test matrix.
"""

from repro.lint.rules import api_contracts, determinism, hash_order

__all__ = ["api_contracts", "determinism", "hash_order"]

"""A parsed statement's identity for the plan cache: its normalized text.

The cache key must identify *what a statement computes*, not how it was
typed.  The normal form is :func:`repro.tsql.unparse.unparse_statement`'s
text — the ``statement:`` line EXPLAIN prints — and the fingerprint is a
digest of it: ``select x from t`` and ``SELECT  x  FROM t`` render alike and
share an entry, and ``EXPLAIN <q>`` reuses the plan cached for ``<q>``.
Parameter markers render as ``?`` (``WHERE x = ?`` with different bound
constants is *one* statement shape), while inline literals render as
themselves — ``WHERE x = 1``, ``x = 1.0`` and ``x = '1'`` are distinct
statements with potentially different optimal plans.

So the key is sound exactly when the parse ∘ unparse round trip holds (two
statements render alike only if they parse alike), the property
``tests/test_tsql_roundtrip.py`` checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Tuple as PyTuple

from ..tsql.ast import Statement
from ..tsql.unparse import unparse_statement

#: Number of hex digits kept from the SHA-256 digest.  64 bits of digest is
#: far beyond what a plan cache holding thousands of entries can collide on,
#: and keeps fingerprints readable in EXPLAIN output and logs.
FINGERPRINT_HEX_DIGITS = 16


def normalize_statement(statement: Statement) -> PyTuple[str, str]:
    """``(normalized text, fingerprint)`` of a parsed statement.

    The ``EXPLAIN``/``ANALYZE`` prefix is dropped first — it asks for a
    different *presentation* of the same plan, so explain output always
    reflects (and populates) the entry the plain statement would use.
    """
    if statement.explain or statement.analyze:
        statement = replace(statement, explain=False, analyze=False)
    text = unparse_statement(statement)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()[:FINGERPRINT_HEX_DIGITS]


def statement_fingerprint(statement: Statement) -> str:
    """A stable hex fingerprint of a parsed statement (see :func:`normalize_statement`)."""
    return normalize_statement(statement)[1]

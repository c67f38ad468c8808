"""Re-export of :class:`repro.core.columnar.ColumnBatch` for the ledger.

The batch format lives in :mod:`repro.core.columnar`, next to the operator
set both engines run on.  This module remains only because the frozen
benchmark (``benchmarks/ledger/replay.py``) imports ``ColumnBatch`` from
here; nothing in ``src/`` or ``tests/`` should.
"""

from ..core.columnar import ColumnBatch

__all__ = ["ColumnBatch"]

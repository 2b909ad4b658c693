"""Synthetic workloads reproducing the paper's experimental setup (§5.1).

- :mod:`repro.workloads.synthetic` — Table 1's synthetic tables and
  database combinations (root → tables → rows → cells, all-integer
  attributes), plus the generator for the §5.2 streaming scale test.
- :mod:`repro.workloads.operations` — Table 2's complex operations:
  Setup A (update sweeps), Setup B (homogeneous 500-op batches), and
  Setup C (delete/insert/update mixes).
- :mod:`repro.workloads.signed` — the seeded signed world of ``n``
  objects x ``m`` updates the benchmarks and the CLI's synthetic
  commands run on.
"""

from repro.workloads.operations import (
    SETUP_B_OPERATIONS,
    SETUP_C_MIXES,
    OperationMix,
    apply_mixed_operations,
    apply_row_deletes,
    apply_row_inserts,
    apply_update_sweep,
    setup_a_points,
)
from repro.workloads.signed import signed_world
from repro.workloads.synthetic import (
    PAPER_COMBINATIONS,
    PAPER_TABLES,
    TableSpec,
    build_forest,
    node_count,
    populate_session,
    tables_for,
    title_table_rows,
)

__all__ = [
    "TableSpec",
    "PAPER_TABLES",
    "PAPER_COMBINATIONS",
    "build_forest",
    "populate_session",
    "node_count",
    "tables_for",
    "title_table_rows",
    "OperationMix",
    "SETUP_B_OPERATIONS",
    "SETUP_C_MIXES",
    "setup_a_points",
    "apply_update_sweep",
    "apply_row_inserts",
    "apply_row_deletes",
    "apply_mixed_operations",
    "signed_world",
]

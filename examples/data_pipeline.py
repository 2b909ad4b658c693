#!/usr/bin/env python
"""A multi-stage data pipeline using the extension features.

A sensor network feeds a nightly aggregation pipeline.  This example
exercises the features layered on top of the paper's core scheme:

1. white-box **notes** documenting each stage (signed, tamper-evident);
2. **incremental verification** — the downstream consumer verifies each
   nightly drop from a checkpoint instead of re-checking all history;
3. **selective disclosure** — one sensor's raw values are withheld from
   the shipped provenance without breaking a single signature;
4. **compaction** — decommissioned sensors' chains are purged once no
   surviving object derives from them;
5. **DOT / OPM export** — the provenance DAG for other tools.

Run:  python examples/data_pipeline.py
"""

from repro import TamperEvidentDatabase
from repro.audit.dot import to_dot
from repro.core.redaction import redact_object_values
from repro.core.verifier import Verifier
from repro.provenance.compaction import compact
from repro.provenance.opm import to_opm
from repro.provenance.snapshot import SubtreeSnapshot
from repro.provenance.store import Checkpoint

db = TamperEvidentDatabase(key_bits=512)
ops = db.session(db.enroll("ops-team"))
etl = db.session(db.enroll("etl-service"))

# --- stage 1: sensors report readings --------------------------------------
for sensor, reading in (("sensor-a", 21.5), ("sensor-b", 22.1), ("sensor-c", 19.8)):
    ops.insert(sensor, reading, note="initial calibration reading")

# --- stage 2: the ETL service aggregates the nightly roll-up ----------------
etl.aggregate(["sensor-a", "sensor-b", "sensor-c"], "rollup-night1",
              note="nightly mean pipeline v2.3")

# --- the consumer fully verifies the first drop, then checkpoints -----------
consumer_keystore = db.keystore()
verifier = Verifier(consumer_keystore)
first = db.ship("rollup-night1")
report = verifier.verify(first.snapshot, first.records, "rollup-night1")
print("first drop      :", report.summary())
checkpoint = Checkpoint.from_records("rollup-night1", first.records)
print("checkpoint      : seq", checkpoint.seq_id)

# --- stage 3: a correction lands; the consumer verifies incrementally -------
etl.update("rollup-night1", None, note="re-run after late sensor-b data")
snapshot = SubtreeSnapshot.capture(db.store, "rollup-night1")
new_records = [
    r for r in db.provenance_of("rollup-night1") if r.seq_id > checkpoint.seq_id
]
incremental = verifier.verify(snapshot, new_records, resume=checkpoint)
print("incremental drop:", incremental.summary(),
      f"({incremental.records_checked} new record(s) checked)")
assert incremental.ok

# --- stage 4: ship with sensor-b's raw values withheld ----------------------
shipment = db.ship("rollup-night1")
redacted = redact_object_values(shipment, "sensor-b")
redacted_report = redacted.verify_with_ca(db.ca.public_key)
print("redacted drop   :", redacted_report.summary())
assert redacted_report.ok
withheld = [
    state
    for record in redacted.records
    for state in (*record.inputs, record.output)
    if state.object_id == "sensor-b"
]
assert all(not state.has_value for state in withheld)
print(f"                  sensor-b values withheld in {len(withheld)} state(s); "
      "all signatures intact")

# --- stage 5: decommission a sensor and compact its chain -------------------
ops.insert("sensor-temp", 3.2)          # a short-lived test sensor
ops.update("sensor-temp", 3.3)
ops.delete("sensor-temp")               # never aggregated: safe to purge
stats = compact(db.provenance_store, db.store)
print("compaction      :", stats)
assert db.verify("rollup-night1").ok    # survivors unaffected

# --- stage 6: exports --------------------------------------------------------
dot = to_dot(db.dag(), "rollup-night1", include_notes=True)
opm = to_opm(db.provenance_object("rollup-night1"))
print(f"exports         : DOT graph ({len(dot.splitlines())} lines), "
      f"OPM ({len(opm['artifacts'])} artifacts, {len(opm['processes'])} processes)")
print("\nDOT preview:")
print("\n".join(dot.splitlines()[:8]) + "\n  ...")

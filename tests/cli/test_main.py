"""End-to-end tests of the CLI commands (in-process, via main())."""

import json

import pytest

from repro.cli.main import main, parse_value


@pytest.fixture
def lab(tmp_path):
    path = str(tmp_path / "lab")
    assert main(["init", "--path", path, "--key-bits", "512"]) == 0
    assert main(["-w", path, "enroll", "alice"]) == 0
    assert main(["-w", path, "enroll", "bob"]) == 0
    return path


def run(lab, *argv):
    return main(["-w", lab, *argv])


class TestParseValue:
    @pytest.mark.parametrize("text,expected", [
        ("42", 42),
        ("-1", -1),
        ("3.5", 3.5),
        ("true", True),
        ("False", False),
        ("null", None),
        (None, None),
        ("hello", "hello"),
        ("12abc", "12abc"),
    ])
    def test_parsing(self, text, expected):
        assert parse_value(text) == expected


class TestCommands:
    def test_full_lifecycle(self, lab, capsys):
        assert run(lab, "insert", "report", "draft", "--as", "alice") == 0
        assert run(lab, "update", "report", "final", "--as", "bob",
                   "--note", "editorial pass") == 0
        assert run(lab, "show", "report") == 0
        out = capsys.readouterr().out
        assert "insert" in out and "update" in out
        assert run(lab, "verify", "report") == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_participants_listing(self, lab, capsys):
        assert run(lab, "participants") == 0
        assert capsys.readouterr().out.split() == ["alice", "bob"]

    def test_aggregate_and_lineage(self, lab, capsys):
        run(lab, "insert", "a", "1", "--as", "alice")
        run(lab, "insert", "b", "2", "--as", "bob")
        assert run(lab, "aggregate", "c", "a", "b", "--as", "alice") == 0
        assert run(lab, "lineage", "c") == 0
        out = capsys.readouterr().out
        assert "non-linear" in out

    def test_objects(self, lab, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        assert run(lab, "objects") == 0
        assert "x" in capsys.readouterr().out

    def test_history(self, lab, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob", "--note", "bump")
        capsys.readouterr()
        assert run(lab, "history", "x") == 0
        out = capsys.readouterr().out
        assert "#0 insert by alice: 1" in out
        assert "#1 update by bob: 2" in out and "bump" in out

    def test_history_unknown_object(self, lab, capsys):
        assert run(lab, "history", "ghost") == 2

    def test_audit(self, lab, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        assert run(lab, "audit", "x") == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "history of x" in out

    def test_insert_with_parent_and_delete(self, lab):
        run(lab, "insert", "t", "--as", "alice")
        assert run(lab, "insert", "t/c", "5", "--parent", "t", "--as", "alice") == 0
        assert run(lab, "verify", "t") == 0
        assert run(lab, "delete", "t/c", "--as", "bob") == 0
        assert run(lab, "verify", "t") == 0

    def test_errors_exit_2(self, lab, capsys):
        assert run(lab, "update", "ghost", "1", "--as", "alice") == 2
        assert "error:" in capsys.readouterr().err
        assert run(lab, "insert", "x", "1", "--as", "nobody") == 2

    def test_init_twice_fails(self, lab):
        assert main(["init", "--path", lab]) == 2

    def test_sql_roundtrip(self, lab, capsys):
        assert run(lab, "sql", "CREATE TABLE t (a, b)", "--as", "alice") == 0
        assert run(lab, "sql",
                   "INSERT INTO t (a, b) VALUES (1, 'x')", "--as", "alice") == 0
        assert run(lab, "sql", "UPDATE t SET a = 2 WHERE rowid = 0",
                   "--as", "bob", "--note", "fixup") == 0
        capsys.readouterr()
        assert run(lab, "sql", "SELECT a, b FROM t") == 0
        out = capsys.readouterr().out
        assert "2" in out and "'x'" in out
        assert run(lab, "verify", "db") == 0

    def test_sql_write_requires_participant(self, lab, capsys):
        assert run(lab, "sql", "CREATE TABLE t (a)") == 2
        assert "--as" in capsys.readouterr().err

    def test_sql_read_on_missing_root(self, lab, capsys):
        assert run(lab, "sql", "SELECT * FROM t") == 2

    def test_sql_syntax_error(self, lab, capsys):
        assert run(lab, "sql", "DROP TABLE t", "--as", "alice") == 2
        assert "error:" in capsys.readouterr().err

    def test_anchor_and_verify(self, lab, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob")
        assert run(lab, "anchor", "x") == 0
        assert "anchored 'x' at seq 1" in capsys.readouterr().out
        assert run(lab, "verify", "x", "--anchors") == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_anchors_writes_nothing(self, lab):
        """Checking anchors reads only the log and the witness's public
        key: on a workspace that never anchored, no key or log appears."""
        from pathlib import Path

        run(lab, "insert", "x", "1", "--as", "alice")
        before = sorted(str(p) for p in Path(lab).rglob("*"))
        assert run(lab, "verify", "x", "--anchors") == 0
        assert sorted(str(p) for p in Path(lab).rglob("*")) == before

    def test_anchor_detects_store_truncation(self, lab, capsys):
        """Truncating the provenance database behind the system's back is
        caught by the anchored checksum."""
        import sqlite3

        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob")
        run(lab, "anchor", "x")
        # An attacker with store access erases the anchored record...
        conn = sqlite3.connect(f"{lab}/provenance.db")
        conn.execute("DELETE FROM provenance WHERE object_id = 'x' AND seq_id = 1")
        conn.commit()
        conn.close()
        # ...and rewrites the data to match the surviving history.
        conn = sqlite3.connect(f"{lab}/backend.db")
        from repro.model.values import encode_value

        conn.execute(
            "UPDATE nodes SET value = ? WHERE object_id = 'x'",
            (encode_value(1),),
        )
        conn.commit()
        conn.close()
        capsys.readouterr()
        assert run(lab, "verify", "x") == 0  # plain verification fooled
        assert run(lab, "verify", "x", "--anchors") == 1  # anchor catches it
        assert "R7" in capsys.readouterr().out

    def test_witness_tick_feeds_the_workspace_anchor_log(
        self, lab, capsys, monkeypatch, tmp_path
    ):
        """`trust witness-tick` and `trust audit` use the workspace log that
        `anchor` and `verify --anchors` use: after a truncation both exit
        1, and nothing is written outside the workspace."""
        import sqlite3
        from pathlib import Path

        monkeypatch.chdir(tmp_path)
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob")
        assert run(lab, "trust", "witness-tick") == 0
        assert "1 new anchor(s)" in capsys.readouterr().out
        assert run(lab, "trust", "audit") == 0
        conn = sqlite3.connect(f"{lab}/provenance.db")
        conn.execute("DELETE FROM provenance WHERE object_id = 'x' AND seq_id = 1")
        conn.commit()
        conn.close()
        capsys.readouterr()
        assert run(lab, "verify", "x", "--anchors") == 1
        assert "R7" in capsys.readouterr().out
        assert run(lab, "trust", "audit", "--json") == 1
        audit = json.loads(capsys.readouterr().out)
        assert audit["entries"] == 1 and audit["mismatches"][0][:2] == ["x", 1]
        assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["lab"]

    def test_dot_export(self, lab, capsys, tmp_path):
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob", "--note", "fixup")
        capsys.readouterr()
        assert run(lab, "dot", "x", "--notes") == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph provenance")
        assert "fixup" in out
        target = str(tmp_path / "g.dot")
        assert run(lab, "dot", "x", "-o", target) == 0
        assert open(target).read().startswith("digraph")

    def test_lineage_and_dot_match_whole_store_dag(self, lab, capsys):
        from pathlib import Path

        from repro.audit.dot import to_dot
        from repro.cli.workspace import Workspace
        from repro.provenance.dag import ProvenanceDAG
        from repro.query.lineage import lineage_summary

        run(lab, "insert", "a", "1", "--as", "alice")
        run(lab, "insert", "b", "2", "--as", "bob")
        run(lab, "insert", "unrelated", "3", "--as", "bob")
        run(lab, "update", "a", "4", "--as", "bob")
        run(lab, "aggregate", "c", "a", "b", "--as", "alice")
        run(lab, "update", "a", "5", "--as", "alice")
        capsys.readouterr()
        assert run(lab, "lineage", "c") == 0
        assert run(lab, "dot", "c") == 0
        out = capsys.readouterr().out
        with Workspace(Path(lab)) as ws:
            full = ProvenanceDAG(ws.database().provenance_store.all_records())
            assert out == f"{lineage_summary(full, 'c')}\n{to_dot(full, 'c')}\n"

    def test_shell_session(self, lab, capsys, monkeypatch):
        import io

        script = "\n".join(
            [
                "CREATE TABLE t (a)",
                "INSERT INTO t (a) VALUES (7)",
                ".tables",
                "SELECT a FROM t",
                "DROP TABLE t",  # dialect error: shell keeps going
                ".verify",
                ".exit",
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(script + "\n"))
        assert run(lab, "shell", "--as", "alice") == 0
        captured = capsys.readouterr()
        assert "t" in captured.out
        assert "7" in captured.out
        assert "VERIFIED" in captured.out
        assert "error:" in captured.err

    def test_shell_eof_exits(self, lab, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run(lab, "shell", "--as", "alice") == 0

    def test_shell_help(self, lab, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(".help\n.exit\n"))
        run(lab, "shell", "--as", "alice")
        assert ".tables" in capsys.readouterr().out

    def test_lint(self, lab, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob")
        assert run(lab, "lint") == 0
        assert "LINT OK" in capsys.readouterr().out


class TestShipments:
    def test_ship_and_verify_roundtrip(self, lab, tmp_path, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        run(lab, "update", "x", "2", "--as", "bob")
        out_file = str(tmp_path / "x.shipment.json")
        assert run(lab, "ship", "x", "-o", out_file) == 0
        assert run(lab, "verify-shipment", out_file) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_shipment_with_exported_ca_key(self, lab, tmp_path, capsys):
        run(lab, "insert", "x", "1", "--as", "alice")
        out_file = str(tmp_path / "x.json")
        key_file = str(tmp_path / "ca.json")
        run(lab, "ship", "x", "-o", out_file)
        assert run(lab, "export-ca-key", "-o", key_file) == 0
        assert run(lab, "verify-shipment", out_file, "--ca-key", key_file) == 0

    def test_tampered_shipment_fails_verification(self, lab, tmp_path, capsys):
        run(lab, "insert", "x", "secret", "--as", "alice")
        out_file = str(tmp_path / "x.json")
        run(lab, "ship", "x", "-o", out_file)
        data = json.loads(open(out_file).read())
        from repro.model.values import encode_value

        data["snapshot"]["nodes"][0]["value"] = encode_value("forged").hex()
        open(out_file, "w").write(json.dumps(data))
        assert run(lab, "verify-shipment", out_file) == 1
        assert "TAMPERING" in capsys.readouterr().out


class TestStatsAndTrace:
    """`stats` and `trace` run a seeded synthetic workload — no workspace."""

    def test_stats_table(self, capsys):
        assert main(["stats", "--objects", "3", "--updates", "1"]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "crypto.sign.count{scheme=rsa-pkcs1v15}" in out
        assert "db.rng.seed" in out

    def test_stats_json_snapshot(self, capsys):
        assert main(["stats", "--objects", "3", "--updates", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gauges"]["db.rng.seed"] == 42
        assert data["counters"]["verify.runs"] == 1

    def test_stats_prometheus_to_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "metrics.prom")
        assert main(["stats", "--objects", "3", "--updates", "1",
                     "--prometheus", "-o", out_file]) == 0
        text = open(out_file).read()
        assert "# TYPE repro_verify_runs_total counter" in text
        assert "repro_db_rng_seed 42" in text

    def test_stats_seed_changes_metrics_identically(self, capsys):
        """Same seed twice -> byte-identical JSON counter sections."""
        main(["stats", "--json", "--seed", "7"])
        first = json.loads(capsys.readouterr().out)
        main(["stats", "--json", "--seed", "7"])
        second = json.loads(capsys.readouterr().out)
        assert first["counters"] == second["counters"]
        assert first["gauges"] == second["gauges"]

    def test_stats_leaves_observability_disabled(self):
        from repro import obs

        main(["stats", "--objects", "2", "--updates", "1", "--json"])
        assert not obs.OBS.enabled and not obs.OBS.tracing

    def test_trace_renders_tree(self, capsys):
        assert main(["trace", "--objects", "3", "--updates", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verify (")
        assert "verify.chain" in out
        assert "ms" in out

    def test_trace_json(self, capsys):
        assert main(["trace", "--objects", "2", "--updates", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "verify"
        assert any(c["name"] == "verify.chain" for c in data["children"])

    def test_trace_parallel_workers(self, capsys):
        assert main(["trace", "--objects", "4", "--updates", "1",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "verify.chain" in out


class TestDashAndAlerts:
    """`repro dash` / `repro alerts tail` against an in-process server."""

    @pytest.fixture
    def live(self):
        from repro import obs
        from repro.service import ProvenanceHTTPServer, ServiceClient, ServiceConfig

        obs.enable(reset=True)
        obs.OBS.tracing = False
        log = obs.enable_events()
        server = ProvenanceHTTPServer(
            config=ServiceConfig(seed=11, key_bits=512)
        )
        server.start_background()
        admin = ServiceClient(server.base_url, token=server.service.admin_token)
        tenant = ServiceClient(
            server.base_url, token=admin.issue_key("t1")["token"]
        )
        tenant.insert("A", 1)
        yield server, admin, log
        server.stop()
        obs.disable_events()
        obs.disable(reset=True)

    def test_dash_once_renders_fleet_table(self, live, capsys):
        server, admin, _ = live
        assert main(["dash", "--url", server.base_url,
                     "--token", admin.token, "--once"]) == 0
        out = capsys.readouterr().out
        assert "health=ok" in out
        assert "tenant" in out and "t1" in out
        assert "p99" in out

    def test_dash_once_json(self, live, capsys):
        server, admin, _ = live
        assert main(["dash", "--url", server.base_url,
                     "--token", admin.token, "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["health"] == "ok"
        assert "t1" in snap["tenants"]
        assert snap["tenants"]["t1"]["records"] >= 1

    def test_dash_ticks_compute_request_rate(self, live, capsys):
        server, admin, _ = live
        assert main(["dash", "--url", server.base_url, "--token", admin.token,
                     "--ticks", "2", "--interval", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("health=ok") == 2
        assert "req/s=" in out  # second frame has a delta to rate

    def test_dash_non_admin_token_fails(self, live, capsys):
        server, _, _ = live
        assert main(["dash", "--url", server.base_url,
                     "--token", "not-a-key", "--once"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_dash_unreachable_server_fails(self, capsys):
        assert main(["dash", "--url", "http://127.0.0.1:9",
                     "--token", "x", "--once"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_client_unreachable_server_fails(self, capsys):
        assert main(["client", "--url", "http://127.0.0.1:9",
                     "objects"]) == 1
        assert capsys.readouterr().err.startswith("error: http://127.0.0.1:9: ")

    def test_alerts_tail_empty_stream_exits_zero(self, live, capsys):
        server, admin, _ = live
        assert main(["alerts", "tail", "--url", server.base_url,
                     "--token", admin.token]) == 0
        assert capsys.readouterr().out == ""

    def test_alerts_tail_tampering_exits_one(self, live, capsys):
        server, admin, log = live
        log.emit("alert", rule="tamper", severity="critical",
                 message="R1 failed", tampering=True, tenant="t1")
        assert main(["alerts", "tail", "--url", server.base_url,
                     "--token", admin.token]) == 1
        out = capsys.readouterr().out
        assert "tamper" in out and "TAMPERING" in out

    def test_alerts_tail_json_lines(self, live, capsys):
        server, admin, log = live
        log.emit("service.health", tenant="t1",
                 previous="ok", health="degraded")
        assert main(["alerts", "tail", "--url", server.base_url,
                     "--token", admin.token, "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[-1]["kind"] == "service.health"
        assert events[-1]["fields"]["health"] == "degraded"

    def test_alerts_tail_since_skips_old_events(self, live, capsys):
        server, admin, log = live
        old = log.emit("alert", rule="old")
        new = log.emit("alert", rule="new")
        assert main(["alerts", "tail", "--url", server.base_url, "--token",
                     admin.token, "--since", str(old.seq)]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "old" not in out
        assert f"#{new.seq}" in out

    def test_alerts_tail_bad_token_exits_two(self, live, capsys):
        server, _, _ = live
        assert main(["alerts", "tail", "--url", server.base_url,
                     "--token", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

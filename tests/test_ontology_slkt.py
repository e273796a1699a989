"""Unit tests for the static local knowledge templates."""

from repro.ontology.slkt import build_slkt


def test_build_from_healthy_host(database, frontend):
    slkt = build_slkt(database.host)
    assert slkt.hostname == "db01"
    assert slkt.hardware.model == "sun-e4500"
    tmpl = slkt.apps[database.name]
    assert tmpl.port == database.port
    assert tmpl.app_type == "database"
    # process names and counts captured
    assert ("oracle_pmon", 1) in tmpl.processes
    assert tmpl.startup_sequence == ("mount", "recover", "open")


def test_dependencies_captured(frontend):
    slkt = build_slkt(frontend.host)
    tmpl = slkt.apps[frontend.name]
    assert ("db01", frontend.backend.name) in tmpl.depends_on


def test_check_clean_host(database):
    slkt = build_slkt(database.host)
    assert slkt.check(database.host) == []


def test_check_detects_app_down(database):
    slkt = build_slkt(database.host)
    database.crash("x")
    kinds = {d.kind for d in slkt.check(database.host)}
    assert "app-down" in kinds


def test_check_detects_missing_processes(database):
    slkt = build_slkt(database.host)
    victim = database.host.ptable.by_command("oracle_server")[0]
    database.host.ptable.kill(victim.pid)
    devs = slkt.check(database.host)
    assert any(d.kind == "proc-count" and "oracle_server" in d.detail
               for d in devs)


def test_check_detects_degraded_hardware(database):
    from repro.cluster.hardware import ComponentKind
    slkt = build_slkt(database.host)
    database.host.inventory.of_kind(ComponentKind.MEMORY_BANK)[0].fail(0.0)
    devs = slkt.check(database.host)
    assert any(d.kind == "hw-degraded" and d.subject == "memory"
               for d in devs)


def test_check_detects_missing_app(database):
    slkt = build_slkt(database.host)
    del database.host.apps[database.name]
    devs = slkt.check(database.host)
    assert any(d.kind == "missing-app" for d in devs)


def test_check_detects_offline_filesystem(database):
    slkt = build_slkt(database.host)
    database.host.fs.mounts["/apps"].online = False
    devs = slkt.check(database.host)
    assert any(d.kind == "fs-missing" for d in devs)

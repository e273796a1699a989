"""Unit tests for the process table."""

from repro.cluster.process import ProcState, ProcessTable


def test_spawn_assigns_unique_pids():
    pt = ProcessTable("h")
    a = pt.spawn("root", "initd")
    b = pt.spawn("root", "initd")
    assert a.pid != b.pid
    assert len(pt) == 2


def test_lookup_by_command_and_user():
    pt = ProcessTable("h")
    pt.spawn("oracle", "ora_pmon")
    pt.spawn("oracle", "ora_dbwr")
    pt.spawn("www", "httpd")
    assert len(pt.by_command("ora_pmon")) == 1
    assert len(pt.by_user("oracle")) == 2
    assert pt.alive("httpd")
    assert not pt.alive("sendmail")


def test_kill_updates_indices():
    pt = ProcessTable("h")
    p = pt.spawn("u", "job")
    assert pt.kill(p.pid)
    assert not pt.kill(p.pid)
    assert pt.by_command("job") == []
    assert pt.get(p.pid) is None


def test_kill_command_exact_match_only():
    pt = ProcessTable("h")
    pt.spawn("u", "job")
    pt.spawn("u", "job")
    pt.spawn("u", "jobber")
    assert pt.kill_command("job") == 2
    assert pt.alive("jobber")


def test_accounting_sums():
    pt = ProcessTable("h")
    pt.spawn("u", "a", cpu_pct=50.0, mem_mb=100.0)
    pt.spawn("u", "b", cpu_pct=25.0, mem_mb=50.0)
    blocked = pt.spawn("u", "c", cpu_pct=10.0, mem_mb=10.0)
    assert pt.update(blocked.pid, state=ProcState.BLOCKED)
    assert pt.total_cpu_pct() == 75.0        # blocked not counted
    assert pt.total_mem_mb() == 160.0
    # only genuinely busy processes queue for a CPU (25% is an idle-ish
    # daemon, below RUNNABLE_CPU_THRESHOLD)
    assert pt.runnable() == 1
    assert pt.blocked() == 1


def test_clear_wipes_everything():
    pt = ProcessTable("h")
    pt.spawn("u", "a")
    pt.clear()
    assert len(pt) == 0
    assert pt.by_command("a") == []


def test_microstate_advance():
    pt = ProcessTable("h")
    busy = pt.spawn("u", "busy", cpu_pct=100.0)
    idle = pt.spawn("u", "idle", cpu_pct=0.0)
    pt.advance(10.0)
    assert busy.micro.user + busy.micro.system == 10.0
    assert idle.micro.sleep == 10.0
    # advancing to the same time is a no-op
    pt.advance(10.0)
    assert busy.micro.total() == 10.0


def test_blocked_accumulates_wait_io():
    pt = ProcessTable("h")
    p = pt.spawn("u", "d")
    pt.update(p.pid, state=ProcState.BLOCKED)
    pt.advance(5.0)
    assert p.micro.wait_io == 5.0


def test_matching_predicate():
    pt = ProcessTable("h")
    pt.spawn("u", "big", mem_mb=500.0)
    pt.spawn("u", "small", mem_mb=1.0)
    hogs = pt.matching(lambda p: p.mem_mb > 100)
    assert [p.command for p in hogs] == ["big"]

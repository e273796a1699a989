"""Unit tests for the hardware inventory."""

from repro.cluster.hardware import (ComponentKind, ComponentState,
                                    HardwareInventory)
from repro.cluster.specs import spec


def _inv(model="sun-e4500"):
    return HardwareInventory(spec(model))


def test_inventory_built_from_spec():
    inv = _inv()
    assert len(inv.of_kind(ComponentKind.DISK)) == spec("sun-e4500").disks
    assert len(inv.of_kind(ComponentKind.CPU_BOARD)) == 2   # 8 cpus / 4
    assert {c.state for c in inv.components} == {ComponentState.OK}
    assert not inv.fatal()


def test_degrade_after_repeated_errors():
    inv = _inv()
    board = inv.of_kind(ComponentKind.CPU_BOARD)[0]
    for _ in range(3):
        board.degrade(now=1.0)
    assert board.state is ComponentState.DEGRADED
    assert not inv.fatal()      # degraded is not failed


def test_effective_capacity_shrinks_with_failures():
    inv = _inv()
    full_cpus = inv.effective_cpus()
    inv.of_kind(ComponentKind.CPU_BOARD)[0].fail(now=0.0)
    assert inv.effective_cpus() < full_cpus
    full_ram = inv.effective_ram_mb()
    inv.of_kind(ComponentKind.MEMORY_BANK)[0].fail(now=0.0)
    assert inv.effective_ram_mb() < full_ram


def test_fatal_conditions():
    inv = _inv()
    inv.of_kind(ComponentKind.SYSTEM_BOARD)[0].fail(now=0.0)
    assert inv.fatal()

    inv2 = _inv()
    for board in inv2.of_kind(ComponentKind.CPU_BOARD):
        board.fail(now=0.0)
    assert inv2.fatal()

    inv3 = _inv()
    inv3.of_kind(ComponentKind.DISK)[0].fail(now=0.0)
    assert not inv3.fatal()


def test_status_report_names_states():
    inv = _inv()
    inv.of_kind(ComponentKind.DISK)[1].fail(now=0.0)
    report = inv.status_report()
    assert report["disk1"] == "failed"
    assert report["disk0"] == "ok"

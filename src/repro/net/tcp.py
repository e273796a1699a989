"""TCP-style connection establishment.

Service intelliagents confirm application health "by attempting to
connect to them ... and run basic commands", with per-application
connect timeouts "provided by specialized application developers"
(§3.2).  ``tcp_connect`` models that handshake: name resolution,
reachability over some shared LAN, a listening application on the port,
and the application's willingness to accept (a hung app accepts
nothing; an overloaded one is slow).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConnectResult", "tcp_connect", "find_listener"]


@dataclass
class ConnectResult:
    """Outcome of a connection attempt."""

    ok: bool
    latency_ms: float = 0.0
    error: str = ""
    app: object = None
    lan_name: str = ""


def find_listener(host, port: int):
    """The application on ``host`` listening on ``port``, if any."""
    for app in host.apps.values():
        if getattr(app, "port", None) == port and app.is_running():
            return app
    return None


def tcp_connect(dc, src_name: str, dst_name: str, port: int, *,
                timeout_ms: float = 5000.0,
                restrict_kind: str = "") -> ConnectResult:
    """Attempt a connection from ``src`` to ``dst``:``port``.

    Public LANs are tried first (this is user/application traffic),
    with the private class as a fall-back.  ``restrict_kind`` forbids the
    fall-back entirely: application traffic is *never* allowed onto the
    private agent network (its whole point is isolation), so service
    probes pass ``restrict_kind="public"``.  The
    connection fails with a distinguishable error string for each stage
    so diagnosis can tell *network* trouble from *service* trouble:

    - ``"unknown-host"``  -- destination not in the registry
    - ``"host-down"``     -- destination machine is down
    - ``"unreachable"``   -- no healthy shared LAN
    - ``"refused"``       -- machine up, nothing listening on the port
    - ``"timeout"``       -- app listening but too slow / hung
    """
    if dst_name not in dc.hosts:
        return ConnectResult(False, error="unknown-host")
    dst = dc.hosts[dst_name]
    src = dc.hosts.get(src_name)
    if src is None or not src.is_up:
        return ConnectResult(False, error="source-down")
    if not dst.is_up:
        return ConnectResult(False, error="host-down")

    lans = dc.shared_lans(src_name, dst_name)
    if restrict_kind:
        lans = [l for l in lans if l.kind == restrict_kind]
    lans.sort(key=lambda l: (l.kind != "public", l.name))
    chosen = None
    latency = 0.0
    for lan in lans:
        ok, rtt = lan.path_ok(src, dst)
        if ok:
            chosen, latency = lan, rtt
            break
    if chosen is None:
        return ConnectResult(False, error="unreachable")

    app = find_listener(dst, port)
    if app is None:
        return ConnectResult(False, latency, "refused", lan_name=chosen.name)

    # SYN/SYN-ACK + the app's accept delay
    accept_ms = app.accept_latency_ms()
    total = 3 * latency + accept_ms
    if accept_ms < 0 or total > timeout_ms:
        return ConnectResult(False, min(total, timeout_ms) if total > 0
                             else timeout_ms, "timeout",
                             lan_name=chosen.name)
    chosen.send(src, dst, 512)
    return ConnectResult(True, total, app=app, lan_name=chosen.name)

"""One-connection load generator replaying pre-encoded request lines.

Requests are encoded before any timing starts; the loops below only
write bytes, read bytes and take timestamps.  Responses are kept raw and
parsed after the phase, except for the request id, which the gateway
and the router both put first (``{"id":N,...``).
"""

from __future__ import annotations

import json
import select
import socket
import time
from dataclasses import dataclass, field

clock = time.perf_counter

_ID_PREFIX = b'{"id":'


def response_id(line: bytes) -> int:
    """Request id a response line answers."""
    if line.startswith(_ID_PREFIX):
        end = line.find(b",", len(_ID_PREFIX))
        if end > 0:
            return int(line[len(_ID_PREFIX) : end])
    return int(json.loads(line)["id"])


@dataclass
class Phase:
    """Timestamps and raw answers of one phase (request ids ``first``..)."""

    first: int
    count: int
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    answered: list[float] = field(default_factory=list)
    answers: dict[int, bytes] = field(default_factory=dict)
    duplicates: int = 0
    started: float = 0.0
    ended: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


class Connection:
    """A blocking TCP connection speaking newline-delimited JSON."""

    def __init__(self, host: str, port: int, timeout_s: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout_s = timeout_s
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_lines(self) -> list[bytes]:
        """Block for at least one complete line; return every complete one."""
        while True:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("connection closed by the server")
            self._buffer += data
            if b"\n" in data:
                *lines, self._buffer = self._buffer.split(b"\n")
                return lines

    def request(self, payload: dict) -> dict:
        """One synchronous request/response (status, shutdown)."""
        self.send(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        while True:
            for line in self.read_lines():
                answer = json.loads(line)
                if answer.get("id") == payload["id"]:
                    return answer


def closed_loop(conn: Connection, lines: list[bytes], first: int, window: int) -> Phase:
    """Keep ``window`` requests in flight until every line is answered.

    ``lines[i]`` carries request id ``first + i``."""
    n = len(lines)
    phase = Phase(first=first, count=n)
    sent_at = [0.0] * n
    answered_at = [0.0] * n
    answers = phase.answers
    phase.started = now = clock()
    burst = min(window, n)
    for i in range(burst):
        sent_at[i] = now
    conn.send(b"".join(lines[:burst]))
    sent, received = burst, 0
    while received < n:
        try:
            got = conn.read_lines()
        except socket.timeout:
            break  # the unanswered requests count as failed
        now = clock()
        out = []
        for line in got:
            rid = response_id(line) - first
            if rid in answers:
                phase.duplicates += 1
                continue
            answers[rid] = line
            answered_at[rid] = now
            received += 1
            if sent < n:
                out.append(lines[sent])
                sent_at[sent] = now
                sent += 1
        if out:
            conn.send(b"".join(out))
    phase.ended = clock()
    phase.due = sent_at
    phase.sent = sent_at
    phase.answered = answered_at
    return phase


#: Sleeping in ``select`` wakes up to a few ms late on virtual machines;
#: the open loop sleeps only until this long before a send is due and
#: polls from there.
SPIN_S = 0.002


def open_loop(
    conn: Connection, lines: list[bytes], first: int, offsets: list[float]
) -> Phase:
    """Send ``lines[i]`` at ``start + offsets[i]`` whether or not earlier
    requests were answered; each request is timed from when it was due."""
    n = len(lines)
    phase = Phase(first=first, count=n)
    sent_at = [0.0] * n
    answered_at = [0.0] * n
    answers = phase.answers
    sock = conn.sock
    phase.started = start = clock()
    due = [start + off for off in offsets]
    sent = received = 0
    while received < n:
        now = clock()
        if sent < n and due[sent] <= now:
            batch = []
            while sent < n and due[sent] <= now:
                batch.append(lines[sent])
                sent_at[sent] = now
                sent += 1
            conn.send(b"".join(batch))
        if sent < n:
            wait = due[sent] - clock()
            wait = wait - SPIN_S if wait > SPIN_S else 0.0
        else:
            wait = conn.timeout_s
        readable, _, _ = select.select([sock], [], [], wait)
        if readable:
            got = conn.read_lines()
            now = clock()
            for line in got:
                rid = response_id(line) - first
                if rid in answers:
                    phase.duplicates += 1
                    continue
                answers[rid] = line
                answered_at[rid] = now
                received += 1
        elif sent >= n:
            break  # the unanswered requests count as failed
    phase.ended = clock()
    phase.due = due
    phase.sent = sent_at
    phase.answered = answered_at
    return phase

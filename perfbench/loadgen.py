"""Open-loop HTTP load generator for the ``serve`` workload (stdlib only).

Runs in its own process with one thread, so its work never competes for
the server's interpreter lock. Usage::

    python3 perfbench/loadgen.py SCHEDULE.pickle RESULTS.json

``SCHEDULE.pickle`` (written by ``serve.py``) holds the server address
and every operation as ``(offset_s, kind, device, seq, request_bytes)``
in due order. The generator connects, prints ``ready``, reads the
schedule's zero time (a ``time.monotonic()`` value, shared by every
process on the host) from stdin, then sends each operation at its due
time whether or not earlier replies have arrived: ``chunk`` requests are
pipelined on one keep-alive connection and their replies matched in
order; each ``bad`` request goes on a short connection of its own, which
stays open until the server answers or closes it, so at most two
connections are open at once. Between sends the generator waits in
``select`` for replies.

It writes one row per operation to ``RESULTS.json``:
``[kind, device, seq, due, sent, replied, status, ticket]`` — ``status``
is ``None`` when the server closed the connection without a reply.
"""

from __future__ import annotations

import json
import pickle
import selectors
import socket
import sys
import time
from collections import deque

#: a malformed request must be answered (or its connection dropped)
#: within this many seconds.
BAD_TIMEOUT_S = 5.0


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _responses(buf: bytearray):
    """Pop every complete ``(status, body)`` response off ``buf``."""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return
        lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        if len(buf) < end + 4 + length:
            return
        body = bytes(buf[end + 4:end + 4 + length])
        del buf[:end + 4 + length]
        yield int(lines[0].split(" ", 2)[1]), body


def main(argv) -> int:
    with open(argv[1], "rb") as fh:
        plan = pickle.load(fh)
    host, port = plan["host"], plan["port"]
    conn = _connect(host, port)
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        conn.close()
        return 3  # the server side gave up before the start
    t0 = float(line)
    now = time.monotonic
    sel = selectors.DefaultSelector()
    sel.register(conn, selectors.EVENT_READ, "chunk")
    inflight = deque()  # rows of chunks awaiting their reply, in send order
    buf = bytearray()
    bad = None  # (socket, row, buffer) of the open malformed request
    rows = []
    ops = plan["ops"]
    i = 0

    def service(timeout: float) -> None:
        nonlocal bad
        for key, _ in sel.select(timeout):
            if key.data == "chunk":
                data = conn.recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed the chunk connection")
                buf.extend(data)
                for status, body in _responses(buf):
                    row = inflight.popleft()
                    row[5], row[6] = now(), status
                    if status == 202:
                        row[7] = json.loads(body)["ticket"]
            else:
                sock, row, rbuf = bad
                try:
                    data = sock.recv(1 << 16)
                except ConnectionResetError:
                    data = b""
                rbuf.extend(data)
                replies = list(_responses(rbuf))
                if replies or not data:
                    row[5], row[6] = now(), replies[0][0] if replies else None
                    sel.unregister(sock)
                    sock.close()
                    bad = None

    while i < len(ops) or inflight or bad is not None:
        due = t0 + ops[i][0] if i < len(ops) else None
        if due is not None and now() >= due and (ops[i][1] == "chunk" or bad is None):
            offset, kind, device, seq, request = ops[i]
            i += 1
            row = [kind, device, seq, due, now(), None, None, None]
            rows.append(row)
            if kind == "chunk":
                conn.sendall(request)
                inflight.append(row)
            else:
                sock = _connect(host, port)
                sock.sendall(request)
                sel.register(sock, selectors.EVENT_READ, "bad")
                bad = (sock, row, bytearray())
            continue
        if bad is not None and now() - bad[1][4] > BAD_TIMEOUT_S:
            raise TimeoutError("malformed request neither answered nor dropped")
        wait = 0.05 if due is None else max(0.0, due - now())
        service(min(wait, 0.05))
    sel.close()
    conn.close()
    with open(argv[2], "w") as fh:
        json.dump(rows, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

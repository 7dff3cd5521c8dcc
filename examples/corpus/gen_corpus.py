#!/usr/bin/env python3
"""Regenerates the committed example corpus (*.nyx) in this directory.

The files target the GenericNetwork spec (lightftp/kamailio): node 0 is
`connection` (no args, outputs one conn), node 1 is `pkt` (borrows conn,
bytes payload), node 2 is `fault` (borrows conn, 4-byte fault plan).

Each file is a hand-picked verifier fixture:
  basic_session.nyx      plain FTP session
  mid_fault.nyx          short-read fault with live packets after it
  dead_trailing_fault.nyx conn-reset fault after the last packet
  eintr_arg_a.nyx        kIntr fault, arg=0
  eintr_arg_b.nyx        kIntr fault, arg=0x1234 (netemu ignores the arg)

CI runs `nyx-net verify examples/corpus --target lightftp` over these,
which asserts that the wire verifier accepts every file and that the
parser agrees with it.
"""

import struct
from pathlib import Path

MAGIC = 0x4E595842
VERSION = 1

# FaultKind enumerators (src/spec/fault_plan.h).
SHORT_READ, SHORT_WRITE, EAGAIN, EINTR, CONN_RESET, PEER_CLOSE, TIMEOUT = range(7)


def op(node_type, args=(), data=b""):
    out = struct.pack("<BB", node_type, len(args))
    for a in args:
        out += struct.pack("<H", a)
    out += struct.pack("<I", len(data)) + data
    return out


def plan(kind, count=1, arg=0):
    return struct.pack("<BBH", kind, count, arg)


def program(*ops):
    return struct.pack("<IBH", MAGIC, VERSION, len(ops)) + b"".join(ops)


CONN = lambda: op(0)
PKT = lambda conn, payload: op(1, [conn], payload)
FAULT = lambda conn, p: op(2, [conn], p)

FILES = {
    "basic_session.nyx": program(
        CONN(),
        PKT(0, b"USER anonymous\r\n"),
        PKT(0, b"PASS fuzz\r\n"),
        PKT(0, b"QUIT\r\n"),
    ),
    "mid_fault.nyx": program(
        CONN(),
        PKT(0, b"USER anonymous\r\n"),
        FAULT(0, plan(SHORT_READ, count=2, arg=8)),
        PKT(0, b"PASS fuzz\r\n"),
        PKT(0, b"LIST\r\n"),
    ),
    "dead_trailing_fault.nyx": program(
        CONN(),
        PKT(0, b"USER anonymous\r\n"),
        PKT(0, b"QUIT\r\n"),
        FAULT(0, plan(CONN_RESET)),
    ),
    "eintr_arg_a.nyx": program(
        CONN(),
        FAULT(0, plan(EINTR, count=1, arg=0)),
        PKT(0, b"USER anonymous\r\n"),
    ),
    "eintr_arg_b.nyx": program(
        CONN(),
        FAULT(0, plan(EINTR, count=1, arg=0x1234)),
        PKT(0, b"USER anonymous\r\n"),
    ),
}

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    for name, wire in FILES.items():
        (here / name).write_bytes(wire)
        print(f"{name}: {len(wire)} bytes")

r"""Measurement-log and tree serialization.

Logs travel as newline-delimited JSON, one record per line, integer
microseconds throughout:

    {"k": 0, "ts_us": 0, "type": "send"}
    {"k": 0, "receiver": "h0001", "ts_us": 5210, "type": "recv"}

The format is streamable and loss-tolerant: a lost packet is simply an
absent recv record. Senders with exactly even spacing import back in
fixed-interval mode (the wire format carries no mode flag, so evenly spaced
timestamped schedules canonicalize to fixed mode on import). A receiver
without arrivals has no record, so it does not survive a round trip.

`export_log` formats the records straight from the log's columns.

`import_log` reads the file in text mode, line by line, so a line ends at
``\n``, ``\r\n`` or ``\r`` and nowhere else (not at U+2028 or ``\x1c``,
which `str.splitlines` would split on). Line numbers in errors are 1-based
and count blank lines. Each stripped line goes to the C JSON scanner, which
must consume all of it; a line it rejects goes once more to `json.loads`,
only to raise the exact ``invalid JSON`` message. The records fill
{k: ts} dicts, which `MeasurementLog.from_dicts` turns into columns.
Checks that need every send record run after the last line: first gaps and
order among the send records, then unknown indices and early arrivals, in
line order, over flat lists kept per recv line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import LogFormatError
from .model import CovarianceMatrix, MeasurementLog, RoutingTree


def export_log(log: MeasurementLog, path) -> None:
    """Write a log as NDJSON: send records by pair index, then recv records
    by (receiver, index). Byte-deterministic for a given log.

    Records are formatted from the columns with one template per record
    kind and receiver; the bytes equal ``json.dumps(record, sort_keys=True)``
    per record.
    """
    lines = ['{"k": %d, "ts_us": %d, "type": "send"}' % kt for kt in enumerate(log.sender.tolist())]
    for i, receiver in enumerate(log.ids):
        name = json.dumps(receiver).replace("%", "%%")
        template = '{"k": %d, "receiver": ' + name + ', "ts_us": %d, "type": "recv"}'
        ks = np.flatnonzero(log.present[i])
        lines.extend(template % kt for kt in zip(ks.tolist(), log.recv[i, ks].tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field(record: dict, name: str, kind, lineno: int):
    if name not in record:
        raise LogFormatError(f"missing field {name!r}", lineno)
    value = record[name]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise LogFormatError(f"field {name!r} must be an integer", lineno)
    elif not isinstance(value, kind):
        raise LogFormatError(f"field {name!r} must be {kind.__name__}", lineno)
    return value


def import_log(path) -> MeasurementLog:
    """Parse and validate an NDJSON measurement log.

    Raises LogFormatError (with the offending line number) on malformed
    records, duplicate send/recv entries, non-monotone sender timestamps,
    unknown pair indices, or arrivals before the matching send.
    """
    scan_once = json.JSONDecoder().scan_once
    sender_ts: dict[int, int] = {}
    arrivals: dict[str, dict[int, int]] = {}
    # one entry per recv line, for the checks that need every send record
    recv_lineno: list[int] = []
    recv_name: list[str] = []
    recv_k: list[int] = []
    recv_ts: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record, end = scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                # rejected, or not all of the line: json.loads accepts the
                # same stripped lines and raises the message to report
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LogFormatError(f"invalid JSON: {exc.msg}", lineno) from None
            if not isinstance(record, dict):
                raise LogFormatError("record must be a JSON object", lineno)
            rtype = record.get("type")
            if rtype == "send":
                k = _field(record, "k", int, lineno)
                ts = _field(record, "ts_us", int, lineno)
                if k in sender_ts:
                    raise LogFormatError(f"duplicate send record for k={k}", lineno)
                if k < 0:
                    raise LogFormatError("pair index must be non-negative", lineno)
                sender_ts[k] = ts
            elif rtype == "recv":
                k = record.get("k")
                ts = record.get("ts_us")
                receiver = record.get("receiver")
                if type(k) is not int or type(ts) is not int or type(receiver) is not str:
                    k = _field(record, "k", int, lineno)
                    ts = _field(record, "ts_us", int, lineno)
                    receiver = _field(record, "receiver", str, lineno)
                entries = arrivals.get(receiver)
                if entries is None:
                    entries = arrivals[receiver] = {}
                if k in entries:
                    raise LogFormatError(f"duplicate recv record for ({receiver!r}, k={k})", lineno)
                entries[k] = ts
                recv_lineno.append(lineno)
                recv_name.append(receiver)
                recv_k.append(k)
                recv_ts.append(ts)
            else:
                raise LogFormatError(f"unknown record type {rtype!r}", lineno)

    if not sender_ts:
        raise LogFormatError("log contains no send records")
    n_pairs = max(sender_ts) + 1
    if n_pairs != len(sender_ts):
        # len(sender_ts) distinct non-negative indices, one of them above
        # len(sender_ts) - 1: one below len(sender_ts) is absent
        missing = next(k for k in range(len(sender_ts)) if k not in sender_ts)
        raise LogFormatError(f"missing send record for k={missing}")
    for k in range(1, n_pairs):
        if sender_ts[k] <= sender_ts[k - 1]:
            raise LogFormatError(f"sender timestamps not strictly increasing at k={k}")
    for lineno, receiver, k, ts in zip(recv_lineno, recv_name, recv_k, recv_ts):
        sent = sender_ts.get(k)
        if sent is None:
            raise LogFormatError(f"recv for unknown pair index k={k}", lineno)
        if ts < sent:
            raise LogFormatError(
                f"arrival at {ts} before send at {sent} for ({receiver!r}, k={k})", lineno
            )

    del recv_lineno, recv_name, recv_k, recv_ts

    interval = None
    if n_pairs >= 2:
        delta = sender_ts[1] - sender_ts[0]
        if delta > 0 and all(sender_ts[k] - sender_ts[0] == k * delta for k in range(n_pairs)):
            interval = delta
    return MeasurementLog.from_dicts(sender_ts, arrivals, interval)


def save_tree(tree: RoutingTree, path) -> None:
    Path(path).write_text(json.dumps(tree.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_tree(path) -> RoutingTree:
    return RoutingTree.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def save_matrix(cov: CovarianceMatrix, path) -> None:
    Path(path).write_text(json.dumps(cov.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_matrix(path) -> CovarianceMatrix:
    return CovarianceMatrix.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

r"""Measurement-log and tree serialization.

Logs travel as newline-delimited JSON, one record per line, integer
microseconds throughout:

    {"k": 0, "ts_us": 0, "type": "send"}
    {"k": 0, "receiver": "h0001", "ts_us": 5210, "type": "recv"}

The format is streamable and loss-tolerant: a lost packet is simply an
absent recv record. The send records are the whole send schedule, evenly
spaced or not. A receiver without arrivals has no record, so it does not
survive a round trip.

`export_log` builds the file from the log's columns, so an exported file
has one canonical byte form: each line is exactly

    {"k": K, "ts_us": T, "type": "send"}
    {"k": K, "receiver": NAME, "ts_us": T, "type": "recv"}

followed by ``\n``, where K and T are decimal integers and NAME is
``json.dumps(receiver)``; send records come first, by k, then recv records
by receiver and k. Each line kind is a bytes ``%`` template with ``%d`` for
K and T, and a receiver's template has its escaped name built in (``%``
doubled). The send records are one ``%`` of the send template repeated
once per pair, and each receiver's recv records one ``%`` of its template
repeated once per arrival, so C formats every number and Python works
once per receiver, not once per line.

`import_log` has two readers. `_parse_exported` parses the whole file in a
few numpy passes, with no Python work per line. It takes only canonical
lines, in any order, whose numbers have 1 to 18 digits (no sign, no
leading zero, so below 10^18 and inside the log's 2^62 us range) and
whose UTF-8 names need no escape (no ``"``, ``\``, or byte below 0x20),
and returns None for anything else, including every log with an error.
`_parse_lines` reads any valid JSON records and is the only source of
`LogFormatError`; it refuses a ``ts_us`` of 2^62 or more in magnitude,
which only it can read. The contract is that `_parse_exported` returns
either None or a log equal to the one `_parse_lines` returns, so every
log, message and line number is the line loop's.

Both read the bytes of one read of the file. `_parse_lines` reads them as
`open` reads a file in text mode, line by line, so a line ends at
``\n``, ``\r\n`` or ``\r`` and nowhere else (not at U+2028 or ``\x1c``,
which `str.splitlines` would split on). Line numbers in errors are 1-based
and count blank lines. A line that is not UTF-8 is an ``invalid UTF-8``
error naming its first bad byte; it is found when the loop reaches that
line, so an error on an earlier line wins. Each stripped line is parsed
once by `json.loads`, whose message an ``invalid JSON`` error carries; an
integer literal longer than Python's int string-conversion limit, and
nesting deeper than the recursion limit, are ``invalid JSON`` errors too.
The loop is the plain reference reader: no exported file reaches it, so it
is written to be read, not to be fast. The records fill {k: ts} dicts.
Checks that need every send record run after the last line: first gaps
and order among the send records, then unknown indices and early
arrivals, in line order, over one (line, receiver, k, ts) tuple kept per
recv line. The checked dicts then fill the log's columns.

A file that cannot be read or written raises DataError naming it.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, LogFormatError
from .model import TIMESTAMP_LIMIT_US, CovarianceMatrix, MeasurementLog, RoutingTree


def export_log(log: MeasurementLog, path) -> None:
    """Write a log as NDJSON: send records by pair index, then recv records
    by (receiver, index). Byte-deterministic for a given log; the bytes
    equal ``json.dumps(record, sort_keys=True)`` per record.

    The send records are one ``%`` of _SEND_LINE repeated once per pair,
    and each receiver's recv records one ``%`` of its own line template
    repeated once per arrival, with the (k, ts) pairs as one flat tuple;
    formatted receivers are gathered into writes of at least _WRITE_BYTES.
    """
    try:
        with open(path, "wb") as fh:
            if not log.n_pairs:
                # no records: no lines joined by newlines, plus the final newline
                fh.write(b"\n")
                return
            parts = [_SEND_LINE * log.n_pairs % _pairs(np.arange(log.n_pairs), log.sender)]
            size = len(parts[0])
            for name, present, recv in zip(log.ids, log.present, log.recv):
                k = np.flatnonzero(present)
                # the name as json.dumps quotes it, % doubled for the template
                name = json.dumps(name)[1:-1].replace("%", "%%").encode()
                template = _HEAD + b"%d" + _RECV_NAME + name + _RECV_TS + b"%d" + _RECV_TAIL + b"\n"
                parts.append(template * k.size % _pairs(k, recv[k]))
                size += len(parts[-1])
                if size >= _WRITE_BYTES:
                    fh.write(b"".join(parts))
                    parts, size = [], 0
            fh.write(b"".join(parts))
    except OSError as exc:
        raise _write_error("log", path, exc) from None


# the fixed parts of an exported record; a record is
#   {"k": K, "ts_us": T, "type": "send"}  or
#   {"k": K, "receiver": "NAME", "ts_us": T, "type": "recv"}
_HEAD = b'{"k": '
_SEND_TS = b', "ts_us": '
_RECV_NAME = b', "receiver": "'
_RECV_TS = b'", "ts_us": '
_SEND_TAIL = b', "type": "send"}'
_RECV_TAIL = b', "type": "recv"}'
_SEND_LINE = _HEAD + b"%d" + _SEND_TS + b"%d" + _SEND_TAIL + b"\n"
# the least bytes of one export write: writing each receiver as soon as it
# was formatted, in many smaller writes, raised a lossy desk run's peak RSS
# by ~10 MB through glibc's heap layout, not through live memory
_WRITE_BYTES = 2**21


def _pairs(k: np.ndarray, ts: np.ndarray) -> tuple:
    """(k0, ts0, k1, ts1, ...) as Python ints, the arguments of a ``%``."""
    return tuple(np.column_stack((k, ts)).ravel().tolist())


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
    records, a ``ts_us`` of 2^62 or more in magnitude, duplicate send/recv
    entries, non-monotone sender timestamps, unknown pair indices, or
    arrivals before the matching send.

    A file in the canonical bytes `export_log` writes is parsed in
    whole-array passes (`_parse_exported`). Any other file, and every file
    with an error, goes through the line loop (`_parse_lines`), which alone
    defines the messages and line numbers; the array reader returns either
    nothing or a log equal to the loop's (see the module docstring). A file
    that cannot be read raises DataError naming it.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read log {path}: {exc.strerror}") from None
    log = _parse_exported(data)
    return _parse_lines(data) if log is None else log


# a byte that is not UTF-8, as the surrogateescape error handler decodes it
_UNDECODED = re.compile("[\udc80-\udcff]")
_TS_RANGE = "field 'ts_us' must lie strictly between -2^62 and 2^62"

# numbers are read from windows of _WIDTH bytes, so at most _WIDTH - 1
# digits: below 10**18, which no uint64 Horner step can overflow
_WIDTH = 19
# row n: 1 in the n columns that hold a left- or right-aligned n-digit number
_LEFT = np.tri(_WIDTH + 1, _WIDTH, -1, np.uint8)
_RIGHT = np.ascontiguousarray(_LEFT[:, ::-1])
_POW10 = np.uint64(10) ** np.arange(_WIDTH + 1, dtype=np.uint64)
# the shortest record: every window read below lies inside a line this long
_SHORTEST = len(_HEAD + b"0" + _SEND_TS + b"0" + _SEND_TAIL)


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Zero-copy view whose element i is the bytes a[i:i + width]."""
    return np.ndarray((a.size - width + 1,), f"S{width}", a, 0, (1,))


def _numbers(a: np.ndarray, at: np.ndarray, right: bool):
    """(values, digit counts) of the runs of digits that begin the windows
    a[at:at + _WIDTH], or end them when `right`; None unless every run has
    1 to _WIDTH - 1 digits and no leading zero."""
    digit = _windows(a, _WIDTH)[at].view(np.uint8).reshape(-1, _WIDTH)
    digit -= np.uint8(48)
    is_digit = digit <= 9
    # the first non-digit; a row of digits only reads 0
    size = np.argmin(is_digit[:, ::-1] if right else is_digit, axis=1)
    del is_digit
    if size.min() == 0:
        return None
    lead = digit[np.arange(len(digit)), _WIDTH - size] if right else digit[:, 0]
    if ((lead == 0) & (size > 1)).any():
        return None
    digit *= (_RIGHT if right else _LEFT)[size]
    # Horner over whole rows reads a left-aligned number times
    # 10**(_WIDTH - size), which stays below 10**_WIDTH and so within uint64
    value = np.zeros(len(digit), np.uint64)
    for column in np.ascontiguousarray(digit.T):
        value *= np.uint64(10)
        value += column
    if not right:
        value //= _POW10[_WIDTH - size]
    return value.astype(np.int64), size


def _parse_exported(data: bytes) -> MeasurementLog | None:
    r"""The log `_parse_lines` returns for `data` when every line of it is
    one of the two record templates above, or None.

    Lines may come in any order but must end in ``\n``; numbers must have
    1 to 18 digits without sign or leading zero. Names must not hold ``"``,
    ``\``, or a byte below 0x20, so no escape sequence and no line break can
    appear in one, and must be UTF-8; UTF-8 byte order is str order, so
    `np.unique` gives the receivers sorted. The checks of the line loop run
    on the arrays, and a log that fails any of them is left to that loop,
    for its error.
    """
    a = np.frombuffer(data, np.uint8)
    if a.size == 0 or a[-1] != 10:
        return None
    ends = np.flatnonzero(a == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).min() < _SHORTEST or not (_windows(a, len(_HEAD))[starts] == _HEAD).all():
        return None
    tail = _windows(a, len(_SEND_TAIL))[ends - len(_SEND_TAIL)]
    send = tail == _SEND_TAIL
    recv = ~send
    if not (tail[recv] == _RECV_TAIL).all():
        return None
    del tail

    # k: the digits after the head, left-aligned in their window
    parsed = _numbers(a, starts + len(_HEAD), right=False)
    if parsed is None:
        return None
    k, size = parsed
    after_k = starts + len(_HEAD) + size
    # ts_us: the digits before the tail, right-aligned in their window
    parsed = _numbers(a, ends - len(_SEND_TAIL) - _WIDTH, right=True)
    if parsed is None:
        return None
    ts, size = parsed
    at_ts = ends - len(_SEND_TAIL) - size

    if not (at_ts[send] == after_k[send] + len(_SEND_TS)).all():
        return None
    if not (_windows(a, len(_SEND_TS))[after_k[send]] == _SEND_TS).all():
        return None
    name_lo = after_k[recv] + len(_RECV_NAME)
    name_hi = at_ts[recv] - len(_RECV_TS)
    size = name_hi - name_lo
    if (size < 0).any():
        return None
    if not (_windows(a, len(_RECV_NAME))[after_k[recv]] == _RECV_NAME).all():
        return None
    if not (_windows(a, len(_RECV_TS))[name_hi] == _RECV_TS).all():
        return None
    ids, row = _receiver_rows(a, name_lo, size)
    if ids is None:
        return None

    sender_k = k[send]
    n = sender_k.size
    if n == 0 or sender_k.max() >= n:
        return None
    seen = np.zeros(n, bool)
    seen[sender_k] = True
    if not seen.all():
        return None
    sender = np.zeros(n, np.int64)
    sender[sender_k] = ts[send]
    if (np.diff(sender) <= 0).any():
        return None
    recv_k, recv_ts = k[recv], ts[recv]
    if recv_k.size and (recv_k.max() >= n or (recv_ts < sender[recv_k]).any()):
        return None
    present = np.zeros((len(ids), n), bool)
    present[row, recv_k] = True
    if present.sum() != recv_k.size:
        return None
    arrivals = np.zeros((len(ids), n), np.int64)
    arrivals[row, recv_k] = recv_ts
    return MeasurementLog(ids, sender, arrivals, present)


def _receiver_rows(a: np.ndarray, lo: np.ndarray, size: np.ndarray):
    """(sorted receiver names, row of each name) for the names a[lo:lo +
    size], or (None, None) when a name holds a byte an exported name cannot
    hold bare or is not UTF-8. Names are gathered one length at a time, so
    no name is padded and the gathered bytes never outgrow the buffer."""
    order = np.argsort(size, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(size[order])) + 1) if order.size else []
    found = []
    for group in groups:
        width = int(size[group[0]])
        if width == 0:
            found.append((group, [b""], np.zeros(group.size, np.intp)))
            continue
        names = _windows(a, width)[lo[group]]
        raw = names.view(np.uint8)
        if ((raw == 34) | (raw == 92) | (raw < 32)).any():
            return None, None
        # an exported log holds each receiver's records in one run
        head = np.ones(names.size, bool)
        head[1:] = names[1:] != names[:-1]
        keys, inverse = np.unique(names[head], return_inverse=True)
        found.append((group, keys.tolist(), inverse[np.cumsum(head) - 1]))
    ranked = sorted(key for _, keys, _ in found for key in keys)
    try:
        ids = tuple(key.decode("utf-8") for key in ranked)
    except UnicodeDecodeError:
        return None, None
    rank = {key: i for i, key in enumerate(ranked)}
    row = np.empty(lo.size, np.intp)
    for group, keys, inverse in found:
        row[group] = np.array([rank[key] for key in keys], np.intp)[inverse]
    return ids, row


def _parse_lines(data: bytes) -> MeasurementLog:
    """Parse and validate a log one text-mode line at a time, as `open`
    reads a file in text mode; see the module docstring for the
    line-numbering contract."""
    sender_ts: dict[int, int] = {}
    arrivals: dict[str, dict[int, int]] = {}
    # (line, receiver, k, ts) per recv line, for the checks that need every send record
    recvs: list[tuple[int, str, int, int]] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii() and (bad := _UNDECODED.search(line)):
                raise LogFormatError(f"invalid UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x}", lineno)
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(f"invalid JSON: {exc.msg}", lineno) from None
            except RecursionError:
                raise LogFormatError("invalid JSON: nested too deeply", lineno) from None
            except ValueError:
                # not a JSONDecodeError: int() refuses a literal longer
                # than sys.get_int_max_str_digits()
                raise LogFormatError(
                    f"invalid JSON: integer literal longer than {sys.get_int_max_str_digits()} digits", lineno
                ) from None
            if not isinstance(record, dict):
                raise LogFormatError("record must be a JSON object", lineno)
            rtype = record.get("type")
            if rtype == "send":
                k = _field(record, "k", int, lineno)
                ts = _field(record, "ts_us", int, lineno)
                if not -TIMESTAMP_LIMIT_US < ts < TIMESTAMP_LIMIT_US:
                    raise LogFormatError(_TS_RANGE, lineno)
                if k in sender_ts:
                    raise LogFormatError(f"duplicate send record for k={k}", lineno)
                if k < 0:
                    raise LogFormatError("pair index must be non-negative", lineno)
                sender_ts[k] = ts
            elif rtype == "recv":
                k = _field(record, "k", int, lineno)
                ts = _field(record, "ts_us", int, lineno)
                receiver = _field(record, "receiver", str, lineno)
                if not -TIMESTAMP_LIMIT_US < ts < TIMESTAMP_LIMIT_US:
                    raise LogFormatError(_TS_RANGE, lineno)
                entries = arrivals.setdefault(receiver, {})
                if k in entries:
                    raise LogFormatError(f"duplicate recv record for ({receiver!r}, k={k})", lineno)
                entries[k] = ts
                recvs.append((lineno, receiver, k, ts))
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
    for lineno, receiver, k, ts in recvs:
        sent = sender_ts.get(k)
        if sent is None:
            raise LogFormatError(f"recv for unknown pair index k={k}", lineno)
        if ts < sent:
            raise LogFormatError(
                f"arrival at {ts} before send at {sent} for ({receiver!r}, k={k})", lineno
            )

    del recvs
    ids = sorted(arrivals)
    sender = np.array([sender_ts[k] for k in range(n_pairs)], dtype=np.int64)
    present = np.zeros((len(ids), n_pairs), dtype=bool)
    recv = np.zeros((len(ids), n_pairs), dtype=np.int64)
    for i, receiver in enumerate(ids):
        keys = list(arrivals[receiver])
        present[i, keys] = True
        recv[i, keys] = list(arrivals[receiver].values())
    return MeasurementLog(ids, sender, recv, present)


def write_json(data, path, what: str) -> None:
    """Write ``data`` to ``path`` as JSON: sorted keys, two-space indent
    and a final newline. An unwritable file, or nesting past the encoder's
    recursion (~490 tree levels), raises DataError naming the file."""
    try:
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    except RecursionError:
        raise DataError(f"cannot write {what} {path}: nested too deeply for JSON") from None
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _write_error(what, path, exc) from None


def check_writable(path, what: str) -> None:
    """Raise the DataError that writing ``path`` would raise, before the
    work that produces it: open the file for appending, which leaves an
    existing file as it is, and remove it again if this created it."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _write_error(what, path, exc) from None
    if not existed:
        os.remove(path)


def _write_error(what: str, path, exc: OSError) -> DataError:
    return DataError(f"cannot write {what} {path}: {exc.strerror}")


def save_tree(tree: RoutingTree, path) -> None:
    write_json(tree.to_dict(), path, "tree")


def load_tree(path) -> RoutingTree:
    return read_json(path, "tree", build=RoutingTree.from_dict)


def save_matrix(cov: CovarianceMatrix, path) -> None:
    write_json(cov.to_dict(), path, "covariance matrix")


def load_matrix(path) -> CovarianceMatrix:
    return read_json(path, "covariance matrix", build=CovarianceMatrix.from_dict)


def read_json(path, what: str, error=DataError, build=None):
    """The JSON document in ``path``, passed through ``build`` if given. A
    file that cannot be read or parsed, or whose document ``build`` rejects,
    raises ``error`` naming ``what`` and the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc.msg} (line {exc.lineno})") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    if build is None:
        return data
    try:
        return build(data)
    except KeyError as exc:
        raise error(f"{what} {path} lacks field {exc}") from None
    except (DataError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise error(f"{what} {path} is malformed: {exc}") from None

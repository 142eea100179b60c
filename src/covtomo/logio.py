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

`import_log` has two readers, two tokenizers that hand the records of
the whole file to one builder. `_build_log` alone applies the rules that
need every record, and fills the log's columns. In this order, it
refuses a log with no send record; a send index below the number of send
records that has none, naming the smallest; send times that do not
strictly increase; the first recv, in line order, at an unknown index or
before its send; and a repeated recv. Per-line messages come from the
line loop, whole-log messages from the builder.

`_parse_exported` parses the whole file in numpy passes, with no Python
work per line. It takes only canonical lines, in any order, whose
numbers have 1 to 18 digits (no sign, no leading zero, so below 10^18
and inside the log's 2^62 us range) and whose UTF-8 names need no escape
(no ``"``, ``\``, or byte below 0x20), and returns None for anything
else, including every log the builder refuses. It reads lines in blocks,
whose arrays stay in the processor's cache, and each line as rows of its
bytes, gathered in four passes and never read past the line: a head row
from its start, a back row up to its end, and the two keys between its
numbers. A fixed token is one or more compares of eight-byte words of a
row, and a number is read from the bytes of a row: the length of its run
of digits is where the first byte that is no digit lies, and its value is
built one decimal column at a time. Its records carry no line numbers,
and its indices are int64. `_parse_lines` reads any valid JSON records
and is the only reader that raises `LogFormatError`; it refuses a
``ts_us`` of 2^62 or more in magnitude, which only it can read. The
contract is that `_parse_exported` returns either None or a log equal to
the one `_parse_lines` returns, so every log, message and line number is
the line loop's.

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
is written to be read, not to be fast. Each line's own checks run as it
is read, a repeated send or recv among them, so any error on a line
beats every whole-log error. After the last line the loop hands the
builder its records, each recv with its line, and the indices as Python
ints in object arrays, so that an index past int64 is named exactly.

Trees, matrices, scores and reports are written by `write_json` in the
bytes of ``json.dumps(data, sort_keys=True, indent=2)`` and a newline.
json.dumps indents with its Python encoder, which formats each number in
Python; here each list or dict that holds no non-empty list or dict, such
as a matrix row, is one call of json's C encoder, whose item separator
carries the newline and indent, and Python lays out only the levels above.

A file that cannot be read or written raises DataError naming it.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
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
_TYPE = b', "type": "'
_SEND_TAIL = _TYPE + b'send"}'
_RECV_TAIL = _TYPE + b'recv"}'
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

    Raises LogFormatError, with the offending line number, on a line the
    loop refuses: a malformed record, a ``ts_us`` of 2^62 or more in
    magnitude, or a repeated send or recv. Raises it, as `_build_log` words
    it, on a log that breaks a whole-log rule: no send record, a missing
    send index, non-monotone sender timestamps, or a recv at an unknown
    pair index or before its send, which names the recv's line.

    A file in the canonical bytes `export_log` writes is parsed in
    whole-array passes (`_parse_exported`). Any other file, and every file
    with an error, goes through the line loop (`_parse_lines`); the array
    reader returns either nothing or a log equal to the loop's (see the
    module docstring). A file that cannot be read raises DataError naming
    it.
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

# the shortest record: every row read below lies inside a line this long
_SHORTEST = len(_HEAD + b"0" + _SEND_TS + b"0" + _SEND_TAIL)
# the bytes a row holds of a number: 18 digits and the byte that ends them
_DIGITS = 19


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Zero-copy view whose element i is the bytes a[i:i + width]."""
    return np.ndarray((a.size - width + 1,), f"S{width}", a, 0, (1,))


def _word(token: bytes) -> int:
    """The first eight bytes of ``token`` as a little-endian word."""
    return int.from_bytes(token[:8], "little")


def _rows(a: np.ndarray, at: np.ndarray, lo: int, width: int) -> np.ndarray:
    """The bytes a[at + lo:at + lo + width] of each position, as the rows
    of one gather: a numpy gather costs about the same per position
    whatever its width, and far more than an elementwise step."""
    return _windows(a, width)[at + lo].view(np.uint8).reshape(at.size, width)


def _words(rows: np.ndarray, *offsets: int) -> list[np.ndarray]:
    """For each offset o, the little-endian words rows[:, o:o + 8], as views."""
    return [rows[:, o : o + 8].view("<u8")[:, 0] for o in offsets]


def _numbers(rows: np.ndarray, backward: bool):
    """(values, digit counts) of the numbers in head rows, each the run of
    digits after _HEAD, or, when ``backward``, in back rows, each the run
    that ends before the tail; None unless every run has 1 to 18 digits and
    no leading zero. A row holds _DIGITS bytes of its number, and the
    argmin of a row of digits alone is 0, so a run of 19 digits or more
    reads as a run of none.

    A byte is a digit iff it less 48 is below 10, in uint8 arithmetic,
    which wraps. The value is built one column at a time over the longest
    run, most significant digit first, each row taking only its own run.
    """
    digits = rows - 48
    # the number's bytes, from its first or back from its last
    columns = np.s_[:, _DIGITS - 1 :: -1] if backward else np.s_[:, len(_HEAD) :]
    size = np.argmin((digits < 10)[columns], axis=1)
    if size.min() == 0:
        return None
    number = digits[columns]
    value = np.zeros(len(rows), np.int64)
    for j in range(size.max() - 1, -1, -1) if backward else range(size.max()):
        inside = size > j
        np.multiply(value, 10, out=value, where=inside)
        np.add(value, number[:, j], out=value, where=inside)
    # a leading zero leaves fewer digits than the run has
    if ((value < 10 ** (size - 1)) & (size > 1)).any():
        return None
    return value, size


def _parse_exported(data: bytes) -> MeasurementLog | None:
    r"""The log `_parse_lines` returns for `data` when every line of it is
    one of the two record templates above, or None.

    Lines may come in any order but must end in ``\n``; numbers must have
    1 to 18 digits without sign or leading zero. Names must not hold ``"``,
    ``\``, or a byte below 0x20, so no escape sequence and no line break can
    appear in one, and must be UTF-8; UTF-8 byte order is str order, so
    `np.unique` gives the receivers sorted. A log that `_build_log`
    refuses is left to the line loop, for its error.

    Line ends are found _SCAN_BYTES at a time, and the lines read
    _BLOCK_LINES at a time by `_read_lines`, as rows of bytes gathered from
    each line: each fixed token is compared as one or more words of a row,
    and each number read from the bytes of one (`_numbers`). The blocks'
    columns are then joined, the names checked and ranked, and the records
    handed to `_build_log`.
    """
    a = np.frombuffer(data, np.uint8)
    if a.size == 0 or a[-1] != 10:
        return None
    ends = np.concatenate(
        [np.flatnonzero(a[i : i + _SCAN_BYTES] == 10) + i for i in range(0, a.size, _SCAN_BYTES)]
    )
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).min() < _SHORTEST:
        return None
    blocks = []
    for lo in range(0, ends.size, _BLOCK_LINES):
        block = _read_lines(a, starts[lo : lo + _BLOCK_LINES], ends[lo : lo + _BLOCK_LINES])
        if block is None:
            return None
        blocks.append(block)
    send, k, ts, name_lo, size = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    ids, row = _receiver_rows(a, name_lo, size)
    if ids is None:
        return None
    recv = ~send
    try:
        return _build_log(ids, k[send], ts[send], row, k[recv], ts[recv])
    except LogFormatError:
        return None


# bytes scanned for line ends, and lines read, per block: a block's
# temporaries stay in the processor's cache and in memory the allocator
# reuses, where whole-file arrays were paged in afresh by each pass
_SCAN_BYTES = 2**20
_BLOCK_LINES = 2**14


def _read_lines(a: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(send, k, ts_us, name start, name size) of the lines a[starts:ends]
    when each is one of the two record templates, the name columns for
    the recv lines alone, or None. Four gathers read every line: a head
    row, its head and the _DIGITS bytes after it, from its start; a back
    row, the _DIGITS bytes before its tail and the tail, from its end; then,
    where the numbers end, the ts_us key and, on recv lines, the receiver
    key. A fixed token is compared as one or more words of its row, and a
    number is read from the bytes of its row (`_numbers`). No read leaves
    its line: a line is at least _SHORTEST bytes, as long as a back row,
    and the keys' places are checked before they are read."""
    head = _rows(a, starts, 0, len(_HEAD) + _DIGITS)
    tail = ends - len(_SEND_TAIL)
    back = _rows(a, tail, -_DIGITS, _DIGITS + len(_SEND_TAIL))
    (head_word,) = _words(head, 0)
    # the tails differ only in their last word, the type
    type_0, type_1, kind = _words(back, _DIGITS, _DIGITS + len(_TYPE) - 8, _DIGITS + len(_SEND_TAIL) - 8)
    send = kind == _word(_SEND_TAIL[-8:])
    recv = ~send
    if not (send | (kind == _word(_RECV_TAIL[-8:]))).all():
        return None
    if not (
        ((head_word & ((1 << 8 * len(_HEAD)) - 1)) == _word(_HEAD))
        & (type_0 == _word(_TYPE))
        & (type_1 == _word(_TYPE[-8:]))
    ).all():
        return None

    parsed = _numbers(head, False)
    if parsed is None:
        return None
    k, size = parsed
    after_k = starts + len(_HEAD) + size
    parsed = _numbers(back, True)
    if parsed is None:
        return None
    ts, size = parsed
    at_ts = tail - size

    # a send line's ts_us key follows its k, a recv line's its name
    if not (at_ts[send] == after_k[send] + len(_SEND_TS)).all():
        return None
    name_lo = after_k[recv] + len(_RECV_NAME)
    size = at_ts[recv] - len(_RECV_TS) - name_lo
    if (size < 0).any():
        return None
    # the bytes before ts_us: the last digit of k on a send line, the
    # name's closing quote on a recv line, then the key of both
    quote, key = _words(_rows(a, at_ts, -len(_RECV_TS), len(_RECV_TS)), 0, len(_RECV_TS) - 8)
    if not ((key == _word(_RECV_TS[-8:])) & ((quote >> 8) == _word(_RECV_TS) >> 8)).all():
        return None
    if not (send | ((quote & 0xFF) == _RECV_TS[0])).all():
        return None
    name_key = _words(_rows(a, after_k[recv], 0, len(_RECV_NAME)), 0, len(_RECV_NAME) - 8)
    if not ((name_key[0] == _word(_RECV_NAME)) & (name_key[1] == _word(_RECV_NAME[-8:]))).all():
        return None
    return send, k, ts, name_lo, size


def _receiver_rows(a: np.ndarray, lo: np.ndarray, size: np.ndarray):
    """(sorted receiver names, row of each name) for the names a[lo:lo +
    size], or (None, None) when a name holds a byte an exported name cannot
    hold bare or is not UTF-8. Names are gathered one length at a time, so
    no name is padded and the gathered bytes never outgrow the buffer. An
    exported log holds each receiver's records in one run, so each name is
    compared with the one before it, only the first name of a run is
    checked and ranked, and each run's rank is repeated over its length."""
    order = np.argsort(size, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(size[order])) + 1) if order.size else []
    found = []
    for group in groups:
        width = int(size[group[0]])
        if width == 0:
            found.append((group, [b""], np.zeros(1, np.intp), group.size))
            continue
        names = _windows(a, width)[lo[group]]
        heads = np.flatnonzero(np.concatenate(([True], names[1:] != names[:-1])))
        keys, inverse = np.unique(names[heads], return_inverse=True)
        raw = keys.view(np.uint8)
        if ((raw == 34) | (raw == 92) | (raw < 32)).any():
            return None, None
        found.append((group, keys.tolist(), inverse, np.diff(heads, append=names.size)))
    ranked = sorted(key for _, keys, _, _ in found for key in keys)
    try:
        ids = tuple(key.decode("utf-8") for key in ranked)
    except UnicodeDecodeError:
        return None, None
    rank = {key: i for i, key in enumerate(ranked)}
    row = np.empty(lo.size, np.intp)
    for group, keys, inverse, runs in found:
        row[group] = np.repeat(np.array([rank[key] for key in keys], np.intp)[inverse], runs)
    return ids, row


def _parse_lines(data: bytes) -> MeasurementLog:
    """Parse and validate a log one text-mode line at a time, as `open`
    reads a file in text mode; see the module docstring for the
    line-numbering contract. Each line's own checks run here, and the
    whole-log rules in `_build_log`."""
    # the send indices and (receiver, index) pairs read so far
    sent, heard = set(), set()
    # (k, ts) per send line and (receiver, k, ts, line) per recv line, in line order
    sends, recvs = [], []
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
                if k in sent:
                    raise LogFormatError(f"duplicate send record for k={k}", lineno)
                if k < 0:
                    raise LogFormatError("pair index must be non-negative", lineno)
                sent.add(k)
                sends.append((k, ts))
            elif rtype == "recv":
                k = _field(record, "k", int, lineno)
                ts = _field(record, "ts_us", int, lineno)
                receiver = _field(record, "receiver", str, lineno)
                if not -TIMESTAMP_LIMIT_US < ts < TIMESTAMP_LIMIT_US:
                    raise LogFormatError(_TS_RANGE, lineno)
                if (receiver, k) in heard:
                    raise LogFormatError(f"duplicate recv record for ({receiver!r}, k={k})", lineno)
                heard.add((receiver, k))
                recvs.append((receiver, k, ts, lineno))
            else:
                raise LogFormatError(f"unknown record type {rtype!r}", lineno)

    # object arrays hold every index exactly, however far past int64
    send_k, send_ts = np.array(sends, object).reshape(-1, 2).T
    names, recv_k, recv_ts, lines = np.array(recvs, object).reshape(-1, 4).T
    ids = sorted(set(names))
    rank = {name: i for i, name in enumerate(ids)}
    row = np.array([rank[name] for name in names.tolist()], np.intp)
    return _build_log(ids, send_k, send_ts, row, recv_k, recv_ts, lines)


def _build_log(ids, send_k, send_ts, row, recv_k, recv_ts, recv_line=None) -> MeasurementLog:
    """The log of a set of records, after the whole-log rules: the one
    place that applies them and fills the log's columns.

    ``ids`` are the receivers, sorted. Send record j is (send_k[j],
    send_ts[j]) and recv record j is (ids[row[j]], recv_k[j], recv_ts[j]),
    the recvs in line order, recv j on line recv_line[j] when line numbers
    are given. Indices are int64, or Python ints in object arrays when they
    may lie past int64; send indices are non-negative. The rules raise
    LogFormatError, in this order, when there is no send record; when an
    index below the number of send records has none (the smallest is
    named); when send times do not strictly increase; on the first recv at
    an unknown index or before its send; and on the first recv that repeats
    an earlier one. A recv's error names its line when lines are given.

    Passing int64 columns costs no copy of an index column: the masks of
    out-of-range indices are built only after a min/max test fails.
    """
    n = send_k.size
    if not n:
        raise LogFormatError("log contains no send records")
    seen = np.zeros(n, bool)
    # an index of n or more, even past int64, marks nothing
    seen[np.asarray(send_k if send_k.max() < n else send_k[send_k < n], np.intp)] = True
    if not seen.all():
        raise LogFormatError(f"missing send record for k={seen.argmin()}")
    sender = np.zeros(n, np.int64)
    sender[np.asarray(send_k, np.intp)] = send_ts
    late = np.diff(sender) <= 0
    if late.any():
        raise LogFormatError(f"sender timestamps not strictly increasing at k={late.argmax() + 1}")

    def line(i):
        return None if recv_line is None else recv_line[i]

    # no index is unknown until the min/max test fails: a view of one False
    known, unknown = recv_k, np.broadcast_to(False, recv_k.shape)
    if recv_k.size and (recv_k.min() < 0 or recv_k.max() >= n):
        unknown = (recv_k < 0) | (recv_k >= n)
        known = np.where(unknown, 0, recv_k)
    known = np.asarray(known, np.intp)
    bad = unknown | (recv_ts < sender[known])
    if bad.any():
        i = bad.argmax()
        if unknown[i]:
            raise LogFormatError(f"recv for unknown pair index k={recv_k[i]}", line(i))
        message = f"arrival at {recv_ts[i]} before send at {sender[known[i]]} for ({ids[row[i]]!r}, k={recv_k[i]})"
        raise LogFormatError(message, line(i))
    # freed before the columns are allocated, which sets the reader's peak
    del bad
    # each recv's cell of the (receiver, k) columns, flattened
    cell = row * n + known
    present = np.zeros(len(ids) * n, bool)
    present[cell] = True
    if present.sum() != recv_k.size:
        # the first recv, in line order, whose cell an earlier recv filled
        order = np.argsort(cell, kind="stable")
        i = order[1:][np.diff(cell[order]) == 0].min()
        raise LogFormatError(f"duplicate recv record for ({ids[row[i]]!r}, k={recv_k[i]})", line(i))
    arrivals = np.zeros(len(ids) * n, np.int64)
    arrivals[cell] = recv_ts
    return MeasurementLog(ids, sender, arrivals.reshape(-1, n), present.reshape(-1, n))


def write_json(data, path, what: str) -> None:
    """Write ``data`` to ``path`` in the bytes of ``json.dumps(data,
    sort_keys=True, indent=2)`` plus a final newline (see `_dumps`). An
    unwritable file, or nesting past the recursion limit (~490 tree
    levels, as for json.dumps), raises DataError naming the file."""
    try:
        text = _dumps(data, "") + "\n"
    except RecursionError:
        raise DataError(f"cannot write {what} {path}: nested too deeply for JSON") from None
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _write_error(what, path, exc) from None


_CONTAINERS = (list, tuple, dict)
# writes a scalar, or a container on one line
_INLINE = json.JSONEncoder(sort_keys=True)


def _dumps(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, with ``pad`` before each of its lines but the first; dict keys must
    be str.

    json.dumps takes its Python encoder whenever it indents. Here a list or
    dict that holds no non-empty list or dict is one call of json's C
    encoder, whose item separator carries the newline and the indent, so a
    list of numbers costs one call. Python lays out the rest, one call per
    level, so the recursion limit stops it about where it stops json.dumps.
    """
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return _INLINE.encode(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = pad + "  "
    values = value.values() if is_dict else value
    if _flat(values):
        body = json.JSONEncoder(sort_keys=True, separators=(",\n" + inner, ": ")).encode(value)[1:-1]
    elif is_dict:
        parts = []
        for key, item in sorted(value.items()):
            parts.append(f"{encode_basestring_ascii(key)}: {_dumps(item, inner)}")
        body = f",\n{inner}".join(parts)
    else:
        parts = []
        for item in value:
            parts.append(_dumps(item, inner))
        body = f",\n{inner}".join(parts)
    return f"{{\n{inner}{body}\n{pad}}}" if is_dict else f"[\n{inner}{body}\n{pad}]"


def _flat(values) -> bool:
    """Whether no value is a non-empty list, tuple or dict, which the C
    encoder would write on one line; the set of types answers at C speed
    for a list of numbers."""
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        return True
    return not any(isinstance(v, _CONTAINERS) and v for v in values)


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

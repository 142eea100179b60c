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

`import_log` has two readers. `_parse_exported` parses the whole file in
numpy passes, with no Python work per line. It takes only canonical
lines, in any order, whose numbers have 1 to 18 digits (no sign, no
leading zero, so below 10^18 and inside the log's 2^62 us range) and
whose UTF-8 names need no escape (no ``"``, ``\``, or byte below 0x20),
and returns None for anything else, including every log with an error.
It reads lines in blocks, whose arrays stay in the processor's cache, and
each line as little-endian words of eight bytes, gathered in four passes
and never read past the line: a fixed token is one or more word compares,
and a number is the length of its leading run of digits, found in each
word at once, and the value of that run, combined from at most three
words with simdjson's SWAR digit steps. `_parse_lines` reads any valid
JSON records and is the only source of `LogFormatError`; it refuses a
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
is written to be read, not to be fast. The records fill {k: ts} dicts.
Checks that need every send record run after the last line: first gaps
and order among the send records, then unknown indices and early
arrivals, in line order, over one (line, receiver, k, ts) tuple kept per
recv line. The checked dicts then fill the log's columns.

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

# the shortest record: every word read below lies inside a line this long
_SHORTEST = len(_HEAD + b"0" + _SEND_TS + b"0" + _SEND_TAIL)
# each byte 1; byte i of a little-endian word is the byte at its address + i
_ONES = 0x0101010101010101
_POW10 = np.uint64(10) ** np.arange(19, dtype=np.uint64)


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Zero-copy view whose element i is the bytes a[i:i + width]."""
    return np.ndarray((a.size - width + 1,), f"S{width}", a, 0, (1,))


def _word(token: bytes) -> int:
    """The first eight bytes of ``token`` as a little-endian word."""
    return int.from_bytes(token[:8], "little")


def _gather_words(a: np.ndarray, at: np.ndarray, offsets) -> list[np.ndarray]:
    """For each offset o, the little-endian words a[at + o:at + o + 8], as
    views into one gather of the bytes they span: a numpy gather costs
    about the same per position whatever its width, and far more than an
    elementwise step."""
    if not at.size:
        return [np.zeros(0, np.uint64) for _ in offsets]
    lo = min(offsets)
    width = max(offsets) + 8 - lo
    window = _windows(a, width)[at + lo]
    return [np.ndarray(at.shape, "<u8", window, o - lo, (width,)) for o in offsets]


def _digit_runs(words: np.ndarray, high: bool):
    """(mask, length) of the run of digits that begins each word, in its
    low bytes, or ends it, in its high bytes, when ``high``: the mask is
    0xFF in the run's bytes and 0 elsewhere, the length 0 to 8. A byte is
    a digit iff its xor with '0' is below 10, tested on all eight bytes at
    once with no carry between them, so every byte value reads right. The
    steps work in place: a new array per step costs more than the step."""
    t = words ^ (0x30 * _ONES)
    # bit 7 of each byte that is not a digit
    other = t & (0x7F * _ONES)
    other += 0x76 * _ONES
    other |= t
    other &= 0x80 * _ONES
    if high:
        other.byteswap(inplace=True)
    # 0xFF in the bytes below the lowest non-digit, all eight if none
    mask = -other
    mask &= other
    mask >>= 7
    mask -= 1
    length = mask & _ONES
    length *= _ONES
    length >>= 56
    if high:
        mask.byteswap(inplace=True)
    return mask, length


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The decimal value of each word's eight bytes, the first byte most
    significant, from each byte's low four bits (simdjson's SWAR steps,
    in place): a byte 0x00 reads as a leading zero. Overwrites ``words``."""
    words &= 0x0F * _ONES
    words *= 2561
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 6553601
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 42949672960001
    words >>= 32
    return words


def _numbers(a: np.ndarray, at: np.ndarray, before: bool, gathered=()):
    """(values, digit counts) of the runs of digits that begin at each
    a[at], or end just before it when ``before``; None unless every run
    has 1 to 18 digits and no leading zero.

    A run is read one word of eight bytes at a time, up to three words
    from ``at`` onward (or back), a word counting only while the words
    before it held nothing but digits. ``gathered`` holds the first of
    these words when the caller has them; the rest are gathered here, for
    every position. A word's digits are moved to its high bytes, so that
    its last byte holds the last digit and the bytes below read as leading
    zeros; below 10**18, no uint64 step of a kept run overflows.
    """
    size = np.zeros(at.size, np.uint64)
    going = True
    for word in range(3):
        if word < len(gathered):
            w = gathered[word]
        elif before:
            pos = at - 8 * (word + 1)
            # a word before the buffer holds no digit of a record
            if ((pos < 0) & going).any():
                return None
            (w,) = _gather_words(a, np.maximum(pos, 0), (0,))
        else:
            (w,) = _gather_words(a, at, (8 * word,))
        mask, run = _digit_runs(w, high=before)
        if word:
            run *= going
            # no run reaches this word: every value is complete
            if not run.any():
                break
            mask *= going
        w = w & mask
        if not before:
            # masked, a run of no digits is 0 however far it shifts
            w <<= 64 - 8 * run
        digits = _eight_digits(w)
        if not word:
            value = digits
        elif before:
            digits *= 10 ** (8 * word)
            value += digits
        else:
            value *= _POW10[run]
            value += digits
        size += run
        going = run == 8
        if not going.any():
            break
    else:
        return None
    size = size.astype(np.intp)
    if size.min() == 0 or size.max() > 18:
        return None
    # a leading zero leaves fewer digits than the run has
    if ((value < _POW10[size - 1]) & (size > 1)).any():
        return None
    return value.view(np.int64), size


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

    Line ends are found _SCAN_BYTES at a time, and the lines read
    _BLOCK_LINES at a time by `_read_lines`, a little-endian word of eight
    bytes at a time: each fixed token is compared as one or more words,
    and each number parsed from at most three (`_numbers`). The blocks'
    columns are then joined, and the names, indices and timestamps checked
    over the whole file.
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
    recv = ~send
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
    # each recv line's cell of the (receiver, k) columns, flattened
    cell = row * n + recv_k
    present = np.zeros(len(ids) * n, bool)
    present[cell] = True
    if present.sum() != recv_k.size:
        return None
    arrivals = np.zeros(len(ids) * n, np.int64)
    arrivals[cell] = recv_ts
    return MeasurementLog(ids, sender, arrivals.reshape(-1, n), present.reshape(-1, n))


# bytes scanned for line ends, and lines read, per block: a block's
# temporaries stay in the processor's cache and in memory the allocator
# reuses, where whole-file arrays were paged in afresh by each pass
_SCAN_BYTES = 2**20
_BLOCK_LINES = 2**14


def _read_lines(a: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(send, k, ts_us, name start, name size) of the lines a[starts:ends]
    when each is one of the two record templates, the name columns for
    the recv lines alone, or None. Four gathers of words read every line:
    its head and first word of k, from its start; the last two words of
    ts_us and the tail, from its end; then, where the numbers end, the
    ts_us key and, on recv lines, the receiver key. No read leaves its
    line: a line is at least _SHORTEST bytes, and the keys' places are
    checked before they are read."""
    head, k_word = _gather_words(a, starts, (0, len(_HEAD)))
    tail = ends - len(_SEND_TAIL)
    # the tails differ only in their last word, the type
    ts_1, ts_0, type_0, type_1, kind = _gather_words(a, tail, (-16, -8, 0, len(_TYPE) - 8, len(_SEND_TAIL) - 8))
    send = kind == _word(_SEND_TAIL[-8:])
    recv = ~send
    if not (send | (kind == _word(_RECV_TAIL[-8:]))).all():
        return None
    if not (
        ((head & ((1 << 8 * len(_HEAD)) - 1)) == _word(_HEAD))
        & (type_0 == _word(_TYPE))
        & (type_1 == _word(_TYPE[-8:]))
    ).all():
        return None

    parsed = _numbers(a, starts + len(_HEAD), False, [k_word])
    if parsed is None:
        return None
    k, size = parsed
    after_k = starts + len(_HEAD) + size
    parsed = _numbers(a, tail, True, [ts_0, ts_1])
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
    quote, key = _gather_words(a, at_ts, (-len(_RECV_TS), -8))
    if not ((key == _word(_RECV_TS[-8:])) & ((quote >> 8) == _word(_RECV_TS) >> 8)).all():
        return None
    if not (send | ((quote & 0xFF) == _RECV_TS[0])).all():
        return None
    name_key = _gather_words(a, after_k[recv], (0, len(_RECV_NAME) - 8))
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

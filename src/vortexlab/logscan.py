"""Reading a trial log: its line rules, and the scan of a large log's tail in a child process.

Every newline-terminated line of a log must be a record: a JSON object with
exactly the fields of ``LOG_FIELDS`` in order, an int trial_id equal to its
line index, a known phase, numeric score, madc, feasible_fraction and
elapsed, and a coeffs list of dim numbers.  A final line without its
newline is what a kill mid-write leaves; it ends the log and is never
parsed.  :func:`scan` holds these rules once, and :func:`read` is the one
call that reads a log by them: over the whole log, or over its head while a
child process scans its tail.  ``optimizer`` builds the records and writes
the log.

The module imports only the standard library and orjson, so the child runs
this file by path, ``python -I -S logscan.py ORJSON_PARENT LOG START DIM``,
without importing the package or numpy.  ``-I`` keeps the environment and
the script's directory out of its ``sys.path``; ``-S`` skips ``site``
(~30 ms of a ~70 ms start on a 2-vCPU Xeon, most of it ``.pth`` files), so
the directory holding orjson comes as the first argument.
"""

from __future__ import annotations

import os
import struct
import sys

if __name__ == "__main__":
    # the child runs isolated and without site (-I -S): its parent names orjson's directory
    sys.path.append(sys.argv.pop(1))

import orjson  # noqa: E402

LOG_FIELDS = ("trial_id", "phase", "score", "madc", "feasible_fraction", "coeffs", "elapsed")
_NUMERIC_FIELDS = ("score", "madc", "feasible_fraction", "elapsed")
_PHASES = ("qmc", "refine")
_NUMBER_TYPES = (int, float)

# Trial logs from this size up are read by two processes (see read), split
# at the first line start after this fraction of their bytes.  Split and serial
# parses of the first 1000-3000 records of a full-scale log (18.7-56 MB), nine
# alternating fresh-process rounds on a 2-vCPU Xeon, medians in ms (split wins):
# 109 vs 85 at 18.7 MB (1 of 9), 129 vs 143 at 28 MB (6), 155 vs 178 at 37 MB
# (7), 171 vs 243 at 47 MB (8), 209 vs 283 at 56 MB (9).  The child's ~40 ms
# start and the pipe are paid back from ~25 MB on; the threshold leaves a
# margin for a second CPU that other work slows.
_SPLIT_MIN_BYTES = 48 << 20
_SPLIT_FRACTION = 0.5
_ORJSON_PARENT = os.path.dirname(os.path.dirname(orjson.__file__))


class CorruptTrialLog(ValueError):
    """Trial log cannot be resumed; carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"trial log line {line_no}: {reason}")
        self.line_no = line_no


def scan(lines, dim: int, first_id) -> tuple:
    """(heads, coeffs, torn, refusal) of log lines whose first has trial_id ``first_id``.

    ``heads`` holds each accepted record's (trial_id, phase, score, madc,
    feasible_fraction, elapsed), ``coeffs`` each one's coefficients as a
    ``bytes`` of dim native float64s.  ``torn`` is the length of an
    unterminated final line, 0 if there is none.  The scan stops at the
    first line that breaks a rule; ``refusal`` is then (its index among
    ``lines``, reason), else None.

    With ``first_id`` None, the first line's trial_id is taken as its own
    and the ids that follow are checked against it: the caller, who knows
    the line's index in the log, checks that line again with its real id.

    Lines are decoded with orjson, equal to ``json.loads`` bit for bit on
    finite floats but stricter: NaN, Infinity, literals that overflow a
    double (1e400) and invalid UTF-8 are refused.  A coeffs list is packed
    by one ``struct`` call with no Python step per number: a float, int or
    bool packs (``true`` as 1.0); a str, ``null``, list or dict among the
    numbers, a list of another length, or a coeffs value that is no list
    is refused, as pack turns no string into a number and no null into NaN.
    """
    pack = struct.Struct(f"={dim}d").pack
    heads = []
    coeffs = []
    expected = first_id
    for index, line in enumerate(lines):
        if not line.endswith(b"\n"):
            return heads, coeffs, len(line), None
        if line.isspace():
            return heads, coeffs, 0, (index, "blank line")
        try:
            raw = orjson.loads(line)
        except orjson.JSONDecodeError as exc:
            return heads, coeffs, 0, (index, f"invalid JSON ({exc.msg})")
        if type(raw) is not dict:
            return heads, coeffs, 0, (index, f"not a JSON object: {type(raw).__name__}")
        if tuple(raw) != LOG_FIELDS:
            return heads, coeffs, 0, (index, f"unexpected fields {sorted(raw)}")
        trial_id = raw["trial_id"]
        if expected is None:
            expected = trial_id
        if type(trial_id) is not int or trial_id != expected:
            return heads, coeffs, 0, (index, f"trial_id {trial_id!r} is not {expected}")
        if raw["phase"] not in _PHASES:
            return heads, coeffs, 0, (index, f"unknown phase {raw['phase']!r}")
        for name in _NUMERIC_FIELDS:
            if type(raw[name]) not in _NUMBER_TYPES:
                return heads, coeffs, 0, (index, f"{name} {raw[name]!r} is not a number")
        try:
            coeffs.append(pack(*raw["coeffs"]))
        except (struct.error, TypeError):
            return heads, coeffs, 0, (index, f"coeffs is not a list of {dim} numbers")
        heads.append((trial_id, raw["phase"], raw["score"], raw["madc"], raw["feasible_fraction"], raw["elapsed"]))
        expected += 1
    return heads, coeffs, 0, None


def read(log_path, dim: int):
    """Yield (heads, coeffs, torn) of each range of the log that is read, in file order.

    ``heads`` and ``coeffs`` are :func:`scan`'s; ``torn``, the length of an
    unterminated final line, is 0 but in the last range.  The first line
    that breaks a rule raises CorruptTrialLog with its line number in the
    file, after the ranges before it were yielded.

    A log is one range, unless it has ``_SPLIT_MIN_BYTES`` or more and this
    process may run on two CPUs (:func:`_split_offset`): then a child scans
    the lines from a line start near the middle while this process scans
    and yields the lines before it, and the child's lines are the second
    range.  The child cannot know its first line's number, so that line is
    scanned here again with its real trial_id.  A child that cannot start
    or that fails has its lines scanned here, and the child is stopped
    however the read ends, the generator's close included.  Either way the
    same lines are accepted and refused, with the same line numbers and
    reasons.

    The file is read through a 1 MiB buffer: a full-scale line is ~18.6 KB,
    and through the default 8 KiB buffer reading the lines of a
    10,000-record log takes 0.22 s instead of 0.04 s.
    """
    with open(log_path, "rb", buffering=1 << 20) as fh:
        split = _split_offset(fh)
        child = None if split is None else _start_tail_scan(log_path, split, dim)
        try:
            heads, coeffs, torn, refusal = scan(fh if split is None else _lines_before(fh, split), dim, 0)
            _refuse(0, refusal)
            yield heads, coeffs, torn
            if split is None:
                return
            base = len(heads)
            _refuse(base, scan([fh.readline()], dim, base)[3])
            tail = None if child is None else _tail_result(child, dim)
            if tail is None:
                fh.seek(split)
                tail = scan(fh, dim, base)
            heads, coeffs, torn, refusal = tail
            _refuse(base, refusal)
            yield heads, coeffs, torn
        finally:
            if child is not None:
                _stop(child)


def _refuse(base: int, refusal) -> None:
    """Raise a scan's refusal as CorruptTrialLog; ``base`` lines precede the scanned ones."""
    if refusal is not None:
        raise CorruptTrialLog(base + refusal[0] + 1, refusal[1])


def _split_offset(fh) -> int | None:
    """Where the child's tail of the log opened as ``fh`` starts, or None to read it all here.

    A log of at least ``_SPLIT_MIN_BYTES`` is split when this process may
    run on two CPUs (where ``os.sched_getaffinity`` can tell), at the first
    line start after ``_SPLIT_FRACTION`` of its bytes; a split with nothing
    after it is none.
    """
    size = os.fstat(fh.fileno()).st_size
    if size < _SPLIT_MIN_BYTES or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    fh.seek(int(size * _SPLIT_FRACTION))
    fh.readline()
    split = fh.tell()
    fh.seek(0)
    return split if split < size else None


def _lines_before(fh, stop: int):
    """The lines of ``fh`` from its position up to byte ``stop``, a line start."""
    pos = fh.tell()
    while pos < stop:
        line = fh.readline()
        pos += len(line)
        yield line


def _start_tail_scan(log_path, split: int, dim: int):
    """The child running this file over the log from byte ``split``, or None if it cannot start.

    ``subprocess`` is imported here, on the first split, so no command pays
    its ~5 ms import at start.
    """
    import subprocess

    try:
        return subprocess.Popen(
            [sys.executable, "-I", "-S", __file__, _ORJSON_PARENT, os.fspath(log_path), str(split), str(dim)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=1 << 20,
        )
    except OSError:
        return None


def _tail_result(child, dim: int) -> tuple | None:
    """:func:`scan`'s result as the child pipes it back (see :func:`main`), or None if the child failed.

    Each record's coefficients are read as a ``bytes`` of their own, so a
    record kept alone keeps only its own.  After a refusal they are not
    read, and the child is left blocked on its pipe for :func:`_stop`.
    """
    try:
        header = orjson.loads(child.stdout.readline())
        heads, torn, refusal = header["heads"], header["torn"], header["refusal"]
        if refusal is not None:
            return [], [], torn, refusal
        read, size = child.stdout.read, dim * 8
        coeffs = [read(size) for _ in heads]
    except (orjson.JSONDecodeError, KeyError, TypeError, OSError):
        return None
    # a read comes short only at the end of the stream, after which all are empty
    if (coeffs and len(coeffs[-1]) != size) or child.wait() != 0:
        return None
    return heads, coeffs, torn, None


def _stop(child) -> None:
    """End the child, killing it if it still runs, and reap it."""
    if child.poll() is None:
        child.kill()
    child.stdout.close()
    child.wait()


def main(argv: list) -> None:
    """The child: scan the log ``argv[0]`` from byte ``argv[1]`` (a line start) for dim ``argv[2]``.

    It writes one orjson header line, ``{"heads": [...], "torn": n,
    "refusal": [index, reason] or null}``, then, unless it refused a line,
    each accepted record's packed coefficients in order.
    """
    path, start, dim = argv[0], int(argv[1]), int(argv[2])
    with open(path, "rb", buffering=1 << 20) as fh:
        fh.seek(start)
        heads, coeffs, torn, refusal = scan(fh, dim, None)
    out = sys.stdout.buffer
    out.write(orjson.dumps({"heads": heads, "torn": torn, "refusal": refusal}) + b"\n")
    if refusal is None:
        out.writelines(coeffs)
    out.flush()


if __name__ == "__main__":
    main(sys.argv[1:])

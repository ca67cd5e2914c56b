"""The line rules of a trial log, and the scan of a log's tail as a process of its own.

Every newline-terminated line of a log must be a record: a JSON object with
exactly the fields of ``LOG_FIELDS`` in order, an int trial_id equal to its
line index, a known phase, numeric score, madc, feasible_fraction and
elapsed, and a coeffs list of dim numbers.  A final line without its
newline is what a kill mid-write leaves; it ends the scan and is never
parsed.  :func:`scan` holds these rules once: the trial reader
(``optimizer._parse_log``) runs it over a whole log, or over a log's head
while a child process runs it over the tail.

The module imports only the standard library and orjson, so the child runs
it by file path, ``python -I -S logscan.py ORJSON_PARENT LOG START DIM``,
without importing the package or numpy.  ``-I`` keeps the environment and
the script's directory out of its ``sys.path``; ``-S`` skips ``site``
(~30 ms of a ~70 ms start on a 2-vCPU Xeon, most of it ``.pth`` files), so
the directory holding orjson comes as the first argument.  The child
writes one orjson header line, ``{"heads": [...], "torn": n, "refusal":
[index, reason] or null}``, then, unless it refused a line, each accepted
record's packed coefficients in order.
"""

from __future__ import annotations

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


def main(argv: list) -> None:
    """Scan the log ``argv[0]`` from byte ``argv[1]`` (a line start) for dim ``argv[2]``; write the result."""
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

"""Correctness checks of the end-to-end benchmark.

- ``compare_sam``: per-read comparison of a SAM file with the full-band
  oracle (header lines compared too, except ``@PG``, which carries the
  command line).
- ``mapped_correct``: placement against the simulator's truth sidecar.
- ``check_layer_sum``: the per-layer busy times of a single-threaded
  traced run must add up to its wall time.
"""

import re

# Unclipped leftmost position within this many bases of the simulated
# origin counts as correctly placed; the longest simulated indel is 40 bp.
PLACEMENT_TOLERANCE = 50
LAYER_SUM_TOLERANCE = 0.05

_LEADING_CLIP = re.compile(rb"^(\d+)S")


class CheckError(Exception):
    """A self-check of the benchmark failed; the run must not report."""


def split_sam(data):
    """(header lines without @PG, record lines) of SAM bytes."""
    header, records = [], []
    for line in data.split(b"\n"):
        if not line:
            continue
        if line.startswith(b"@"):
            if not line.startswith(b"@PG"):
                header.append(line)
        else:
            records.append(line)
    return header, records


def body_without_pg(data):
    """SAM bytes minus the @PG line: what must equal the oracle's. Only
    the header can hold @PG lines, so the records are sliced, not split."""
    end = 0
    while data.startswith(b"@", end):
        nl = data.find(b"\n", end)
        end = len(data) if nl < 0 else nl + 1
    header = b"".join(l for l in data[:end].splitlines(keepends=True)
                      if not l.startswith(b"@PG"))
    return header + data[end:]


def _record_key(fields):
    flag = int(fields[1])
    mate = 1 if flag & 0x40 else 2 if flag & 0x80 else 0
    return fields[0], mate


def _parse_record(line):
    """Key and fields of one SAM record; None if malformed."""
    fields = line.split(b"\t")
    if len(fields) < 11:
        return None
    try:
        int(fields[1]), int(fields[3]), int(fields[4])
        int(fields[7]), int(fields[8])
    except ValueError:
        return None
    return _record_key(fields), fields


def compare_sam(test, oracle):
    """Number of oracle reads whose record in `test` (SAM bytes) is
    missing, malformed or different; records in `test` the oracle does
    not have count too. A header mismatch or a truncated last line fails
    every read."""
    if body_without_pg(test) == body_without_pg(oracle):
        return 0
    o_header, o_records = split_sam(oracle)
    t_header, t_records = split_sam(test)
    if t_header != o_header or (test and not test.endswith(b"\n")):
        return len(o_records)
    expected = {}
    for line in o_records:
        parsed = _parse_record(line)
        if parsed is None:
            raise CheckError("oracle SAM has a malformed record")
        expected[parsed[0]] = line
    # A malformed line leaves its read unmatched; a duplicate or unknown
    # record counts on its own.
    seen, extra = set(), 0
    good = 0
    for line in t_records:
        parsed = _parse_record(line)
        if parsed is None:
            continue
        if parsed[0] in seen or parsed[0] not in expected:
            extra += 1
            continue
        seen.add(parsed[0])
        good += expected[parsed[0]] == line
    failed = len(expected) - good + extra
    return min(max(failed, 1), len(o_records))


def read_truth(path):
    """{(name, mate): (origin, reverse)} from a truth sidecar."""
    truth = {}
    with open(path, "rb") as f:
        for line in f:
            name, mate, pos, strand = line.rstrip(b"\n").split(b"\t")
            truth[(name, int(mate))] = (int(pos), strand == b"-")
    return truth


def mapped_correct(sam, truth):
    """Share of truth reads placed on the true strand with the unclipped
    leftmost base within PLACEMENT_TOLERANCE of the origin."""
    correct = 0
    for line in split_sam(sam)[1]:
        parsed = _parse_record(line)
        if parsed is None:
            continue
        key, fields = parsed
        flag = int(fields[1])
        if flag & 0x4 or key not in truth:
            continue
        origin, reverse = truth[key]
        clip = _LEADING_CLIP.match(fields[5])
        start = int(fields[3]) - 1 - (int(clip.group(1)) if clip else 0)
        if bool(flag & 0x10) == reverse and \
                abs(start - origin) <= PLACEMENT_TOLERANCE:
            correct += 1
    return correct / len(truth)


def check_layer_sum(layers, wall_s, tolerance=LAYER_SUM_TOLERANCE):
    """Sum of layer busy seconds over the traced wall time; raises
    CheckError unless it is within `tolerance` of 1."""
    frac = sum(layers.values()) / wall_s
    if abs(frac - 1.0) > tolerance:
        raise CheckError(
            f"layers sum to {frac:.3f} of the traced wall time "
            f"(allowed 1 +/- {tolerance}): "
            + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(layers.items())))
    return frac

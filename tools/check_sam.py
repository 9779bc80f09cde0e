#!/usr/bin/env python3
"""Validate a SAM file produced by `seedex align`.

Checks the spec-level invariants the CLI promises (CI gate for the
end-to-end job):

  - header: @HD first line with a VN, at least one @SQ with SN/LN,
    and a @PG identifying the producing program
  - every alignment line has the 11 mandatory columns, a QNAME matching
    the spec's [!-?A-~]{1,254} (no whitespace, so a FASTQ description
    cannot leak into it), and integer FLAG, POS, MAPQ, PNEXT and TLEN
  - mapped records: RNAME is a declared contig, 1 <= POS <= LN, the
    CIGAR's query-consuming length equals len(SEQ), and the record's
    reference span stays inside the contig
  - unmapped records (flag 0x4): RNAME '*', POS 0, MAPQ 0, CIGAR '*',
    TLEN 0
  - with --expect-reads N: exactly N alignment lines (every read
    accounted for)
  - with --paired: records come as adjacent same-QNAME mate pairs, and
    the pair bookkeeping is reciprocal — 0x1 on both mates, exactly one
    0x40 and one 0x80, 0x8/0x20 mirroring the partner's 0x4/0x10,
    symmetric 0x2 implying a same-contig opposite-strand pair, PNEXT
    equal to the mate's POS, RNEXT '=' on one contig (the mate's RNAME
    across contigs, where TLEN must be 0), and TLEN summing to zero
    with the leftmost mate positive (0x40 positive on exact ties)

Exit code 0 when clean, 1 with a diagnostic on the first violation.
"""

import argparse
import re
import sys

CIGAR_RE = re.compile(r"^(\d+[MIDNSHP=X])+$")
QNAME_RE = re.compile(r"[!-?A-~]{1,254}")
INT_RE = re.compile(r"-?[0-9]+")
QUERY_OPS = set("MIS=X")
REF_OPS = set("MDN=X")


def fail(msg, line_no=None):
    where = f" (line {line_no})" if line_no is not None else ""
    print(f"check_sam: FAIL{where}: {msg}", file=sys.stderr)
    sys.exit(1)


def cigar_lengths(cigar):
    query = ref = 0
    for count, op in re.findall(r"(\d+)([MIDNSHP=X])", cigar):
        n = int(count)
        if op in QUERY_OPS:
            query += n
        if op in REF_OPS:
            ref += n
    return query, ref


def check_pair(a, b):
    """Validate the reciprocal bookkeeping of one adjacent mate pair.

    `a` and `b` are (line_no, qname, flag, rname, pos, rnext, pnext,
    tlen) tuples for the two records.
    """
    (a_no, a_qname, a_flag, a_rname, a_pos, a_rnext, a_pnext, a_tlen) = a
    (b_no, b_qname, b_flag, b_rname, b_pos, b_rnext, b_pnext, b_tlen) = b
    if a_qname != b_qname:
        fail(f"adjacent records {a_qname!r} / {b_qname!r} are not a "
             f"QNAME-matched pair", b_no)
    if not (a_flag & 0x1) or not (b_flag & 0x1):
        fail(f"{a_qname}: pair without 0x1 on both mates", b_no)
    firsts = bool(a_flag & 0x40) + bool(b_flag & 0x40)
    seconds = bool(a_flag & 0x80) + bool(b_flag & 0x80)
    if firsts != 1 or seconds != 1:
        fail(f"{a_qname}: need exactly one 0x40 and one 0x80 mate, got "
             f"flags {a_flag}/{b_flag}", b_no)
    for (no, qn, flag, _, _, _, _, _), (_, _, mflag, _, _, _, _, _) in (
            (a, b), (b, a)):
        if bool(flag & 0x8) != bool(mflag & 0x4):
            fail(f"{qn}: 0x8 (mate-unmapped) does not mirror the "
                 f"mate's 0x4", no)
        want_mrev = not (mflag & 0x4) and bool(mflag & 0x10)
        if bool(flag & 0x20) != want_mrev:
            fail(f"{qn}: 0x20 (mate-reverse) does not mirror the "
                 f"mate's strand", no)
    if bool(a_flag & 0x2) != bool(b_flag & 0x2):
        fail(f"{a_qname}: asymmetric 0x2 (proper-pair) flags", b_no)
    if a_flag & 0x2:
        if (a_flag & 0x4) or (b_flag & 0x4):
            fail(f"{a_qname}: proper pair with an unmapped mate", b_no)
        if a_rname != b_rname:
            fail(f"{a_qname}: proper pair across contigs "
                 f"{a_rname}/{b_rname}", b_no)
        if bool(a_flag & 0x10) == bool(b_flag & 0x10):
            fail(f"{a_qname}: proper pair on one strand", b_no)
    if not (a_flag & 0x4) and not (b_flag & 0x4):
        if a_pnext != b_pos or b_pnext != a_pos:
            fail(f"{a_qname}: PNEXT {a_pnext}/{b_pnext} do not point at "
                 f"mate POS {b_pos}/{a_pos}", b_no)
        if a_rname == b_rname:
            if a_rnext != "=" or b_rnext != "=":
                fail(f"{a_qname}: same-contig pair must use RNEXT '=', "
                     f"got {a_rnext}/{b_rnext}", b_no)
            if a_tlen + b_tlen != 0 or a_tlen == 0:
                fail(f"{a_qname}: TLEN {a_tlen}/{b_tlen} not reciprocal "
                     f"sum-to-zero", b_no)
            plus, minus = (a, b) if a_tlen > 0 else (b, a)
            if plus[4] > minus[4]:
                fail(f"{a_qname}: positive TLEN on the rightmost mate",
                     b_no)
            if plus[4] == minus[4] and not (plus[2] & 0x40):
                fail(f"{a_qname}: POS tie must give 0x40 the positive "
                     f"TLEN", b_no)
        else:
            if a_rnext != b_rname or b_rnext != a_rname:
                fail(f"{a_qname}: cross-contig RNEXT must name the "
                     f"mate's contig", b_no)
            if a_tlen != 0 or b_tlen != 0:
                fail(f"{a_qname}: cross-contig pair must have TLEN 0",
                     b_no)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sam", help="SAM file to validate")
    parser.add_argument("--expect-reads", type=int, default=None,
                        help="exact number of alignment lines required")
    parser.add_argument("--paired", action="store_true",
                        help="require adjacent mate pairs with "
                             "reciprocal pair bookkeeping")
    args = parser.parse_args()

    contigs = {}
    saw_hd = saw_pg = False
    n_records = n_mapped = n_proper = 0
    in_header = True
    pending = None  # first mate of the pair being assembled (--paired)

    with open(args.sam, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if line.startswith("@"):
                if not in_header:
                    fail("header line after alignment lines", line_no)
                tag = line.split("\t", 1)[0]
                if line_no == 1:
                    if tag != "@HD" or "VN:" not in line:
                        fail("first line must be @HD with VN:", line_no)
                    saw_hd = True
                elif tag == "@SQ":
                    fields = dict(f.split(":", 1)
                                  for f in line.split("\t")[1:]
                                  if ":" in f)
                    if "SN" not in fields or "LN" not in fields:
                        fail("@SQ without SN/LN", line_no)
                    if re.search(r"\s", fields["SN"]):
                        fail(f"@SQ SN contains whitespace: "
                             f"{fields['SN']!r}", line_no)
                    if fields["SN"] in contigs:
                        fail(f"duplicate @SQ SN:{fields['SN']}", line_no)
                    contigs[fields["SN"]] = int(fields["LN"])
                elif tag == "@PG":
                    saw_pg = True
                continue

            if in_header:
                in_header = False
                if not saw_hd:
                    fail("missing @HD header")
                if not contigs:
                    fail("missing @SQ lines")
                if not saw_pg:
                    fail("missing @PG line")

            fields = line.split("\t")
            if len(fields) < 11:
                fail(f"{len(fields)} columns (need 11)", line_no)
            qname, flag, rname, pos, mapq, cigar = fields[:6]
            rnext, pnext, tlen, seq = fields[6:10]
            if not QNAME_RE.fullmatch(qname):
                fail(f"QNAME {qname!r} does not match [!-?A-~]{{1,254}}",
                     line_no)
            numbers = {"FLAG": flag, "POS": pos, "MAPQ": mapq,
                       "PNEXT": pnext, "TLEN": tlen}
            for column, text in numbers.items():
                if not INT_RE.fullmatch(text):
                    fail(f"{qname}: {column} {text!r} is not an integer",
                         line_no)
            flag, pos, mapq, pnext, tlen = (int(flag), int(pos), int(mapq),
                                            int(pnext), int(tlen))
            n_records += 1

            if args.paired:
                rec = (line_no, qname, flag, rname, pos, rnext, pnext,
                       tlen)
                if pending is None:
                    pending = rec
                else:
                    check_pair(pending, rec)
                    pending = None
                if flag & 0x2:
                    n_proper += 1

            if flag & 0x4:
                if (rname, pos, mapq, cigar, tlen) != ("*", 0, 0, "*", 0):
                    fail(f"unmapped {qname}: RNAME/POS/MAPQ/CIGAR/TLEN "
                         f"must be */0/0/*/0, got {rname}/{pos}/{mapq}/"
                         f"{cigar}/{tlen}", line_no)
                continue

            n_mapped += 1
            if rname not in contigs:
                fail(f"{qname}: RNAME {rname!r} not declared in @SQ",
                     line_no)
            if not CIGAR_RE.match(cigar):
                fail(f"{qname}: malformed CIGAR {cigar!r}", line_no)
            query_len, ref_len = cigar_lengths(cigar)
            if seq != "*" and query_len != len(seq):
                fail(f"{qname}: CIGAR consumes {query_len} query bases "
                     f"but SEQ is {len(seq)}", line_no)
            if not 1 <= pos <= contigs[rname]:
                fail(f"{qname}: POS {pos} outside {rname} "
                     f"[1, {contigs[rname]}]", line_no)
            if pos + ref_len - 1 > contigs[rname]:
                fail(f"{qname}: alignment end {pos + ref_len - 1} past "
                     f"{rname} length {contigs[rname]}", line_no)
            if not 0 <= mapq <= 60:
                fail(f"{qname}: MAPQ {mapq} outside [0, 60]", line_no)

    if n_records == 0:
        fail("no alignment lines")
    if args.expect_reads is not None and n_records != args.expect_reads:
        fail(f"{n_records} alignment lines, expected {args.expect_reads}")
    if args.paired and pending is not None:
        fail(f"odd record count {n_records}: last pair is incomplete",
             pending[0])

    paired_note = (f", {n_proper // 2} proper pair(s)"
                   if args.paired else "")
    print(f"check_sam: ok: {n_records} records ({n_mapped} mapped, "
          f"{n_records - n_mapped} unmapped){paired_note}, "
          f"{len(contigs)} contig(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

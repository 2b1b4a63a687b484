#!/usr/bin/env python3
"""Static encode/decode symmetry lint for the wire boundary.

The HNS bridges heterogeneous systems by marshalling everything through
hand-paired Encode*/Decode* routines (src/wire, src/hns/wire_protocol.cc,
src/bindns/protocol.cc, src/bindns/record.cc). Those pairs drift silently:
add a field to Encode and forget Decode, or read fields out of write order,
and the bug only surfaces when a *differently built* peer parses the bytes —
exactly the heterogeneity boundary the paper's NSMs exist to bridge.

This lint cross-checks every pair statically:

  * every `X::Encode` / `X::EncodeTo` has a matching `X::Decode` /
    `X::DecodeFrom` in the scanned files, and vice versa;
  * within a pair, the sequence of XDR primitive operations must agree —
    `enc.PutString(...)` must be read back by `dec.GetString(...)` in the
    same position. Encode/Decode helper pairs (`EncodeRecords(&enc, ...)` /
    `DecodeRecords(&dec)`) and nested `EncodeTo(enc)` / `DecodeFrom(&dec)`
    calls match each other as single tokens;
  * functions with control flow (if/switch/loops) cannot be sequenced
    statically; for those the *set* of primitive kinds must agree, so a
    field type added on one side only is still caught;
  * every Decode side must consume its decoder's error state before it can
    return OK: a statement calling `dec.Get*(...)` must propagate the
    Result (HCS_ASSIGN_OR_RETURN / HCS_RETURN_IF_ERROR / return) or bind it
    to a variable in a body that visibly checks `.ok()`/`.status()`. A
    discarded Get is a decode error that silently becomes OK-with-garbage.
    Same control-flow caveat as the kind check: the consumption test is
    set-level per statement/body, not path-sensitive;
  * every two-sided pair must be exercised by the deterministic
    truncation/corruption sweep (tests/decode_sweep_test.cc): the class
    name has to appear there, so a newly added message type cannot ship
    without sweep coverage.

Exit status 0 = clean; 1 = violations (printed one per line); 2 = usage.

Usage: lint_wire.py [repo_root]
       lint_wire.py --list-pairs [repo_root]   (print the discovered pairs)

The stripping / brace-matching plumbing lives in lintlib.py, shared by
every lint in tools/.
"""

import os
import re
import sys

from lintlib import line_of, match_brace_block, strip_comments_and_strings

# Files whose Encode/Decode pairs are checked. xdr.cc defines the primitive
# layer itself and is deliberately excluded.
SCAN_FILES = [
    "src/wire/value.cc",
    "src/wire/idl.cc",
    "src/wire/courier.cc",
    "src/wire/buffer.cc",
    "src/hns/wire_protocol.cc",
    "src/bindns/protocol.cc",
    "src/bindns/record.cc",
    "src/rpc/context.cc",
    "src/ch/protocol.cc",
]

# The deterministic truncation/corruption sweep; every two-sided pair found
# here must be covered there (checked in main()).
SWEEP_TEST = "tests/decode_sweep_test.cc"

ENCODE_NAMES = {"Encode": "Decode", "EncodeTo": "DecodeFrom"}
DECODE_NAMES = {v: k for k, v in ENCODE_NAMES.items()}

# Primitive kinds that must mirror each other (Put<k> on the encode side,
# Get<k> on the decode side). GetFixedOpaque takes an explicit length, so
# both spellings map to the same token.
KIND_ALIASES = {
    "U32": "Uint32",
    "U64": "Uint64",
}


def extract_functions(text):
    """Yields (class, method, body, line) for Encode/Decode definitions."""
    pattern = re.compile(
        r"\b(\w+)::(Encode|EncodeTo|Decode|DecodeFrom)\s*\([^)]*\)[^{;]*\{"
    )
    for m in pattern.finditer(text):
        start = m.end() - 1
        body = text[start:match_brace_block(text, start)]
        yield m.group(1), m.group(2), body, line_of(text, m.start())


OP_PATTERNS = [
    # enc.PutString(...) / enc->PutUint32(...) -> ('prim', kind)
    (re.compile(r"\benc\w*\s*(?:\.|->)\s*Put(\w+)\s*\("), "put"),
    (re.compile(r"\bdec\w*\s*(?:\.|->)\s*Get(\w+)\s*\("), "get"),
    # Helper pairs: EncodeRecords(&enc, ...) / DecodeRecords(&dec) -> kind "::Records"
    (re.compile(r"\bEncode(?!To\b)(\w+)\s*\(\s*&?enc"), "put-helper"),
    (re.compile(r"\bDecode(?!From\b)(\w+)\s*\(\s*&?dec"), "get-helper"),
    # Nested records: x.EncodeTo(enc) / T::DecodeFrom(dec) -> kind "::Nested"
    (re.compile(r"\bEncodeTo\s*\(\s*&?enc"), "put-nested"),
    (re.compile(r"\bDecodeFrom\s*\(\s*&?dec"), "get-nested"),
]


def op_sequence(body, side):
    """Extracts the ordered primitive-operation tokens for one side."""
    want = {"put", "put-helper", "put-nested"} if side == "put" else {
        "get", "get-helper", "get-nested"}
    ops = []
    for pattern, tag in OP_PATTERNS:
        if tag not in want:
            continue
        for m in pattern.finditer(body):
            if tag in ("put", "get"):
                kind = KIND_ALIASES.get(m.group(1), m.group(1))
            elif tag in ("put-helper", "get-helper"):
                kind = "::" + m.group(1)
            else:
                kind = "::Nested"
            ops.append((m.start(), kind))
    ops.sort()
    return [kind for _, kind in ops]


BRANCHY = re.compile(r"\b(if|switch|for|while)\s*\(")

GET_CALL = re.compile(r"(?:\.|->)\s*Get\w+\s*\(")
CONSUMES = re.compile(r"HCS_ASSIGN_OR_RETURN|HCS_RETURN_IF_ERROR|\breturn\b")
CHECKS_STATE = re.compile(r"\.\s*(?:ok|status)\s*\(")


def check_decoder_error_state(cls, decode_name, body, rel, line, errors):
    """Flags Get* statements whose Result can be lost on the way to OK."""
    body_checks = bool(CHECKS_STATE.search(body))
    offset = 0
    for stmt in body.split(";"):
        stmt_line = line + body.count("\n", 0, offset)
        offset += len(stmt) + 1
        if not GET_CALL.search(stmt):
            continue
        if CONSUMES.search(stmt):
            continue
        if "=" in stmt and body_checks:
            # Bound to a variable in a body that checks ok()/status()
            # somewhere (set-level; branches are not followed).
            continue
        errors.append(
            f"{rel}:{stmt_line}: {cls}::{decode_name} discards a decoder "
            f"Get* Result; a failed read can still return OK")


def main():
    argv = sys.argv[1:]
    list_pairs = "--list-pairs" in argv
    argv = [a for a in argv if a != "--list-pairs"]
    root = argv[0] if argv else "."
    if len(argv) > 1:
        print(__doc__)
        return 2

    errors = []
    # (class, base-pair-name) -> {"put": (seq, branchy, file, line), "get": ...}
    pairs = {}

    for rel in SCAN_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            errors.append(f"{rel}: file listed in SCAN_FILES does not exist")
            continue
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for cls, method, body, line in extract_functions(text):
            side = "put" if method in ENCODE_NAMES else "get"
            pair_name = method if side == "put" else DECODE_NAMES[method]
            key = (cls, pair_name)
            seq = op_sequence(body, side)
            branchy = bool(BRANCHY.search(body))
            if side == "get":
                check_decoder_error_state(cls, method, body, rel, line, errors)
            entry = pairs.setdefault(key, {})
            if side in entry:
                # Overload (e.g. Decode(Bytes) delegating to DecodeFrom):
                # keep the richer definition, it is the one doing the reads.
                if len(seq) <= len(entry[side][0]):
                    continue
            entry[side] = (seq, branchy, rel, line)

    for (cls, pair_name), entry in sorted(pairs.items()):
        decode_name = ENCODE_NAMES[pair_name]
        if "put" not in entry:
            seq, _, rel, line = entry["get"]
            # A decoder whose encoder lives out of scan scope is only an
            # error when it actually reads primitives (pure delegators pass).
            if seq:
                errors.append(
                    f"{rel}:{line}: {cls}::{decode_name} has no matching "
                    f"{cls}::{pair_name} in the scanned files")
            continue
        if "get" not in entry:
            seq, _, rel, line = entry["put"]
            if seq:
                errors.append(
                    f"{rel}:{line}: {cls}::{pair_name} has no matching "
                    f"{cls}::{decode_name} in the scanned files")
            continue

        put_seq, put_branchy, put_file, put_line = entry["put"]
        get_seq, get_branchy, get_file, get_line = entry["get"]
        where = f"{put_file}:{put_line} / {get_file}:{get_line}"

        if put_branchy or get_branchy:
            # Control flow: order is not statically comparable, but the kinds
            # used must agree (a field type written but never read, or read
            # but never written, is still drift).
            missing = set(put_seq) - set(get_seq)
            extra = set(get_seq) - set(put_seq)
            if missing:
                errors.append(
                    f"{where}: {cls}::{pair_name} writes kinds "
                    f"{sorted(missing)} that {cls}::{decode_name} never reads")
            if extra:
                errors.append(
                    f"{where}: {cls}::{decode_name} reads kinds "
                    f"{sorted(extra)} that {cls}::{pair_name} never writes")
            continue

        if put_seq != get_seq:
            errors.append(
                f"{where}: field order mismatch in {cls}: "
                f"{pair_name} writes {put_seq} but {decode_name} reads {get_seq}")

    two_sided = sorted({cls for (cls, _), e in pairs.items()
                        if "put" in e and "get" in e})
    if list_pairs:
        for cls in two_sided:
            print(cls)
        return 0

    # Sweep coverage: every two-sided pair must appear in the truncation/
    # corruption sweep so hostile-input totality is tested, not assumed.
    sweep_path = os.path.join(root, SWEEP_TEST)
    if not os.path.exists(sweep_path):
        errors.append(f"{SWEEP_TEST}: sweep test is missing; every "
                      f"encode/decode pair must be sweep-covered")
    else:
        with open(sweep_path, encoding="utf-8") as f:
            sweep_text = f.read()
        for cls in two_sided:
            if not re.search(rf"\b{cls}\b", sweep_text):
                errors.append(
                    f"{SWEEP_TEST}: encode/decode pair {cls} has no "
                    f"truncation/corruption sweep coverage")

    if errors:
        print(f"lint_wire: {len(errors)} violation(s):")
        for err in errors:
            print(f"  {err}")
        return 1
    print(f"lint_wire: {len(pairs)} encode/decode pairs symmetric across "
          f"{len(SCAN_FILES)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

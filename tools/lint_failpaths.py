#!/usr/bin/env python3
"""Cross-TU failure-path discipline lint.

The compiler half of the failure-path gate is `HCS_NODISCARD` on
hcs::Status / hcs::Result<T> plus -Werror=unused-result: a *naked* dropped
error return no longer compiles. The remaining escape hatches are exactly
the patterns a compiler cannot judge, and this lint closes them tree-wide:

  1. `(void)`-casts of a Status/Result expression must carry an auditable
     ignore tag on the same or the preceding line:

         (void)client.Call(...);  // hcs:ignore-status(best effort; TTL converges)

     The cast silences -Wunused-result; the tag records *why* that is safe.
     Which expressions are Status/Result is decided cross-TU: every header
     and source under src/ contributes its Status/Result-returning function
     and method names to one database, so `(void)obj.Call(...)` in one TU is
     matched against `Result<Bytes> Call(...)` declared in another.

  2. Decode*/Get*/Parse*/FromWire/Demarshal results (Result<T>) must be
     checked with .ok()/.status() before .value()/operator*/operator-> use,
     and never dereferenced directly off the temporary (`Decode(x).value()`).
     Scope: src/ excluding src/testbed (the sim-harness builds a controlled
     world where constructors cannot propagate Status; its setup asserts are
     covered by the tier-1 suite instead). Control-flow caveat: the scan is
     per-function and textual, like lint_wire's set-level check — a use and
     a check in mutually exclusive branches still count as checked.

  3. RPC handler lambdas registered via RegisterProcedure must not swallow a
     failed Status/Result into a success reply: an `if (!x.ok())` (or
     `if (x.ok()) ... else`) branch inside a handler must return/propagate
     the error (which RpcServer::HandleMessage encodes as a protocol-level
     error reply) or carry an ignore tag. A branch that falls through to a
     success return drops the request without telling the caller why.

  4. Ignore tags must give a reason: `hcs:ignore-status()` is rejected.

  5. FaultInjector hooks must propagate their verdict. `FilterInbound`
     returns Status, so rules 1–3 already police it; `Decide` returns a
     plain FaultDecision the compiler will happily let fall on the floor.
     A discarded Decide() — a bare statement or a (void)-cast — consumes a
     PRNG draw without acting on it: the fault silently never happens AND
     the endpoint's decision stream shifts, breaking seed replay. Every
     Decide() result must be bound or consumed, or carry an ignore tag.

  6. Batched-datagram completion counts must be consumed. recvmmsg() /
     sendmmsg() (and the tree's SendReplies wrapper) report PARTIAL
     completion through a plain int/size_t the compiler never flags: a
     sendmmsg batch of 8 may send 3 and return 3, and a caller that drops
     the count silently loses five datagrams with no error anywhere. A
     bare-statement or (void)-cast call of any of these must bind the
     count, or carry an ignore tag explaining why the shortfall is safe.

  7. CallAsync futures must be consumed. A discarded RpcFuture is a
     fired-and-forgotten RPC: the call still goes on the wire, but its
     result — including the error that explains the outage you are
     debugging — evaporates, and nothing observes completion. The class is
     HCS_NODISCARD, so a naked discard fails to compile; this rule closes
     the escape hatches: a bare-statement CallAsync(...) call, a
     (void)-cast of the call, and a (void)-cast of an RpcFuture variable
     all require an ignore tag (Wait(), WaitFor(), ready(), or OnComplete()
     are the intended consumers).

  8. Datagram syscalls go through the mmsg wrappers. In src/, sendto,
     recvfrom, sendmsg, recvmsg, sendmmsg and recvmmsg may be called only
     in src/rpc/mmsg.cc, whose wrappers count every datagram toward its
     side (UdpIoSnapshot). A call anywhere else is a datagram path those
     counters never see, and the start of a second client or server path:
     it needs an `// hcs:raw-datagram(reason)` tag on its line or the line
     above, and the reason may not be empty.

Exit status 0 = clean; 1 = violations (one per line); 2 = usage.

Usage: lint_failpaths.py [repo_root]
       lint_failpaths.py --self-test   (seeds violations, checks they fire)

The stripping / brace-matching / self-test plumbing lives in lintlib.py,
shared by every lint in tools/.
"""

import os
import re
import sys
import tempfile

import lintlib
from lintlib import (call_is_bare_statement, iter_files, line_of,
                     match_brace_block, strip_comments_and_strings)

SRC_DIRS = ["src"]
# (void)-cast and empty-reason checks also cover the test/bench/example
# trees: a silently dropped Status in a test is a test that cannot fail.
VOID_DIRS = ["src", "tests", "bench", "examples", "tools"]
# Decode-before-ok scope (see module docstring for the testbed carve-out).
DECODE_CHECK_EXCLUDE = ["src/testbed"]

IGNORE_TAG = re.compile(r"hcs:ignore-status\(([^)]*)\)")
EMPTY_TAG = re.compile(r"hcs:ignore-status\(\s*\)")

# Return types that make a function part of the failure path.
SR_RETURN = r"(?:Status|Result<(?:[^<>;]|<[^<>;]*>)*>)"

# A declaration or definition returning Status/Result. Catches annotated
# header declarations, plain .cc definitions (`Result<X> Class::Name(`),
# and file-local helpers in anonymous namespaces.
SR_DECL = re.compile(
    r"^\s*(?:HCS_NODISCARD\s+)?(?:static\s+|virtual\s+|inline\s+)*"
    rf"{SR_RETURN}\s+(?:[\w:]+::)?(\w+)\s*\(",
    re.MULTILINE,
)

# Callee names whose Result must visibly pass an ok()/status() check before
# the value is touched (rule 2).
DECODE_NAME = re.compile(r"^(Decode|Get|Parse|FromWire$|Demarshal)")

# Rule 8: the datagram syscalls, called by name (a member call such as
# `socket.Send(` or a qualified `ns::sendto(` is not the libc function), and
# the one file allowed to make them.
DATAGRAM_CALL = re.compile(
    r"(?<![\w.>:])(?:::)?(sendto|recvfrom|sendmsg|recvmsg|sendmmsg|recvmmsg)\s*\(")
RAW_DATAGRAM_TAG = re.compile(r"hcs:raw-datagram\(\s*[^)\s][^)]*\)")
EMPTY_RAW_DATAGRAM_TAG = re.compile(r"hcs:raw-datagram\(\s*\)")
MMSG_HOME = "src/rpc/mmsg.cc"

VOID_CALL = re.compile(r"\(void\)\s*([\w.\->:()\[\]]*?)(\w+)\s*\(")
VOID_IDENT = re.compile(r"\(void\)\s*(\w+)\s*;")


def build_sr_database(root):
    """Names of functions/methods returning Status or Result, tree-wide."""
    names = set()
    for path in iter_files(root, SRC_DIRS):
        with open(path, encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for m in SR_DECL.finditer(text):
            names.add(m.group(1))
    return names


def has_tag(raw_lines, lineno):
    return lintlib.has_tag(raw_lines, lineno, IGNORE_TAG)


def check_void_casts(root, sr_names, errors):
    for path in iter_files(root, VOID_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        for m in VOID_CALL.finditer(text):
            callee = m.group(2)
            if callee not in sr_names:
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards Status/Result of "
                    f"{callee}() without an // hcs:ignore-status(reason) tag")

        for m in VOID_IDENT.finditer(text):
            ident = m.group(1)
            # Only a violation when the identifier is a local declared as
            # Status/Result (unused-parameter casts of other types pass).
            decl = re.compile(rf"\b{SR_RETURN}\s+{re.escape(ident)}\s*[=;(]")
            window = text[max(0, m.start() - 4000) : m.start()]
            if not decl.search(window):
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards Status/Result "
                    f"variable '{ident}' without an "
                    f"// hcs:ignore-status(reason) tag")


def check_decode_before_ok(root, sr_names, errors):
    scan = []
    for path in iter_files(root, SRC_DIRS, exts=(".cc",)):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if any(rel.startswith(d + "/") for d in DECODE_CHECK_EXCLUDE):
            continue
        scan.append(path)

    assign = re.compile(
        rf"(?:auto|{SR_RETURN})\s+(\w+)\s*=\s*[^;]*?\b(\w+)\s*\(", re.DOTALL)
    temp_value = re.compile(r"\b(\w+)\s*\(([^;()]*)\)\s*\.\s*value\s*\(\)")

    for path in scan:
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        # Rule 2a: value() straight off the Decode/Get temporary.
        for m in temp_value.finditer(text):
            callee = m.group(1)
            if callee in sr_names and DECODE_NAME.search(callee):
                lineno = line_of(text, m.start())
                if not has_tag(raw_lines, lineno):
                    errors.append(
                        f"{rel}:{lineno}: {callee}(...).value() dereferences a "
                        f"decode result before any ok() check")

        # Rule 2b: a named Result from a decoder used before an ok() check.
        for m in assign.finditer(text):
            var, callee = m.group(1), m.group(2)
            if callee not in sr_names or not DECODE_NAME.search(callee):
                continue
            # The enclosing scope: up to the end of the current function.
            close = text.find("\n}", m.end())
            close = len(text) if close < 0 else close
            body = text[m.end() : close]
            use = re.search(
                rf"\b{re.escape(var)}\s*(?:\.\s*value\s*\(|->|\))?|\*\s*{re.escape(var)}\b",
                body)
            checked = re.search(
                rf"\b{re.escape(var)}\s*\.\s*(ok|status)\s*\(", body)
            deref = re.search(
                rf"(?:\*\s*{re.escape(var)}\b|\b{re.escape(var)}\s*(?:\.\s*value\s*\(|->))",
                body)
            del use
            if deref and (not checked or checked.start() > deref.start()):
                lineno = line_of(text, m.start())
                if not has_tag(raw_lines, line_of(text, m.end() + deref.start())):
                    errors.append(
                        f"{rel}:{lineno}: decode result '{var}' from "
                        f"{callee}() is dereferenced before an ok() check")


def check_rpc_handlers(root, errors):
    register = re.compile(r"RegisterProcedure\s*\(")
    not_ok_branch = re.compile(r"if\s*\(\s*!\s*(\w+)\s*(?:\.|->)\s*(?:ok|status)\s*\(\)\s*\)\s*\{")

    for path in iter_files(root, SRC_DIRS, exts=(".cc",)):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        for m in register.finditer(text):
            # The handler body: first '{' after the match that begins a
            # lambda (look for "{" after "]...{" or "-> Result<Bytes> {").
            lam = re.search(r"\[[^\]]*\]\s*\([^)]*\)\s*(?:->\s*[\w:<>]+\s*)?\{",
                            text[m.end() : m.end() + 400])
            if lam is None:
                continue
            open_pos = text.find("{", m.end() + lam.end() - 1)
            body_end = match_brace_block(text, open_pos)
            body = text[open_pos:body_end]
            base = open_pos

            for b in not_ok_branch.finditer(body):
                var = b.group(1)
                block_open = base + b.end() - 1
                block_end = match_brace_block(text, block_open)
                block = text[block_open:block_end]
                propagates = re.search(
                    rf"return\b[^;]*(?:\b{re.escape(var)}\b|status\s*\(|Error\s*\()",
                    block) or "HCS_RETURN_IF_ERROR" in block
                lineno = line_of(text, block_open)
                if not propagates and not has_tag(raw_lines, lineno):
                    errors.append(
                        f"{rel}:{lineno}: RPC handler swallows failed "
                        f"'{var}' without returning an error reply "
                        f"(add a return or an // hcs:ignore-status(reason))")


def check_fault_decisions(root, errors):
    """Rule 5: FaultInjector::Decide results must act (see module docstring)."""
    bare = re.compile(r"^\s*[\w\[\]().\->]*(?:\.|->)\s*Decide\s*\(", re.MULTILINE)
    voided = re.compile(r"\(void\)\s*[\w\[\]().\->]*(?:\.|->)?\s*Decide\s*\(")

    for path in iter_files(root, VOID_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        for m in bare.finditer(text):
            # A bare statement draws from the fault stream without acting
            # on it; a call consumed by the surrounding expression passes.
            if not call_is_bare_statement(text, m.start(), "Decide"):
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: FaultInjector decision discarded — a "
                    f"bare Decide() draws from the fault stream without "
                    f"acting on it (bind the FaultDecision or add an "
                    f"// hcs:ignore-status(reason) tag)")

        for m in voided.finditer(text):
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards a FaultDecision "
                    f"from Decide() without an // hcs:ignore-status(reason) "
                    f"tag")


def check_mmsg_completions(root, errors):
    """Rule 6: recvmmsg/sendmmsg/SendReplies counts must be consumed."""
    mmsg_names = r"(?:recvmmsg|sendmmsg|SendReplies)"
    bare = re.compile(
        rf"^\s*(?:[\w\[\]().\->]*(?:\.|->|::)\s*)?({mmsg_names})\s*\(",
        re.MULTILINE)
    voided = re.compile(
        rf"\(void\)\s*(?:[\w\[\]().\->]*(?:\.|->|::)\s*)?({mmsg_names})\s*\(")

    for path in iter_files(root, VOID_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        for m in bare.finditer(text):
            # Same bare-statement test as Decide: a discarded count is a
            # silently truncated batch.
            if not call_is_bare_statement(text, m.start(), m.group(1)):
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: {m.group(1)}() completion count "
                    f"discarded — batched sends/receives complete PARTIALLY "
                    f"and the count is the only signal (bind it or add an "
                    f"// hcs:ignore-status(reason) tag)")

        for m in voided.finditer(text):
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards the "
                    f"{m.group(1)}() completion count without an "
                    f"// hcs:ignore-status(reason) tag")


def check_async_futures(root, errors):
    """Rule 7: CallAsync futures must be consumed (see module docstring)."""
    bare = re.compile(r"^\s*[\w\[\]().\->]*(?:\.|->|::)?\s*CallAsync\s*\(",
                      re.MULTILINE)
    voided = re.compile(r"\(void\)\s*[\w\[\]().\->]*(?:\.|->|::)?\s*CallAsync\s*\(")
    void_ident = re.compile(r"\(void\)\s*(\w+)\s*;")

    for path in iter_files(root, VOID_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)

        for m in bare.finditer(text):
            # Bare statement: nothing observes the future's completion.
            if not call_is_bare_statement(text, m.start(), "CallAsync"):
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: CallAsync() future discarded — a "
                    f"fired-and-forgotten RPC whose outcome nobody observes "
                    f"(Wait()/OnComplete() it or add an "
                    f"// hcs:ignore-status(reason) tag)")

        for m in voided.finditer(text):
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards the RpcFuture "
                    f"from CallAsync() without an "
                    f"// hcs:ignore-status(reason) tag")

        for m in void_ident.finditer(text):
            ident = m.group(1)
            decl = re.compile(rf"\bRpcFuture\s+{re.escape(ident)}\s*[=;({{]")
            window = text[max(0, m.start() - 4000) : m.start()]
            if not decl.search(window):
                continue
            lineno = line_of(text, m.start())
            if not has_tag(raw_lines, lineno):
                errors.append(
                    f"{rel}:{lineno}: (void)-cast discards RpcFuture "
                    f"'{ident}' — the async completion is never consumed "
                    f"(Wait()/OnComplete() it or add an "
                    f"// hcs:ignore-status(reason) tag)")


def check_datagram_syscalls(root, errors):
    """Rule 8: datagram syscalls only in the mmsg wrappers (see docstring)."""
    for path in iter_files(root, SRC_DIRS):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel == MMSG_HOME:
            continue
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        text = strip_comments_and_strings(raw)
        for m in DATAGRAM_CALL.finditer(text):
            name = m.group(1)
            lineno = line_of(text, m.start(1))
            if lintlib.has_tag(raw_lines, lineno, RAW_DATAGRAM_TAG):
                continue
            if lintlib.has_tag(raw_lines, lineno, EMPTY_RAW_DATAGRAM_TAG):
                errors.append(
                    f"{rel}:{lineno}: hcs:raw-datagram() on {name}() has an "
                    f"empty reason — say why this datagram bypasses the "
                    f"counted wrappers")
                continue
            errors.append(
                f"{rel}:{lineno}: raw {name}() outside {MMSG_HOME} — the "
                f"UdpIoSnapshot counters never see it (use the mmsg "
                f"wrappers, or add an // hcs:raw-datagram(reason) tag)")


def check_empty_tags(root, errors):
    for path in iter_files(root, VOID_DIRS, exts=(".h", ".cc", ".py", ".sh")):
        if os.path.basename(path) == "lint_failpaths.py":
            continue  # this file names the pattern in its own docs
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if EMPTY_TAG.search(line):
                    errors.append(
                        f"{rel}:{lineno}: hcs:ignore-status() has an empty "
                        f"reason — say why discarding is safe")


def run(root):
    errors = []
    sr_names = build_sr_database(root)
    if not sr_names:
        errors.append("src/: found no Status/Result-returning declarations "
                      "(wrong repo root?)")
    check_void_casts(root, sr_names, errors)
    check_decode_before_ok(root, sr_names, errors)
    check_rpc_handlers(root, errors)
    check_fault_decisions(root, errors)
    check_mmsg_completions(root, errors)
    check_async_futures(root, errors)
    check_datagram_syscalls(root, errors)
    check_empty_tags(root, errors)

    if errors:
        print(f"lint_failpaths: {len(errors)} violation(s):")
        for err in sorted(errors):
            print(f"  {err}")
        return 1
    print(f"lint_failpaths: clean ({len(sr_names)} Status/Result-returning "
          f"functions in the cross-TU database)")
    return 0


# --- self test ---------------------------------------------------------------

SELF_TEST_HEADER = """
#define HCS_NODISCARD [[nodiscard]]
class HCS_NODISCARD Status {};
template <typename T> class HCS_NODISCARD Result {};
HCS_NODISCARD Status Flush();
HCS_NODISCARD Result<int> DecodeThing(int);
"""

SELF_TEST_CASES = [
    # (name, file content, substring the lint must print)
    ("naked-void-call",
     "void f() {\n  (void)Flush();\n}\n",
     "without an // hcs:ignore-status"),
    ("tagged-void-call-ok",
     "void f() {\n  (void)Flush();  // hcs:ignore-status(best effort)\n}\n",
     None),
    ("naked-void-var",
     "void f() {\n  Status s = Flush();\n  (void)s;\n}\n",
     "variable 's'"),
    ("decode-temporary-value",
     "void f() {\n  int v = DecodeThing(1).value();\n}\n",
     "before any ok() check"),
    ("decode-var-unchecked",
     "void f() {\n  auto r = DecodeThing(1);\n  use(r.value());\n}\n",
     "dereferenced before an ok() check"),
    ("decode-var-checked-ok",
     "void f() {\n  auto r = DecodeThing(1);\n  if (!r.ok()) return;\n"
     "  use(r.value());\n}\n",
     None),
    ("handler-swallows-error",
     "void g() {\n  server.RegisterProcedure(1, 2, [](const Bytes& a)"
     " -> Result<Bytes> {\n    auto r = DecodeThing(1);\n"
     "    if (!r.ok()) {\n      log();\n    }\n    return ok_bytes();\n"
     "  });\n}\n",
     "swallows failed 'r'"),
    ("empty-tag",
     "void f() {\n  (void)Flush();  // hcs:ignore-status()\n}\n",
     "empty"),
    ("bare-decide-discard",
     "void f() {\n  injector->Decide(host, port);\n}\n",
     "bare Decide() draws from the fault stream"),
    ("void-decide-discard",
     "void f() {\n  (void)injector.Decide(host, port);\n}\n",
     "discards a FaultDecision"),
    ("decide-consumed-ok",
     "void f() {\n  FaultDecision d = injector->Decide(host, port);\n"
     "  if (d.drop) return;\n}\n",
     None),
    ("decide-tagged-ok",
     "void f() {\n  // hcs:ignore-status(warming the stream for the test)\n"
     "  injector->Decide(host, port);\n}\n",
     None),
    ("bare-sendmmsg-discard",
     "void f() {\n  sendmmsg(fd, msgs, 8, 0);\n}\n",
     "sendmmsg() completion count discarded"),
    ("bare-recvmmsg-discard",
     "void f() {\n  recvmmsg(fd, msgs, 8, 0, nullptr);\n}\n",
     "recvmmsg() completion count discarded"),
    ("bare-sendreplies-discard",
     "void f() {\n  SendReplies(fd, replies);\n}\n",
     "SendReplies() completion count discarded"),
    ("void-sendmmsg-discard",
     "void f() {\n  (void)sendmmsg(fd, msgs, 8, 0);\n}\n",
     "discards the sendmmsg() completion count"),
    ("sendmmsg-count-bound-ok",
     "void f() {\n  // hcs:raw-datagram(seeded rule-6 case)\n"
     "  int n = sendmmsg(fd, msgs, 8, 0);\n  use(n);\n}\n",
     None),
    ("sendmmsg-in-expression-ok",
     "int f() {\n  // hcs:raw-datagram(seeded rule-6 case)\n"
     "  return sendmmsg(fd, msgs, 8, 0);\n}\n",
     None),
    ("sendreplies-tagged-ok",
     "void f() {\n  // hcs:ignore-status(fire-and-forget wake datagram)\n"
     "  SendReplies(fd, replies);\n}\n",
     None),
    ("bare-callasync-discard",
     "void f() {\n  client.CallAsync(binding, 1, args);\n}\n",
     "CallAsync() future discarded"),
    ("void-callasync-discard",
     "void f() {\n  (void)client.CallAsync(binding, 1, args);\n}\n",
     "discards the RpcFuture from CallAsync()"),
    ("void-future-var-discard",
     "void f() {\n  RpcFuture fut = client.CallAsync(binding, 1, args);\n"
     "  (void)fut;\n}\n",
     "async completion is never consumed"),
    ("callasync-waited-ok",
     "void f() {\n  RpcFuture fut = client.CallAsync(binding, 1, args);\n"
     "  use(fut.Wait());\n}\n",
     None),
    ("callasync-in-expression-ok",
     "void f() {\n  futures.push_back(client.CallAsync(binding, 1, args));\n}\n",
     None),
    ("callasync-tagged-ok",
     "void f() {\n  // hcs:ignore-status(probe call; outcome measured by the drop counter)\n"
     "  client.CallAsync(binding, 1, args);\n}\n",
     None),
    ("raw-sendto-outside-mmsg",
     "void f() {\n  ssize_t n = sendto(fd, p, size, 0, addr, len);\n  use(n);\n}\n",
     "raw sendto() outside src/rpc/mmsg.cc"),
    ("raw-global-recvfrom-outside-mmsg",
     "void f() {\n  ssize_t n = ::recvfrom(fd, p, size, 0, addr, &len);\n  use(n);\n}\n",
     "raw recvfrom() outside src/rpc/mmsg.cc"),
    ("raw-recvmsg-outside-mmsg",
     "void f() {\n  if (recvmsg(fd, &msg, 0) < 0) return;\n}\n",
     "raw recvmsg() outside src/rpc/mmsg.cc"),
    ("raw-datagram-empty-tag",
     "void f() {\n  (void)sendmsg(fd, &msg, 0);  // hcs:raw-datagram()\n}\n",
     "hcs:raw-datagram() on sendmsg() has an empty reason"),
    ("raw-datagram-tagged-ok",
     "void f() {\n  // hcs:raw-datagram(the stop wake a loop sends its own socket)\n"
     "  (void)sendto(fd, nullptr, 0, 0, addr, len);\n}\n",
     None),
    ("datagram-member-and-comment-ok",
     "void f() {\n  // sendto(fd, ...) in prose is not a call\n"
     "  Result<bool> sent = socket.sendto(port, bytes);\n  use(sent);\n}\n",
     None),
]


def run_checks_for_self_test(root):
    errors = []
    sr_names = build_sr_database(root)
    check_void_casts(root, sr_names, errors)
    check_decode_before_ok(root, sr_names, errors)
    check_rpc_handlers(root, errors)
    check_fault_decisions(root, errors)
    check_mmsg_completions(root, errors)
    check_async_futures(root, errors)
    check_datagram_syscalls(root, errors)
    check_empty_tags(root, errors)
    return errors


def self_test():
    status = lintlib.run_self_test_cases(
        "lint_failpaths", SELF_TEST_HEADER, SELF_TEST_CASES,
        run_checks_for_self_test)
    # Rule 8's one exemption: the wrappers' own file makes the syscalls.
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src", "rpc"))
        with open(os.path.join(root, MMSG_HOME), "w") as f:
            f.write("int f() {\n  return sendmmsg(fd, msgs, 8, 0);\n}\n")
        errors = []
        check_datagram_syscalls(root, errors)
        if errors:
            print(f"lint_failpaths --self-test: {MMSG_HOME} must be exempt "
                  f"from rule 8, got {errors}")
            status = 1
    return status


def main():
    if len(sys.argv) > 2:
        print(__doc__)
        return 2
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    return run(root)


if __name__ == "__main__":
    sys.exit(main())

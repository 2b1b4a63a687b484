#!/usr/bin/env python3
"""Cross-TU loop-affinity and reentrancy lint for the async core.

The reactor threading model (DESIGN.md §15) is single-owner: every piece of
engine and reactor state is owned by the event-loop thread, cross-thread
entry happens only through Post/ScheduleAfter, and nothing on the loop may
block — the loop IS the thing that would unblock it. PR 8's review bugs
were exactly violations of this contract (a waiter drain destroying a
StreamConn under its own reader; a synchronously-completed PendingCall
dereferenced after free), fixed by hand. This lint promotes the contract
from prose comments to machine-checked rules, the same prose→lint+runtime
promotion DESIGN.md §13 did for the zero-copy lifetime rules. The runtime
half is HCS_ASSERT_LOOP / the Wait-on-loop-thread detector in src/rpc
(compiled out of release); this is the static half, tree-wide:

  T1. LOOP-ONLY CALLS. Functions and members tagged `hcs:loop-only` (the
      cross-TU database is built from these tags in src/) may only be
      called from (a) bodies that are themselves loop-only — named in the
      database or tagged at the definition site, (b) lambdas handed to a
      loop sink (`Post`/`ScheduleAfter`/`Submit`), which run on the loop
      by construction, or (c) sites tagged `hcs:on-loop(<reason>)`. Any
      other call site is a cross-thread touch of loop-owned state:

          StartOnLoop(x);            // T1: off-loop call
          reactor_.Post([this, x] { StartOnLoop(x); });   // ok

  T2. NO BLOCKING ON THE LOOP. `Wait()`/`WaitFor()` (RpcFuture and
      CondVar), `sleep`/`usleep`/`nanosleep`/`sleep_for`/`sleep_until`,
      the blocking `SendAndReceive`, and a synchronous `Call()` (RpcClient
      and the typed clients over it; `CallAsync()` is the loop's way to
      call) are forbidden inside loop-only bodies and inside loop-posted
      lambdas. A Wait on the loop thread is a self-deadlock: the
      completion it waits for can only be delivered by the thread that is
      blocked; a sync Call runs on its caller and stalls the loop for up
      to its budget (the runtime detector aborts at either with birth-site
      diagnostics).

  T3. NO COMPLETION UNDER ITERATION OR LOCK. Invoking a completion
      (`CompleteCall`, `CompleteFromReply`, `HandleAttemptError`,
      `.Complete(...)`) or mutating a loop-owned container while
      iterating that same container is the PR 8 reentrancy-UAF shape:
      completion runs arbitrary user callbacks and teardown that can
      erase the element (or the whole container) under the iterator.
      Likewise completion while a lint-visible `MutexLock` is still in
      scope runs user code under an engine lock. The sanctioned shapes
      pass untouched: snapshot-into-a-local-then-iterate, routing the
      drain through a posted lambda, and dropping the lock scope before
      invoking the callback. `hcs:on-loop(<reason>)` is the audited
      escape for sites whose safety argument is out of textual reach
      (e.g. "completes exactly one call and returns immediately").

  T4. TAGS MUST GIVE A REASON: `hcs:on-loop()` is rejected.

The tag is greppable — `git grep hcs:loop-only` lists every loop-owned
declaration, `git grep hcs:on-loop` audits every sanctioned exception.
The scan is textual and per-function like the sibling lints: conservative
on calls (transitive effects are not followed) and set-level on control
flow. The stripping / body walking / self-test plumbing lives in
lintlib.py, shared by every lint in tools/.

Exit status 0 = clean; 1 = violations (one per line); 2 = usage.

Usage: lint_loop.py [repo_root]
       lint_loop.py --self-test   (seeds violations, checks they fire)
"""

import os
import re
import sys

import lintlib
from lintlib import (function_defs, iter_files, lambda_after, line_of,
                     match_brace_block, strip_comments_and_strings)

# The database is built from src/; the rules are enforced everywhere code
# runs against the real reactor (a blocking call in a test's posted lambda
# deadlocks the test exactly like production code).
SRC_DIRS = ["src"]
SCAN_DIRS = ["src", "tests", "bench", "examples"]
TAG_DIRS = ["src", "tests", "bench", "examples", "tools"]

LOOP_ONLY_TAG = re.compile(r"hcs:loop-only")
ON_LOOP_TAG = re.compile(r"hcs:on-loop\(([^)]*)\)")
EMPTY_TAG = re.compile(r"hcs:on-loop\(\s*\)")

# Lambdas handed to these run on the loop thread by construction (Submit
# routes through the reactor's dispatch; in the client-only reactor every
# callback lands on the loop).
SINK_CALL = re.compile(r"\b(?:Post|ScheduleAfter|Submit)\s*\(")

# Blocking operations forbidden in loop context (T2). Wait/WaitFor/Call are
# receiver-anchored so DrainWaiters / epoll_wait / a free Call() do not
# match, and `Call\s*\(` never matches CallAsync(.
BLOCKING_OPS = [
    (re.compile(r"(?:\.|->)\s*Wait\s*\("), "Wait()"),
    (re.compile(r"(?:\.|->)\s*WaitFor\s*\("), "WaitFor()"),
    (re.compile(r"\b(?:sleep|usleep|nanosleep)\s*\("), "sleep()"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "std::this_thread::sleep_*"),
    (re.compile(r"(?:\.|->)\s*SendAndReceive\s*\("), "SendAndReceive()"),
    (re.compile(r"(?:\.|->)\s*Call\s*\("), "Call()"),
]

# Completion invocations (T3): these run user callbacks / call teardown.
COMPLETION_CALL = re.compile(
    r"\b(CompleteCall|CompleteFromReply|HandleAttemptError)\s*\("
    r"|(?:\.|->)\s*(Complete)\s*\(")

# Mutators that invalidate iterators of the receiver container (T3).
MUTATOR = (r"(?:\.|->)\s*(erase|clear|insert|emplace|emplace_back|"
           r"push_back|pop_back|push_front|pop_front|resize)\s*\(")

CONTAINERISH = re.compile(r"\b(?:vector|map|unordered_map|deque|set|list)\s*<")

RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([^;)]+)\)\s*\{")

LOCK_DECL = re.compile(r"\bMutexLock\s+\w+\s*[({]")

# Words that precede '(' in declarations without being the declared name.
NON_FUNCTION_WORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "void", "bool", "int", "char", "function", "atomic", "pair",
    "vector", "map", "unordered_map", "deque", "set", "list",
    "unique_ptr", "shared_ptr", "optional",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "size_t",
})


def has_on_loop_tag(raw_lines, lineno):
    return lintlib.has_tag(raw_lines, lineno, ON_LOOP_TAG)


def classify_decl(code):
    """Classifies the declaration carrying a hcs:loop-only tag: a function
    (name before the parameter list) or a data member (name before ';').
    Returns ('fn'|'member', name) or (None, None)."""
    fn_names = [n for n in re.findall(r"\b([A-Za-z_]\w*)\s*\(", code)
                if n not in NON_FUNCTION_WORDS]
    if fn_names:
        return "fn", fn_names[0]
    m = re.search(r"\b(\w+)\s*(?:=[^;]*|\{[^;]*\})?\s*;", code)
    if m:
        return "member", m.group(1)
    return None, None


def build_loop_db(root, errors):
    """Walks src/ for hcs:loop-only tags. Returns (fns, members,
    containers): loop-only function names, loop-owned member names, and
    the subset of members whose declared type is a container (the T3
    iteration set). An unparseable tag is itself a violation — a tag that
    names nothing protects nothing."""
    fns, members, containers = set(), set(), set()
    for path in iter_files(root, SRC_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        for idx, line in enumerate(raw_lines):
            if not LOOP_ONLY_TAG.search(line):
                continue
            code = line.split("//")[0].strip()
            if not code:
                # Tag on its own line: the tagged declaration is the next
                # line carrying code.
                for nxt in raw_lines[idx + 1 : idx + 4]:
                    code = nxt.split("//")[0].strip()
                    if code:
                        break
            kind, name = classify_decl(code)
            if kind == "fn":
                fns.add(name)
            elif kind == "member":
                members.add(name)
                if CONTAINERISH.search(code):
                    containers.add(name)
            else:
                errors.append(
                    f"{rel}:{idx + 1}: hcs:loop-only tag does not precede a "
                    f"parseable function or member declaration")
    return fns, members, containers


def posted_lambda_spans(text, start, end):
    """Spans of lambda bodies handed to a loop sink within [start, end):
    code in these runs on the loop thread."""
    spans = []
    for m in SINK_CALL.finditer(text, start, end):
        lam = lambda_after(text, m.start())
        if lam is None:
            continue
        _, body_open = lam
        if body_open >= end:
            continue
        spans.append((body_open, match_brace_block(text, body_open)))
    return spans


def in_spans(pos, spans):
    return any(s <= pos < e for s, e in spans)


def enclosing_scope_end(text, body_start, body_end, pos):
    """End of the innermost brace scope within the body containing pos
    (the extent of a MutexLock declared at pos)."""
    stack = []
    i = body_start
    while i < pos:
        c = text[i]
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            stack.pop()
        i += 1
    if stack:
        return match_brace_block(text, stack[-1])
    return body_end


def def_is_loop_only(raw_lines, text, sig_pos, name, loop_fns):
    if name in loop_fns:
        return True
    return lintlib.has_tag(raw_lines, line_of(text, sig_pos), LOOP_ONLY_TAG)


def check_file(path, rel, loop_fns, loop_containers, errors):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    text = strip_comments_and_strings(raw)

    loop_call = None
    if loop_fns:
        loop_call = re.compile(
            r"\b(" + "|".join(sorted(loop_fns)) + r")\s*\(")

    reported = set()

    def report(lineno, message):
        key = (lineno, message)
        if key not in reported:
            reported.add(key)
            errors.append(f"{rel}:{lineno}: {message}")

    for _, name, bstart, bend, sig_pos in function_defs(text):
        body_is_loop = def_is_loop_only(raw_lines, text, sig_pos, name,
                                        loop_fns)
        spans = posted_lambda_spans(text, bstart, bend)

        # T1: calls into the loop-only set from off-loop contexts.
        if loop_call is not None and not body_is_loop:
            for m in loop_call.finditer(text, bstart, bend):
                if in_spans(m.start(), spans):
                    continue
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"'{m.group(1)}' is hcs:loop-only but '{name}' runs "
                       f"off the loop thread — Post/ScheduleAfter it onto "
                       f"the loop, or tag // hcs:on-loop(reason) [T1]")

        # T2: blocking operations in loop context.
        regions = []
        if body_is_loop:
            regions.append((bstart, bend, f"loop-only function '{name}'"))
        regions.extend((s, e, "a loop-posted lambda") for s, e in spans)
        for rstart, rend, where in regions:
            for pattern, op in BLOCKING_OPS:
                for m in pattern.finditer(text, rstart, rend):
                    lineno = line_of(text, m.start())
                    if has_on_loop_tag(raw_lines, lineno):
                        continue
                    report(lineno,
                           f"{op} blocks inside {where} — the loop thread "
                           f"is the thread that would unblock it "
                           f"(self-deadlock); use OnComplete or move the "
                           f"wait off-loop [T2]")

        # T3a: mutation / completion while iterating a loop-owned
        # container.
        for fm in RANGE_FOR.finditer(text, bstart, bend):
            container_words = re.findall(r"\w+", fm.group(1))
            if not container_words or container_words[-1] not in \
                    loop_containers:
                continue
            container = container_words[-1]
            iter_open = text.find("{", fm.end() - 1)
            iter_end = match_brace_block(text, iter_open)
            iter_spans = posted_lambda_spans(text, iter_open, iter_end)
            mutator = re.compile(r"\b" + re.escape(container) + MUTATOR)
            for m in mutator.finditer(text, iter_open, iter_end):
                if in_spans(m.start(), iter_spans):
                    continue
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"'{container}.{m.group(1)}()' mutates loop-owned "
                       f"'{container}' while iterating it — snapshot into "
                       f"a local first, or route through a posted drain "
                       f"[T3]")
            for m in COMPLETION_CALL.finditer(text, iter_open, iter_end):
                if in_spans(m.start(), iter_spans):
                    continue
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                callee = m.group(1) or m.group(2)
                report(lineno,
                       f"completion '{callee}()' invoked while iterating "
                       f"loop-owned '{container}' — completion runs "
                       f"callbacks/teardown that can erase the element "
                       f"under the iterator (the PR 8 UAF shape); snapshot "
                       f"victims first or post the drain [T3]")

        # T3b: completion while a lint-visible lock is in scope.
        for lm in LOCK_DECL.finditer(text, bstart, bend):
            scope_end = enclosing_scope_end(text, bstart, bend, lm.start())
            for m in COMPLETION_CALL.finditer(text, lm.end(),
                                              min(scope_end, bend)):
                if in_spans(m.start(), spans):
                    continue
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                callee = m.group(1) or m.group(2)
                report(lineno,
                       f"completion '{callee}()' invoked while a MutexLock "
                       f"is in scope — user callbacks run under an engine "
                       f"lock; move the invocation past the lock scope "
                       f"[T3]")


def check_empty_tags(root, errors):
    """T4: a tag without a reason is an unaudited escape."""
    for path in iter_files(root, TAG_DIRS, exts=(".h", ".cc", ".py", ".sh")):
        if os.path.basename(path) == "lint_loop.py":
            continue  # this file names the pattern in its own docs
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if EMPTY_TAG.search(line):
                    errors.append(
                        f"{rel}:{lineno}: hcs:on-loop() has an empty "
                        f"reason — say why this site is exempt from the "
                        f"loop-threading rules [T4]")


def run_checks(root):
    errors = []
    loop_fns, _, loop_containers = build_loop_db(root, errors)
    for path in iter_files(root, SCAN_DIRS):
        rel = os.path.relpath(path, root)
        check_file(path, rel, loop_fns, loop_containers, errors)
    check_empty_tags(root, errors)
    return errors, loop_fns


def run(root):
    errors, loop_fns = run_checks(root)
    if not loop_fns:
        errors.append("src/: found no hcs:loop-only declarations "
                      "(wrong repo root?)")
    if errors:
        print(f"lint_loop: {len(errors)} violation(s):")
        for err in sorted(errors):
            print(f"  {err}")
        return 1
    print(f"lint_loop: clean ({len(loop_fns)} loop-only functions in the "
          f"cross-TU database)")
    return 0


# --- self test ---------------------------------------------------------------

SELF_TEST_HEADER = """
#include <deque>
#include <vector>
class Mutex {};
class MutexLock { public: explicit MutexLock(Mutex& m); };
class RpcFuture { public: int Wait(); int WaitFor(long ms); };
class Transport { public: int SendAndReceive(int req); };
class RpcClient { public: int Call(int req); RpcFuture CallAsync(int req); };
struct Call {};
struct Conn {};
class Reactor {
 public:
  bool Post(void (*fn)());
  bool Submit(int endpoint, void (*fn)());
  // hcs:loop-only
  unsigned long ScheduleAfter(long delay_ms, void (*fn)());
};
class Engine {
 public:
  void StartCall(int x);
  void Pump();
 private:
  // hcs:loop-only
  void StartOnLoop(int x);
  // hcs:loop-only
  void CompleteCall(Call* call, int result);
  // hcs:loop-only
  void DrainWaiters(int port);
  // hcs:loop-only
  Call* FindCall(long id);
  // hcs:loop-only
  void TryAssignStream(Call* call);
  std::vector<Conn*> conns_;  // hcs:loop-only
  std::deque<long> waiters_;  // hcs:loop-only
  Reactor reactor_;
  Transport* transport_;
  RpcClient* client_;
  Mutex mu_;
};
"""

SELF_TEST_CASES = [
    # (name, file content, substring the lint must print)
    #
    # --- T1: loop-only calls from off-loop contexts -------------------------
    #
    # PR 8 review bug 3 reduced: the xid-registration race. Loop-owned call
    # state touched straight from the caller's thread (StartCall runs on
    # whatever thread the user owns) — two racing registrations can
    # overwrite the incumbent; the fix routed registration through the loop.
    ("pr8-review-bug3-offloop-registration",
     "void Engine::StartCall(int x) {\n  StartOnLoop(x);\n}\n",
     "is hcs:loop-only but 'StartCall' runs off the loop thread"),
    ("t1-posted-lambda-ok",
     "void Engine::StartCall(int x) {\n"
     "  reactor_.Post([]() { });\n"
     "}\n"
     "void Engine::Pump() {\n"
     "  reactor_.Post([this] { StartOnLoop(1); });\n"
     "}\n",
     None),
    ("t1-submit-lambda-ok",
     "void Engine::Pump() {\n"
     "  reactor_.Submit(3, [this] { StartOnLoop(1); });\n"
     "}\n",
     None),
    ("t1-loop-to-loop-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  CompleteCall(FindCall(port), 0);\n"
     "}\n",
     None),
    ("t1-def-site-tag-ok",
     "// hcs:loop-only\n"
     "void Engine::Pump() {\n  StartOnLoop(1);\n}\n",
     None),
    ("t1-on-loop-tagged-site-ok",
     "void Engine::StartCall(int x) {\n"
     "  // hcs:on-loop(engine not started yet; single-threaded setup)\n"
     "  StartOnLoop(x);\n}\n",
     None),
    ("t1-schedule-after-off-loop",
     "void Engine::StartCall(int x) {\n"
     "  reactor_.ScheduleAfter(5, []() { });\n}\n",
     "'ScheduleAfter' is hcs:loop-only"),
    ("t1-unposted-lambda-still-off-loop",
     "void Engine::StartCall(int x) {\n"
     "  auto cb = [this] { StartOnLoop(1); };\n  (void)cb;\n}\n",
     "is hcs:loop-only but 'StartCall' runs off the loop thread"),
    #
    # --- T2: blocking in loop context ---------------------------------------
    #
    ("t2-wait-in-loop-body",
     "void Engine::DrainWaiters(int p) {\n"
     "  RpcFuture f;\n  f.Wait();\n}\n",
     "Wait() blocks inside loop-only function"),
    # PR 8 review bug class made deterministic: Wait posted onto the loop
    # self-deadlocks — the loop is the thread that would complete it.
    ("pr8-wait-on-loop-self-deadlock",
     "void Engine::StartCall(int x) {\n"
     "  RpcFuture f;\n"
     "  reactor_.Post([&]() { f.Wait(); });\n}\n",
     "Wait() blocks inside a loop-posted lambda"),
    ("t2-waitfor-in-loop-body",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  RpcFuture f;\n  f.WaitFor(100);\n}\n",
     "WaitFor() blocks inside loop-only function"),
    ("t2-usleep-in-loop-body",
     "void Engine::DrainWaiters(int p) {\n  usleep(10);\n}\n",
     "sleep() blocks inside loop-only function"),
    ("t2-sleep-for-in-posted-lambda",
     "void Engine::Pump() {\n"
     "  reactor_.Post([]() { std::this_thread::sleep_for(x); });\n}\n",
     "blocks inside a loop-posted lambda"),
    ("t2-send-and-receive-in-loop-body",
     "void Engine::StartOnLoop(int x) {\n"
     "  transport_->SendAndReceive(x);\n}\n",
     "SendAndReceive() blocks inside loop-only function"),
    # A sync Call runs on its caller: on the loop it stalls every other
    # callback for up to the call's budget.
    ("t2-sync-call-in-loop-body",
     "void Engine::DrainWaiters(int p) {\n"
     "  client_->Call(p);\n}\n",
     "Call() blocks inside loop-only function"),
    ("t2-sync-call-in-posted-lambda",
     "void Engine::Pump() {\n"
     "  RpcClient client;\n"
     "  reactor_.Post([&client]() { client.Call(1); });\n}\n",
     "Call() blocks inside a loop-posted lambda"),
    ("t2-call-async-in-loop-body-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  RpcFuture f = client_->CallAsync(p);\n  (void)f;\n}\n",
     None),
    ("t2-wait-off-loop-ok",
     "void Engine::StartCall(int x) {\n"
     "  RpcFuture f;\n  f.Wait();\n}\n",
     None),
    ("t2-tagged-wait-ok",
     "void Engine::Pump() {\n"
     "  RpcFuture f;\n"
     "  // hcs:on-loop(deliberate: death test proves the detector aborts)\n"
     "  reactor_.Post([&]() { f.Wait(); });\n}\n",
     None),
    #
    # --- T3: completion / mutation under iteration or lock ------------------
    #
    # PR 8 review bug 1 reduced: inline teardown under the container's own
    # iteration — FailStreamConn destroying the StreamConn whose reader is
    # still on the stack, via an inline (unposted) waiter drain.
    ("pr8-review-bug1-inline-drain-teardown",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  for (Conn* c : conns_) {\n"
     "    conns_.erase(conns_.begin());\n"
     "    CompleteCall(call, -1);\n"
     "  }\n}\n",
     "mutates loop-owned 'conns_' while iterating it"),
    # PR 8 review bug 2 reduced: TryAssignStream can complete (and free)
    # the call synchronously; completing under the waiters_ iteration then
    # touches the freed element — the fix re-looks the call up by id after
    # any call that can complete it, and drains via snapshot.
    ("pr8-review-bug2-complete-under-iteration",
     "void Engine::DrainWaiters(int port) {\n"
     "  for (long id : waiters_) {\n"
     "    Call* call = FindCall(id);\n"
     "    TryAssignStream(call);\n"
     "    CompleteCall(call, 1);\n"
     "  }\n}\n",
     "invoked while iterating loop-owned 'waiters_'"),
    ("t3-snapshot-then-complete-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  std::vector<long> victims;\n"
     "  for (long id : waiters_) {\n    victims.push_back(id);\n  }\n"
     "  waiters_.clear();\n"
     "  for (long id : victims) {\n"
     "    CompleteCall(FindCall(id), 0);\n  }\n}\n",
     None),
    ("t3-posted-drain-ok",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  for (Conn* c : conns_) {\n"
     "    reactor_.Post([]() { });\n"
     "  }\n}\n",
     None),
    ("t3-completion-in-posted-lambda-ok",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  for (Conn* c : conns_) {\n"
     "    reactor_.Post([this] { CompleteCall(FindCall(1), 0); });\n"
     "  }\n}\n",
     None),
    ("t3-tagged-iteration-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  for (long id : waiters_) {\n"
     "    // hcs:on-loop(completes exactly one call, then returns)\n"
     "    CompleteCall(FindCall(id), 0);\n"
     "    return;\n  }\n}\n",
     None),
    ("t3-lock-held-completion",
     "void Engine::DrainWaiters(int p) {\n"
     "  MutexLock lock(mu_);\n"
     "  CompleteCall(FindCall(1), 0);\n}\n",
     "invoked while a MutexLock is in scope"),
    ("t3-lock-scope-dropped-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  {\n    MutexLock lock(mu_);\n  }\n"
     "  CompleteCall(FindCall(1), 0);\n}\n",
     None),
    ("t3-local-container-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  std::vector<long> batch;\n"
     "  for (long id : batch) {\n"
     "    batch.push_back(id);\n    CompleteCall(FindCall(id), 0);\n  }\n}\n",
     None),
    #
    # --- T4 + database hygiene ----------------------------------------------
    #
    ("t4-empty-on-loop-tag",
     "void Engine::StartCall(int x) {\n"
     "  // hcs:on-loop()\n  StartOnLoop(x);\n}\n",
     "hcs:on-loop() has an empty reason"),
    ("db-unparseable-loop-tag",
     "void f() {\n}\n// hcs:loop-only\n",
     "does not precede a parseable function or member declaration"),
    ("plain-body-clean",
     "void Engine::StartCall(int x) {\n"
     "  int y = x + 1;\n  (void)y;\n}\n",
     None),
]


def self_test():
    return lintlib.run_self_test_cases(
        "lint_loop", SELF_TEST_HEADER, SELF_TEST_CASES,
        lambda root: run_checks(root)[0])


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

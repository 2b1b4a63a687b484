// Reactor: the async client engine's epoll event loop (src/rpc/async_client.h).
// One loop thread runs posted tasks, one-shot timers and the handlers of the
// client fds registered with it; every callback runs on that thread. It
// serves nothing: UdpServerHost serves each UDP endpoint with its own
// run-to-completion loops (src/rpc/udp_transport.h).
//
// Start() and Stop() are idempotent, and a stopped reactor can be started
// again. Stop() joins the loop, then closes the client fds and drops the
// timers and any posted task that has not run; the owner fails its
// outstanding work before stopping.

#ifndef HCS_SRC_RPC_REACTOR_H_
#define HCS_SRC_RPC_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"

// Debug loop-affinity enforcement (DESIGN.md §15): on under sanitizer and
// plain Debug builds (or an explicit -DHCS_DEBUG_LOOP=1), compiled out of
// release — bench_smoke holds the floor on the release side, lint_loop.py
// holds the static side of the same contract.
#if !defined(HCS_LOOP_DEBUG_ENABLED)
#if defined(HCS_DEBUG_LOOP) || !defined(NDEBUG)
#define HCS_LOOP_DEBUG_ENABLED 1
#else
#define HCS_LOOP_DEBUG_ENABLED 0
#endif
#endif

namespace hcs {

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Starts the event loop. Idempotent.
  HCS_NODISCARD Status Start();
  // Joins the loop and releases its fds; idempotent. A stopped reactor may
  // be started again (client fds must be re-added).
  void Stop();
  bool running() const;

  // Runs `fn` on the event-loop thread, FIFO with other posted work. Safe
  // from any thread, including the loop thread itself. Returns false (and
  // drops `fn`) when the reactor is not running.
  bool Post(std::function<void()> fn);
  // True when called from the event-loop thread (i.e. from a posted task,
  // timer, or client-fd handler).
  bool on_loop_thread() const;

  // One-shot timer: runs `fn` on the loop thread once `delay_ms` elapses
  // (monotonic clock); returns a nonzero id.
  // hcs:loop-only
  uint64_t ScheduleAfter(int64_t delay_ms, std::function<void()> fn);
  // Cancels a pending timer; a no-op once it fired.
  // hcs:loop-only
  void CancelTimer(uint64_t id);

  // Registers a nonblocking fd whose readiness is delivered to
  // `handler(events)` on the loop thread. On success the reactor owns the
  // fd and closes it in Stop(); on failure the caller still owns it. Post
  // the registration onto the loop.
  // hcs:loop-only
  HCS_NODISCARD Status AddClientFd(int fd, uint32_t events,
                                   std::function<void(uint32_t)> handler);

  // Debug (HCS_LOOP_DEBUG_ENABLED): aborts — naming the violating call
  // site and this reactor — when called off the loop thread while the loop
  // is running. Passes when the loop is not running: single-threaded
  // setup and post-join teardown are sanctioned. Use via HCS_ASSERT_LOOP.
  void AssertLoopAffinity(const char* func, const char* file, int line) const;

 private:
  struct ClientFd;

  // hcs:loop-only
  void LoopMain();
  // hcs:loop-only
  void RunPosted();
  // Milliseconds until the earliest pending timer (epoll_wait timeout);
  // -1 when no timer is pending.
  // hcs:loop-only
  int NextTimerTimeoutMs();
  // hcs:loop-only
  void RunDueTimers();

  mutable Mutex state_mu_{"reactor-state"};
  bool running_ HCS_GUARDED_BY(state_mu_) = false;

  std::atomic<bool> stopping_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;

  // Posted-work queue: drained on the loop thread after each epoll batch.
  Mutex posted_mu_{"reactor-posted"};
  std::deque<std::function<void()>> posted_ HCS_GUARDED_BY(posted_mu_);
  // True while an eventfd wake is in flight; lets Post coalesce a burst of
  // tasks into one write(wake_fd_).
  std::atomic<bool> wake_pending_{false};

  // Registered client fds; loop-owned, released by Stop() after the join.
  std::vector<std::unique_ptr<ClientFd>> client_fds_;  // hcs:loop-only

  // Timers; loop-owned. The heap may hold stale entries for cancelled
  // ids (lazy deletion) — timers_ is the source of truth.
  uint64_t next_timer_id_ = 1;  // hcs:loop-only
  std::unordered_map<uint64_t, std::function<void()>> timers_;  // hcs:loop-only
  // (deadline_ms, id) min-heap
  std::vector<std::pair<int64_t, uint64_t>> timer_heap_;  // hcs:loop-only

  // The loop thread's id, for on_loop_thread() and the debug affinity
  // asserts; set by LoopMain on entry, cleared (to the default id) on
  // exit so "loop not running" is observable.
  std::atomic<std::thread::id> loop_tid_{};
};

// Debug: the reactor whose event loop is the calling thread, or nullptr
// when this thread is no reactor's loop. Thread-local, set for the
// duration of LoopMain; the Wait-on-loop-thread detector keys on it.
const Reactor* CurrentLoopReactor();

// Debug: aborts with a diagnostic when the calling thread is a reactor
// loop thread. A future's wait there is a silent self-deadlock — the loop
// is the only thread that could deliver the completion being waited on —
// and a synchronous call (RpcClient::Call) stalls every other callback for
// up to its budget, so the detector turns either into a loud abort naming
// the operation and the call's birth site. No-op off the loop.
void AbortIfWaitOnLoopThread(const char* what, const char* birth_file,
                             int birth_line);

// Debug assertion for loop-only entry points: aborts (naming the call
// site and the owning reactor) when invoked off `reactor`'s loop thread
// while its loop runs. Compiled out of release builds entirely.
#if HCS_LOOP_DEBUG_ENABLED
#define HCS_ASSERT_LOOP(reactor) \
  (reactor)->AssertLoopAffinity(__func__, __FILE__, __LINE__)
#else
#define HCS_ASSERT_LOOP(reactor) ((void)0)
#endif

}  // namespace hcs

#endif  // HCS_SRC_RPC_REACTOR_H_

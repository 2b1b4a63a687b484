#include "src/rpc/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/strings.h"
#include "src/rpc/context.h"

namespace hcs {

namespace {

// Which reactor's event loop is the current thread running, if any. Set for
// the whole lifetime of LoopMain and cleared on every exit path; backs both
// CurrentLoopReactor() and the Wait-on-loop-thread detector.
thread_local const Reactor* t_loop_reactor = nullptr;

}  // namespace

// One registered client fd (the async client engine's UDP channel).
// Loop-thread-only: registration and the handler run on the loop thread,
// and Stop() releases it only after the loop has been joined.
struct Reactor::ClientFd {
  ~ClientFd() {
    if (fd >= 0) {
      close(fd);
    }
  }

  int fd = -1;
  std::function<void(uint32_t)> handler;
};

Reactor::Reactor() = default;

Reactor::~Reactor() { Stop(); }

bool Reactor::running() const {
  MutexLock lock(state_mu_);
  return running_;
}

Status Reactor::Start() {
  MutexLock lock(state_mu_);
  if (running_) {
    return Status::Ok();
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return UnavailableError(StrFormat("epoll_create1(): %s", std::strerror(errno)));
  }
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
    return UnavailableError(StrFormat("eventfd(): %s", std::strerror(errno)));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the wake fd; client fds carry their ClientFd
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    int saved = errno;
    close(wake_fd_);
    close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return UnavailableError(StrFormat("epoll_ctl(wake): %s", std::strerror(saved)));
  }

  stopping_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopMain(); });  // hcs:on-loop(this lambda IS the loop thread's entry point)
  running_ = true;
  return Status::Ok();
}

void Reactor::Stop() {
  {
    MutexLock lock(state_mu_);
    if (!running_) {
      return;
    }
    running_ = false;
  }
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Client fds, timers, and unrun posted work: the loop is down, so no
  // handler will fire again. Owners (the async client engine) fail their
  // outstanding futures before stopping the reactor.
  // hcs:on-loop(loop thread joined above — the reactor is single-threaded
  // again, so touching loop-owned state here is sanctioned)
  client_fds_.clear();  // ~ClientFd closes each fd
  timers_.clear();
  timer_heap_.clear();
  {
    MutexLock lock(posted_mu_);
    posted_.clear();
  }
  close(epoll_fd_);
  close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  stopping_.store(false, std::memory_order_release);
}

void Reactor::LoopMain() {
  // Mark this thread as the loop for the whole body, and un-mark it on every
  // exit path (there are early returns below). Clearing loop_tid_ makes
  // "loop not running" observable to AssertLoopAffinity, so the post-join
  // cleanup in Stop() passes the affinity checks legitimately.
  struct LoopMark {
    Reactor* self;
    explicit LoopMark(Reactor* r) : self(r) {
      self->loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
      t_loop_reactor = self;
    }
    ~LoopMark() {
      t_loop_reactor = nullptr;
      self->loop_tid_.store(std::thread::id{}, std::memory_order_release);
    }
  } mark(this);
  std::vector<epoll_event> events(64);
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                       NextTimerTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      ClientFd* client = static_cast<ClientFd*>(events[i].data.ptr);
      if (client == nullptr) {
        uint64_t value;
        (void)!read(wake_fd_, &value, sizeof(value));
        // Re-arm wake coalescing. Any Post that skipped its eventfd write
        // did so before this clear, so its task is already in posted_ and
        // this iteration's RunPosted picks it up.
        wake_pending_.store(false, std::memory_order_release);
        continue;
      }
      client->handler(events[i].events);
    }
    RunPosted();
    RunDueTimers();
  }
}

bool Reactor::Post(std::function<void()> fn) {
  if (stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  {
    MutexLock lock(state_mu_);
    if (!running_) {
      return false;
    }
  }
  {
    MutexLock lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  // Coalesce wakes: a burst of posts (an async client issuing a window of
  // calls) pays one eventfd write, not one per task. The loop clears the
  // flag when it consumes the wake, before draining posted_.
  if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    uint64_t one = 1;
    (void)!write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

// hcs:on-loop(sanctioned any-thread reader: only loads the loop_tid_ atomic)
bool Reactor::on_loop_thread() const {
  return loop_tid_.load(std::memory_order_acquire) == std::this_thread::get_id();
}

void Reactor::AssertLoopAffinity(const char* func, const char* file, int line) const {
  std::thread::id loop = loop_tid_.load(std::memory_order_acquire);
  if (loop == std::thread::id{} || loop == std::this_thread::get_id()) {
    return;  // loop not running (single-threaded setup/teardown), or on it
  }
  std::fprintf(stderr,
               "HCS_ASSERT_LOOP: %s (%s:%d) touched loop-owned state of reactor %p "
               "from off the loop thread while its loop is running; Post/ScheduleAfter "
               "the work onto the loop instead\n",
               func, file, line, static_cast<const void*>(this));
  std::abort();
}

const Reactor* CurrentLoopReactor() { return t_loop_reactor; }

void AbortIfWaitOnLoopThread(const char* what, const char* birth_file, int birth_line) {
  const Reactor* loop = t_loop_reactor;
  if (loop == nullptr) {
    return;
  }
  std::fprintf(stderr,
               "hcs loop-affinity: %s on the event-loop thread of reactor %p: a "
               "future's wait there self-deadlocks (the loop is the only thread that "
               "can deliver the completion), and a synchronous call stalls the loop "
               "for up to its budget (call born at %s:%d). Use CallAsync and "
               "OnComplete, or move the call off the loop thread.\n",
               what, static_cast<const void*>(loop),
               birth_file != nullptr ? birth_file : "<unknown>", birth_line);
  std::abort();
}

void Reactor::RunPosted() {
  std::deque<std::function<void()>> batch;
  {
    MutexLock lock(posted_mu_);
    batch.swap(posted_);
  }
  for (std::function<void()>& fn : batch) {
    fn();
  }
}

uint64_t Reactor::ScheduleAfter(int64_t delay_ms, std::function<void()> fn) {
  HCS_ASSERT_LOOP(this);
  uint64_t id = next_timer_id_++;
  timers_[id] = std::move(fn);
  timer_heap_.emplace_back(SteadyNowMs() + std::max<int64_t>(delay_ms, 0), id);
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
  return id;
}

void Reactor::CancelTimer(uint64_t id) {
  HCS_ASSERT_LOOP(this);
  // Lazy deletion: the heap entry stays and is skipped when popped.
  timers_.erase(id);
}

int Reactor::NextTimerTimeoutMs() {
  while (!timer_heap_.empty() &&
         timers_.find(timer_heap_.front().second) == timers_.end()) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();  // cancelled: drop the stale entry
  }
  if (timer_heap_.empty()) {
    return -1;
  }
  int64_t delta = timer_heap_.front().first - SteadyNowMs();
  if (delta <= 0) {
    return 0;
  }
  return static_cast<int>(std::min<int64_t>(delta, 60 * 1000));
}

void Reactor::RunDueTimers() {
  const int64_t now = SteadyNowMs();
  while (!timer_heap_.empty() && timer_heap_.front().first <= now) {
    uint64_t id = timer_heap_.front().second;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();
    auto it = timers_.find(id);
    if (it == timers_.end()) {
      continue;  // cancelled
    }
    std::function<void()> fn = std::move(it->second);
    timers_.erase(it);
    fn();
  }
}

Status Reactor::AddClientFd(int fd, uint32_t events, std::function<void(uint32_t)> handler) {
  HCS_ASSERT_LOOP(this);
  auto client = std::make_unique<ClientFd>();
  client->handler = std::move(handler);
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = client.get();
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return UnavailableError(StrFormat("epoll_ctl(client add): %s", std::strerror(errno)));
  }
  client->fd = fd;
  client_fds_.push_back(std::move(client));
  return Status::Ok();
}

}  // namespace hcs

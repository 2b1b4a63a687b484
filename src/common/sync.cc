#include "src/common/sync.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

namespace hcs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

#ifdef NDEBUG
std::atomic<bool> g_detector_enabled{false};
#else
std::atomic<bool> g_detector_enabled{true};
#endif
std::atomic<bool> g_timing_enabled{false};

// --- Lock-order graph -------------------------------------------------------
// Nodes are mutex ids; a directed edge a -> b means "some thread acquired b
// while holding a". A cycle is a lock-order inversion: two threads running
// those paths concurrently can deadlock. Edges remember the held-lock
// context that created them so the abort report shows *both* sides.
//
// All detector state is guarded by a plain std::mutex — deliberately not an
// hcs::Mutex, which would recurse into the detector.

struct Edge {
  uint32_t to = 0;
  const char* to_name = "";  // the acquired mutex's name, for reports
  std::string context;       // held-lock stack when the edge was first recorded
};

struct OrderGraph {
  std::mutex mu;
  // Outgoing edges by source id, and the sources of each target's incoming
  // edges. A mutex has entries here only while it has edges, and ~Mutex
  // erases them in both directions (ForgetMutex): ids are never reused, so
  // an edge to or from a destroyed mutex can never close a cycle again, and
  // keeping it would grow the graph with every short-lived mutex.
  std::unordered_map<uint32_t, std::vector<Edge>> adjacency;
  std::unordered_map<uint32_t, std::vector<uint32_t>> predecessors;
};

OrderGraph& Graph() {
  // Leaked: mutexes (and the log sink) live into static destruction.
  static OrderGraph* graph = new OrderGraph();
  return *graph;
}

std::atomic<uint32_t> g_next_mutex_id{1};

// The stack of hcs::Mutexes this thread currently holds, oldest first.
thread_local std::vector<const Mutex*> tls_held;

const char* DisplayName(const char* name) { return name[0] != '\0' ? name : "<anonymous>"; }

std::string DescribeHeldStack(const Mutex* acquiring) {
  std::string out;
  for (const Mutex* held : tls_held) {
    out += DisplayName(held->name());
    out += " -> ";
  }
  out += DisplayName(acquiring->name());
  return out;
}

// Depth-first reachability from `from` to `target` along recorded edges;
// fills `path` with the edge chain when found. Caller holds graph.mu.
bool FindPath(const OrderGraph& graph, uint32_t from, uint32_t target,
              std::unordered_set<uint32_t>* visited, std::vector<const Edge*>* path) {
  if (from == target) {
    return true;
  }
  if (!visited->insert(from).second) {
    return false;
  }
  auto it = graph.adjacency.find(from);
  if (it == graph.adjacency.end()) {
    return false;
  }
  for (const Edge& edge : it->second) {
    path->push_back(&edge);
    if (FindPath(graph, edge.to, target, visited, path)) {
      return true;
    }
    path->pop_back();
  }
  return false;
}

[[noreturn]] void ReportInversionAndAbort(const Mutex* held, const Mutex* acquiring,
                                          const std::vector<const Edge*>& reverse_path) {
  std::fprintf(stderr,
               "\n=== hcs lock-order inversion detected ===\n"
               "this thread:   holds '%s' (id %u), acquiring '%s' (id %u)\n",
               DisplayName(held->name()), held->id(), DisplayName(acquiring->name()),
               acquiring->id());
  std::fprintf(stderr, "  acquisition stack: %s\n", DescribeHeldStack(acquiring).c_str());
  std::fprintf(stderr, "conflicting order '%s' ... '%s' was established by:\n",
               DisplayName(acquiring->name()), DisplayName(held->name()));
  const char* from = acquiring->name();
  for (const Edge* edge : reverse_path) {
    std::fprintf(stderr, "  edge %s -> %s, first recorded with held stack: %s\n",
                 DisplayName(from), DisplayName(edge->to_name), edge->context.c_str());
    from = edge->to_name;
  }
  std::fprintf(stderr,
               "a thread running the recorded path concurrently with this one can "
               "deadlock; fix the acquisition order (DESIGN.md §9)\n");
  std::abort();
}

// Drops every edge into or out of `id`. Caller holds graph.mu.
void ForgetMutex(OrderGraph& graph, uint32_t id) {
  auto out = graph.adjacency.find(id);
  if (out != graph.adjacency.end()) {
    for (const Edge& edge : out->second) {
      auto sources = graph.predecessors.find(edge.to);
      if (sources != graph.predecessors.end()) {
        std::erase(sources->second, id);
        if (sources->second.empty()) {
          graph.predecessors.erase(sources);
        }
      }
    }
    graph.adjacency.erase(out);
  }
  auto in = graph.predecessors.find(id);
  if (in != graph.predecessors.end()) {
    for (uint32_t source : in->second) {
      auto edges = graph.adjacency.find(source);
      if (edges != graph.adjacency.end()) {
        std::erase_if(edges->second, [id](const Edge& edge) { return edge.to == id; });
        if (edges->second.empty()) {
          graph.adjacency.erase(edges);
        }
      }
    }
    graph.predecessors.erase(in);
  }
}

void PushHeld(const Mutex* mu) { tls_held.push_back(mu); }

void PopHeld(const Mutex* mu) {
  // Search from the back: locks are usually released in reverse acquisition
  // order. Missing is fine (detector enabled mid-hold).
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == mu) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
}

// --- Named-mutex registry ---------------------------------------------------

struct Registry {
  std::mutex mu;
  std::unordered_set<const Mutex*> named;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

void SetDeadlockDetectorEnabled(bool enabled) {
  g_detector_enabled.store(enabled, std::memory_order_relaxed);
}

bool DeadlockDetectorEnabled() { return g_detector_enabled.load(std::memory_order_relaxed); }

void SetMutexTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

bool MutexTimingEnabled() { return g_timing_enabled.load(std::memory_order_relaxed); }

void ResetLockOrderGraph() {
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  graph.adjacency.clear();
  graph.predecessors.clear();
}

size_t LockOrderGraphEntriesForTest() {
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  size_t entries = graph.adjacency.size() + graph.predecessors.size();
  for (const auto& [id, edges] : graph.adjacency) {
    entries += edges.size();
  }
  return entries;
}

std::vector<MutexStats> AllMutexStats() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<MutexStats> out;
  out.reserve(registry.named.size());
  for (const Mutex* mu : registry.named) {
    out.push_back(mu->Stats());
  }
  return out;
}

Mutex::Mutex() : Mutex("") {}

Mutex::Mutex(const char* name)
    : name_(name), id_(g_next_mutex_id.fetch_add(1, std::memory_order_relaxed)) {
  if (name_[0] != '\0') {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.named.insert(this);
  }
}

Mutex::~Mutex() {
  if (name_[0] != '\0') {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.named.erase(this);
  }
  if (in_order_graph_.load(std::memory_order_relaxed)) {
    OrderGraph& graph = Graph();
    std::lock_guard<std::mutex> lock(graph.mu);
    ForgetMutex(graph, id_);
  }
}

// Records held -> this edges for every lock this thread holds, checking
// each new edge for a cycle. Called after the acquisition succeeded (the
// abort makes "before or after" moot).
void Mutex::NoteAcquisition() const {
  if (tls_held.empty()) {
    return;
  }
  OrderGraph& graph = Graph();
  std::lock_guard<std::mutex> lock(graph.mu);
  for (const Mutex* held : tls_held) {
    if (held == this) {
      continue;  // recursive re-acquisition would already have deadlocked
    }
    std::vector<Edge>& edges = graph.adjacency[held->id_];
    bool known = false;
    for (const Edge& edge : edges) {
      if (edge.to == id_) {
        known = true;
        break;
      }
    }
    if (known) {
      continue;
    }
    // New edge: a path this -> ... -> held closes a cycle.
    std::unordered_set<uint32_t> visited;
    std::vector<const Edge*> path;
    if (FindPath(graph, id_, held->id_, &visited, &path)) {
      ReportInversionAndAbort(held, this, path);
    }
    edges.push_back(Edge{id_, name_, DescribeHeldStack(this)});
    graph.predecessors[id_].push_back(held->id_);
    held->in_order_graph_.store(true, std::memory_order_relaxed);
    in_order_graph_.store(true, std::memory_order_relaxed);
  }
}

void Mutex::Lock() {
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  bool timing = MutexTimingEnabled();
  if (mu_.try_lock()) {
    if (timing) {
      acquired_at_ns_ = NowNs();
    }
  } else {
    contended_.fetch_add(1, std::memory_order_relaxed);
    uint64_t t0 = timing ? NowNs() : 0;
    mu_.lock();
    if (timing) {
      uint64_t now = NowNs();
      wait_ns_.fetch_add(now - t0, std::memory_order_relaxed);
      acquired_at_ns_ = now;
    }
  }
  if (DeadlockDetectorEnabled()) {
    NoteAcquisition();
    PushHeld(this);
  }
}

void Mutex::Unlock() {
  if (MutexTimingEnabled() && acquired_at_ns_ != 0) {
    held_ns_.fetch_add(NowNs() - acquired_at_ns_, std::memory_order_relaxed);
    acquired_at_ns_ = 0;
  }
  if (DeadlockDetectorEnabled()) {
    PopHeld(this);
  }
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) {
    return false;
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (MutexTimingEnabled()) {
    acquired_at_ns_ = NowNs();
  }
  // A successful try-lock joins the held stack (later blocking acquisitions
  // order against it) but records no incoming edge: it cannot block, so it
  // cannot be the waiting party of a deadlock cycle.
  if (DeadlockDetectorEnabled()) {
    PushHeld(this);
  }
  return true;
}

MutexStats Mutex::Stats() const {
  MutexStats stats;
  stats.name = name_;
  stats.acquisitions = acquisitions_.load(std::memory_order_relaxed);
  stats.contended = contended_.load(std::memory_order_relaxed);
  stats.wait_ns = wait_ns_.load(std::memory_order_relaxed);
  stats.held_ns = held_ns_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hcs

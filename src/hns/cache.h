// The HNS cache — the specialized cache the paper credits with making HNS
// performance acceptable. Keys exhibit locality of reference by query class
// and name-system type; entries carry the TTL of the BIND records they came
// from (cache invalidation is inherited from BIND's time-to-live scheme,
// paper footnote 7).
//
// Every entry holds one parsed value; a hit copies it out. The mode
// reproduces the paper's marshalling lesson (Table 3.2) on the simulated
// clock only, by what it charges per hit:
//   kMarshalled   — the paper's first, wire-form cache: the
//                   stub-generated demarshal of the entry, as if it were
//                   decoded;
//   kDemarshalled — the parsed-value cache: a probe plus a copy. "The
//                   times decreased dramatically."
// On the real clock both modes cost the same.
//
// Beyond the paper's prototype, the cache is production-shaped: it is
// sharded (per-shard mutex for the real-transport path), bounded (intrusive
// LRU list per shard, eviction on a configurable byte budget), and caches
// NotFound results negatively under a short TTL. A second level, the
// CompositeBindingCache, stores fully-composed FindNSM results keyed by
// (context, query class) so a warm FindNSM is one probe + one copy instead
// of six record probes.

#ifndef HCS_SRC_HNS_CACHE_H_
#define HCS_SRC_HNS_CACHE_H_

#include <array>
#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/binding.h"
#include "src/sim/world.h"
#include "src/wire/marshal.h"
#include "src/wire/value.h"

namespace hcs {

enum class CacheMode {
  kNone,          // every access goes to the network
  kMarshalled,    // hits charged a stub demarshal (sim clock)
  kDemarshalled,  // hits charged a copy (sim clock)
};

std::string CacheModeName(CacheMode mode);

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;         // entries pushed out by the byte budget
  uint64_t negative_hits = 0;     // probes answered by a cached NotFound
  uint64_t coalesced_misses = 0;  // misses that waited on an in-flight fetch
  uint64_t bytes = 0;             // current stored size

  double HitFraction() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    expirations += other.expirations;
    inserts += other.inserts;
    evictions += other.evictions;
    negative_hits += other.negative_hits;
    coalesced_misses += other.coalesced_misses;
    bytes += other.bytes;
    return *this;
  }

  // Total probes that touched the cache (negative hits included).
  uint64_t Probes() const { return hits + misses + negative_hits; }
};

struct HnsCacheOptions {
  // Number of shards; rounded up to a power of two. One is fine for the
  // single-threaded simulator; real transports want several.
  size_t shards = 8;
  // Byte budget across all shards; 0 = unbounded. Enforced per shard
  // (budget / shards), evicting from the shard's LRU tail.
  size_t max_bytes = 0;
  // TTL applied to negative (NotFound) entries. Short: a registration can
  // appear at any moment and should become visible quickly.
  uint32_t negative_ttl_seconds = 5;
};

// The simulation clock when `world` is present, else a monotonic real
// clock (microseconds) — TTLs must hold outside the simulator too.
SimTime CacheNow(const World* world);

class HnsCache {
 public:
  // What a probe found. Distinguishing a cached NotFound from a plain miss
  // lets the read path skip the upstream query on negative hits.
  enum class Probe { kHit, kNegativeHit, kMiss };
  struct LookupResult {
    Probe probe = Probe::kMiss;
    WireValue value;    // valid when probe == kHit
    SimTime expires = 0;  // valid when probe != kMiss
  };

  // `world` may be null (real transports): no time is charged and TTLs run
  // on the monotonic real clock.
  HnsCache(World* world, CacheMode mode, HnsCacheOptions options = {});

  CacheMode mode() const { return mode_; }
  void set_mode(CacheMode mode) { mode_ = mode; }
  const HnsCacheOptions& options() const { return options_; }

  // Probes `key`. Charges the probe and, on a positive hit, the mode's
  // access cost. A hit refreshes the entry's LRU position.
  LookupResult Lookup(const std::string& key);

  // Convenience wrapper over Lookup: kNotFound on miss, negative hit, or
  // TTL expiry. `expires_out`, when non-null, receives the entry's expiry
  // on a positive hit (used for min-TTL composition).
  HCS_NODISCARD Result<WireValue> Get(const std::string& key, SimTime* expires_out = nullptr);

  // Inserts `value` under `key` with the given TTL. The entry's budget
  // charge and per-hit cost units come from the value's wire size. May
  // evict LRU entries to respect the byte budget.
  void Put(const std::string& key, const WireValue& value, uint32_t ttl_seconds);

  // Records that `key` does not exist upstream, for `ttl_seconds` (0 = the
  // configured negative TTL).
  void PutNegative(const std::string& key, uint32_t ttl_seconds = 0);

  void Remove(const std::string& key);
  void Clear();
  size_t size() const;

  // Stored size in bytes: a running total maintained at Put/Remove time
  // (the paper's meta information was about 2 KB — preload decisions depend
  // on this; the LRU byte budget depends on it being cheap).
  size_t ApproximateBytes() const;

  // Aggregated over all shards.
  CacheStats stats() const;
  void ResetStats();

  // Singleflight accounting: a miss that waited on another caller's
  // in-flight upstream fetch instead of issuing its own (see
  // MetaStore::ReadRecord).
  void NoteCoalescedMiss();

  // Structural self-check, shard by shard: LRU list and index agree (same
  // size, every index entry points at a list node with the matching key)
  // and the running byte total equals the recomputed per-entry sum. Returns
  // the first violation; cache tests and bench_cache call this after
  // mutation storms.
  HCS_NODISCARD Status CheckInvariants() const;

 private:
  struct Entry {
    std::string key;
    WireValue value;
    size_t units = 0;   // record-equivalents of the wire form, drive hit costs
    size_t bytes = 0;   // budget charge, recorded at insert time
    SimTime expires = 0;
    bool negative = false;
  };
  // Per-shard counters. Relaxed atomics rather than HCS_GUARDED_BY(mu):
  // they are pure tallies, so stats()/ResetStats()/NoteCoalescedMiss()
  // never take a shard lock, and bumps inside locked sections cost a
  // relaxed add instead of extending the critical section's footprint.
  struct ShardStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> expirations{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> negative_hits{0};
    std::atomic<uint64_t> coalesced_misses{0};
  };
  struct Shard {
    mutable Mutex mu{"hns-cache-shard"};
    std::list<Entry> lru HCS_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index HCS_GUARDED_BY(mu);
    // Structural (budget decisions read it under mu), but atomic so
    // ApproximateBytes()/stats() read it lock-free; only mutated under mu.
    std::atomic<size_t> bytes{0};
    ShardStats stats;
  };

  SimTime Now() const { return CacheNow(world_); }
  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  // Inserts an entry (positive or negative), evicting from the shard's LRU
  // tail while over the per-shard byte budget.
  void Insert(Entry entry);
  // Unlinks `it` from `shard`, updating the byte total.
  static void Unlink(Shard* shard,
                     std::unordered_map<std::string, std::list<Entry>::iterator>::iterator it)
      HCS_REQUIRES(shard->mu);

  World* world_;
  CacheMode mode_;
  HnsCacheOptions options_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// --- Composite binding cache (level 2) -------------------------------------
// Stores fully-resolved FindNSM results keyed by (context, query class),
// with TTL = min of the constituent meta-mapping TTLs: the warm path becomes
// one probe + one copy. Entries carry the (name service, NSM) identity they
// were composed from so registrations can evict exactly the affected keys.

struct CompositeEntry {
  std::string nsm_name;
  HrpcBinding binding;
  // Invalidation metadata (lower-cased at insert).
  std::string context;
  std::string query_class;
  std::string ns_name;
  SimTime expires = 0;
};

class CompositeBindingCache {
 public:
  explicit CompositeBindingCache(World* world) : world_(world) {}

  CompositeBindingCache(const CompositeBindingCache&) = delete;
  CompositeBindingCache& operator=(const CompositeBindingCache&) = delete;

  // One probe (charged); on a hit, one copy (charged). Expired entries are
  // reaped and reported as misses.
  std::optional<CompositeEntry> Get(const std::string& context,
                                    const std::string& query_class);

  // Invalidations so far. FindNSM reads it before it reads the records it
  // composes from and hands it to Put.
  uint64_t generation() const { return counters_.generation.load(); }

  // `expires` is absolute (the min of the constituent expiries, already
  // capped by the caller). `generation` is generation() from before the
  // entry's records were read: when an invalidation has come since, the
  // entry may be composed from records it replaced, and is dropped.
  void Put(CompositeEntry entry, uint64_t generation);

  // Eviction on registration changes: drops every entry composed for
  // `context` (any query class).
  void InvalidateContext(const std::string& context);
  // Drops every entry composed from (ns_name, query_class), and — when
  // `nsm_name` is non-empty — every entry designating that NSM.
  void InvalidateNsm(const std::string& ns_name, const std::string& query_class,
                     const std::string& nsm_name);

  void Clear();
  size_t size() const;
  CacheStats stats() const;
  void ResetStats();

  // Structural self-check, mirroring HnsCache::CheckInvariants: every key
  // matches its entry's lower-cased (context, query class) metadata, every
  // entry names an NSM, every expiry is set, and the byte total equals the
  // sum over entries. Chaos scenarios run this after every fault schedule.
  HCS_NODISCARD Status CheckInvariants() const;

 private:
  // Fixed shard count: warm FindNSM probes from concurrent serving threads
  // hash to independent locks instead of one global mutex (invalidations
  // still sweep every shard — they are rare registration-time events).
  static constexpr size_t kShards = 8;

  struct Shard {
    mutable Mutex mu{"hns-composite-shard"};
    // By "context\x1fqc", lower-cased.
    std::map<std::string, CompositeEntry> entries HCS_GUARDED_BY(mu);
  };
  // Counters are relaxed atomics (pure tallies; see HnsCache::ShardStats).
  // `bytes` is mutated only under the owning shard's mu but read lock-free.
  struct Counters {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> expirations{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> bytes{0};
    // Bumped by each Invalidate* before it sweeps the shards; Put checks it
    // under the shard lock, so an entry either misses the check or is
    // swept.
    std::atomic<uint64_t> generation{0};
  };

  SimTime Now() const { return CacheNow(world_); }
  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  World* world_;
  std::array<Shard, kShards> shards_;
  Counters counters_;
};

}  // namespace hcs

#endif  // HCS_SRC_HNS_CACHE_H_

#include "src/hns/cache.h"

#include "src/common/strings.h"

namespace hcs {

namespace {

// Fixed per-entry bookkeeping charge (list/index nodes, expiry, flags).
constexpr size_t kEntryOverheadBytes = 48;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

std::string CacheModeName(CacheMode mode) {
  switch (mode) {
    case CacheMode::kNone:
      return "none";
    case CacheMode::kMarshalled:
      return "marshalled";
    case CacheMode::kDemarshalled:
      return "demarshalled";
  }
  return "unknown";
}

HnsCache::HnsCache(World* world, CacheMode mode, HnsCacheOptions options)
    : world_(world), mode_(mode), options_(options) {
  size_t n = RoundUpPow2(options_.shards == 0 ? 1 : options_.shards);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

HnsCache::Shard& HnsCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) & shard_mask_];
}

const HnsCache::Shard& HnsCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) & shard_mask_];
}

HnsCache::LookupResult HnsCache::Lookup(const std::string& key) {
  LookupResult result;
  if (mode_ == CacheMode::kNone) {
    ShardFor(key).stats.misses.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  ChargeMs(world_, kCosts.cache_probe_ms);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.stats.misses.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  if (it->second->expires <= Now()) {
    Unlink(&shard, it);
    shard.stats.expirations.fetch_add(1, std::memory_order_relaxed);
    shard.stats.misses.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  // Refresh the LRU position.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);

  if (it->second->negative) {
    shard.stats.negative_hits.fetch_add(1, std::memory_order_relaxed);
    result.probe = Probe::kNegativeHit;
    result.expires = it->second->expires;
    return result;
  }
  shard.stats.hits.fetch_add(1, std::memory_order_relaxed);
  result.probe = Probe::kHit;
  result.expires = it->second->expires;

  if (mode_ == CacheMode::kMarshalled) {
    // The paper's first HNS cache demarshalled its stored wire form on
    // every access with the expensive stub-generated routines.
    ChargeDemarshal(world_, MarshalEngine::kStubGenerated, static_cast<int>(it->second->units));
  } else {
    ChargeMs(world_, kCosts.cache_copy_per_record_ms * static_cast<double>(it->second->units));
  }
  result.value = it->second->value;
  return result;
}

Result<WireValue> HnsCache::Get(const std::string& key, SimTime* expires_out) {
  if (mode_ == CacheMode::kNone) {
    (void)Lookup(key);  // hcs:ignore-status(disabled-cache probe; only the miss-counter side effect matters)
    return NotFoundError("cache disabled");
  }
  LookupResult looked = Lookup(key);
  switch (looked.probe) {
    case Probe::kHit:
      if (expires_out != nullptr) {
        *expires_out = looked.expires;
      }
      return std::move(looked.value);
    case Probe::kNegativeHit:
      return NotFoundError("negative cache entry: " + key);
    case Probe::kMiss:
      break;
  }
  return NotFoundError("cache miss: " + key);
}

void HnsCache::Insert(Entry entry) {
  Shard& shard = ShardFor(entry.key);
  size_t shard_budget =
      options_.max_bytes == 0 ? 0 : std::max<size_t>(1, options_.max_bytes / shards_.size());

  ChargeMs(world_, kCosts.cache_insert_ms);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    Unlink(&shard, it);
  }
  shard.bytes.fetch_add(entry.bytes, std::memory_order_relaxed);
  shard.lru.push_front(std::move(entry));
  shard.index[shard.lru.front().key] = shard.lru.begin();
  shard.stats.inserts.fetch_add(1, std::memory_order_relaxed);

  // Enforce the byte budget from the cold end; the fresh entry survives
  // even when it alone exceeds the budget (an oversized record is still
  // more useful cached once than never).
  while (shard_budget != 0 && shard.bytes.load(std::memory_order_relaxed) > shard_budget &&
         shard.lru.size() > 1) {
    auto victim = shard.index.find(shard.lru.back().key);
    Unlink(&shard, victim);
    shard.stats.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void HnsCache::Put(const std::string& key, const WireValue& value, uint32_t ttl_seconds) {
  if (mode_ == CacheMode::kNone) {
    return;
  }
  Entry entry;
  entry.key = key;
  size_t wire_bytes = value.EncodedSize();
  entry.units = static_cast<size_t>(MarshalUnitsForBytes(wire_bytes));
  entry.bytes = key.size() + wire_bytes + kEntryOverheadBytes;
  entry.value = value;
  entry.expires = Now() + MsToSim(static_cast<double>(ttl_seconds) * 1000.0);
  Insert(std::move(entry));
}

void HnsCache::PutNegative(const std::string& key, uint32_t ttl_seconds) {
  if (mode_ == CacheMode::kNone) {
    return;
  }
  if (ttl_seconds == 0) {
    ttl_seconds = options_.negative_ttl_seconds;
  }
  Entry entry;
  entry.key = key;
  entry.negative = true;
  entry.bytes = key.size() + kEntryOverheadBytes;
  entry.expires = Now() + MsToSim(static_cast<double>(ttl_seconds) * 1000.0);
  Insert(std::move(entry));
}

void HnsCache::Unlink(Shard* shard,
                      std::unordered_map<std::string, std::list<Entry>::iterator>::iterator it) {
  shard->bytes.fetch_sub(it->second->bytes, std::memory_order_relaxed);
  shard->lru.erase(it->second);
  shard->index.erase(it);
}

void HnsCache::Remove(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Unlink(&shard, it);
  }
}

void HnsCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes.store(0, std::memory_order_relaxed);
  }
}

size_t HnsCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

size_t HnsCache::ApproximateBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

CacheStats HnsCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const ShardStats& s = shard->stats;
    total.hits += s.hits.load(std::memory_order_relaxed);
    total.misses += s.misses.load(std::memory_order_relaxed);
    total.expirations += s.expirations.load(std::memory_order_relaxed);
    total.inserts += s.inserts.load(std::memory_order_relaxed);
    total.evictions += s.evictions.load(std::memory_order_relaxed);
    total.negative_hits += s.negative_hits.load(std::memory_order_relaxed);
    total.coalesced_misses += s.coalesced_misses.load(std::memory_order_relaxed);
    total.bytes += shard->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void HnsCache::ResetStats() {
  for (auto& shard : shards_) {
    ShardStats& s = shard->stats;
    s.hits.store(0, std::memory_order_relaxed);
    s.misses.store(0, std::memory_order_relaxed);
    s.expirations.store(0, std::memory_order_relaxed);
    s.inserts.store(0, std::memory_order_relaxed);
    s.evictions.store(0, std::memory_order_relaxed);
    s.negative_hits.store(0, std::memory_order_relaxed);
    s.coalesced_misses.store(0, std::memory_order_relaxed);
  }
}

void HnsCache::NoteCoalescedMiss() {
  shards_[0]->stats.coalesced_misses.fetch_add(1, std::memory_order_relaxed);
}

Status HnsCache::CheckInvariants() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    MutexLock lock(shard.mu);
    if (shard.index.size() != shard.lru.size()) {
      return InternalError(StrFormat("shard %zu: index has %zu entries but LRU list has %zu",
                                     i, shard.index.size(), shard.lru.size()));
    }
    size_t recomputed = 0;
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      auto indexed = shard.index.find(it->key);
      if (indexed == shard.index.end()) {
        return InternalError(
            StrFormat("shard %zu: LRU entry '%s' missing from index", i, it->key.c_str()));
      }
      if (indexed->second != it) {
        return InternalError(StrFormat("shard %zu: index entry '%s' points at the wrong node",
                                       i, it->key.c_str()));
      }
      recomputed += it->bytes;
    }
    size_t accounted = shard.bytes.load(std::memory_order_relaxed);
    if (recomputed != accounted) {
      return InternalError(StrFormat(
          "shard %zu: running byte total %zu != recomputed sum %zu", i, accounted, recomputed));
    }
  }
  return Status::Ok();
}

// --- CompositeBindingCache --------------------------------------------------

namespace {

std::string CompositeKey(const std::string& context, const std::string& query_class) {
  return AsciiToLower(context) + '\x1f' + AsciiToLower(query_class);
}

// Budget/copy-cost estimate of one composed entry: strings + binding words.
size_t CompositeEntryBytes(const CompositeEntry& entry) {
  return entry.nsm_name.size() + entry.context.size() + entry.query_class.size() +
         entry.ns_name.size() + entry.binding.service_name.size() +
         entry.binding.host.size() + 48;
}

}  // namespace

CompositeBindingCache::Shard& CompositeBindingCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

const CompositeBindingCache::Shard& CompositeBindingCache::ShardFor(
    const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

std::optional<CompositeEntry> CompositeBindingCache::Get(const std::string& context,
                                                         const std::string& query_class) {
  ChargeMs(world_, kCosts.cache_probe_ms);
  std::string key = CompositeKey(context, query_class);
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (it->second.expires <= Now()) {
    counters_.bytes.fetch_sub(CompositeEntryBytes(it->second), std::memory_order_relaxed);
    shard.entries.erase(it);
    counters_.expirations.fetch_add(1, std::memory_order_relaxed);
    counters_.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  counters_.hits.fetch_add(1, std::memory_order_relaxed);
  // The entry is already composed and demarshalled: a hit costs one copy.
  ChargeMs(world_, kCosts.cache_copy_per_record_ms *
                       static_cast<double>(MarshalUnitsForBytes(CompositeEntryBytes(it->second))));
  return it->second;
}

void CompositeBindingCache::Put(CompositeEntry entry, uint64_t generation) {
  ChargeMs(world_, kCosts.cache_insert_ms);
  entry.context = AsciiToLower(entry.context);
  entry.query_class = AsciiToLower(entry.query_class);
  entry.ns_name = AsciiToLower(entry.ns_name);
  std::string key = entry.context + '\x1f' + entry.query_class;
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  if (generation != counters_.generation.load()) {
    return;
  }
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    counters_.bytes.fetch_sub(CompositeEntryBytes(it->second), std::memory_order_relaxed);
    shard.entries.erase(it);
  }
  counters_.bytes.fetch_add(CompositeEntryBytes(entry), std::memory_order_relaxed);
  counters_.inserts.fetch_add(1, std::memory_order_relaxed);
  shard.entries[std::move(key)] = std::move(entry);
}

void CompositeBindingCache::InvalidateContext(const std::string& context) {
  std::string needle = AsciiToLower(context);
  counters_.generation.fetch_add(1);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second.context == needle) {
        counters_.bytes.fetch_sub(CompositeEntryBytes(it->second), std::memory_order_relaxed);
        counters_.evictions.fetch_add(1, std::memory_order_relaxed);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void CompositeBindingCache::InvalidateNsm(const std::string& ns_name,
                                          const std::string& query_class,
                                          const std::string& nsm_name) {
  std::string ns = AsciiToLower(ns_name);
  std::string qc = AsciiToLower(query_class);
  std::string nsm = AsciiToLower(nsm_name);
  counters_.generation.fetch_add(1);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      bool from_mapping = it->second.ns_name == ns && it->second.query_class == qc;
      bool designates = !nsm.empty() && AsciiToLower(it->second.nsm_name) == nsm;
      if (from_mapping || designates) {
        counters_.bytes.fetch_sub(CompositeEntryBytes(it->second), std::memory_order_relaxed);
        counters_.evictions.fetch_add(1, std::memory_order_relaxed);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void CompositeBindingCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.entries.clear();
  }
  counters_.bytes.store(0, std::memory_order_relaxed);
}

size_t CompositeBindingCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

CacheStats CompositeBindingCache::stats() const {
  CacheStats out;
  out.hits = counters_.hits.load(std::memory_order_relaxed);
  out.misses = counters_.misses.load(std::memory_order_relaxed);
  out.expirations = counters_.expirations.load(std::memory_order_relaxed);
  out.inserts = counters_.inserts.load(std::memory_order_relaxed);
  out.evictions = counters_.evictions.load(std::memory_order_relaxed);
  out.bytes = counters_.bytes.load(std::memory_order_relaxed);
  return out;
}

void CompositeBindingCache::ResetStats() {
  counters_.hits.store(0, std::memory_order_relaxed);
  counters_.misses.store(0, std::memory_order_relaxed);
  counters_.expirations.store(0, std::memory_order_relaxed);
  counters_.inserts.store(0, std::memory_order_relaxed);
  counters_.evictions.store(0, std::memory_order_relaxed);
  // `bytes` tracks live contents, not history — it survives a reset.
}

Status CompositeBindingCache::CheckInvariants() const {
  uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      if (key != entry.context + '\x1f' + entry.query_class) {
        return InternalError("composite cache: key does not match entry metadata: " + key);
      }
      if (entry.context != AsciiToLower(entry.context) ||
          entry.query_class != AsciiToLower(entry.query_class) ||
          entry.ns_name != AsciiToLower(entry.ns_name)) {
        return InternalError("composite cache: entry metadata not lower-cased: " + key);
      }
      if (entry.nsm_name.empty()) {
        return InternalError("composite cache: entry designates no NSM: " + key);
      }
      if (entry.expires == 0) {
        return InternalError("composite cache: entry has no expiry: " + key);
      }
      bytes += CompositeEntryBytes(entry);
    }
  }
  uint64_t accounted = counters_.bytes.load(std::memory_order_relaxed);
  if (bytes != accounted) {
    return InternalError(StrFormat("composite cache: byte total %llu != accounted %llu",
                                   static_cast<unsigned long long>(bytes),
                                   static_cast<unsigned long long>(accounted)));
  }
  return Status::Ok();
}

}  // namespace hcs

#include "src/common/arena.h"

#include <algorithm>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define HCS_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HCS_ARENA_ASAN 1
#endif
#endif
#ifndef HCS_ARENA_ASAN
#define HCS_ARENA_ASAN 0
#endif

#if HCS_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace hcs {

namespace {
constexpr size_t kMinBlock = 4096;
}  // namespace

bool DebugPoisonTraps() { return HCS_VIEW_DEBUG_ENABLED && HCS_ARENA_ASAN; }

void DebugPoisonSpan(uint8_t* p, size_t n) {
#if HCS_VIEW_DEBUG_ENABLED
  if (n == 0) {
    return;
  }
#if HCS_ARENA_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  std::memset(p, kArenaCanary, n);
#endif
#else
  (void)p;
  (void)n;
#endif
}

void DebugUnpoisonSpan(uint8_t* p, size_t n) {
#if HCS_VIEW_DEBUG_ENABLED && HCS_ARENA_ASAN
  if (n != 0) {
    ASAN_UNPOISON_MEMORY_REGION(p, n);
  }
#else
  (void)p;
  (void)n;
#endif
}

ScopedArenaViewBinding::ScopedArenaViewBinding(Arena* arena) {
#if HCS_VIEW_DEBUG_ENABLED
  previous_ = SetAmbientViewDebugState(
      arena != nullptr ? arena->view_debug_state() : nullptr);
#else
  (void)arena;
#endif
}

ScopedArenaViewBinding::~ScopedArenaViewBinding() {
#if HCS_VIEW_DEBUG_ENABLED
  (void)SetAmbientViewDebugState(previous_);
#endif
}

Arena::Arena(size_t initial_capacity) {
  if (initial_capacity > 0) {
    AddBlock(initial_capacity);
  }
}

Arena::~Arena() {
  // Unpoison before the blocks free: the allocator owns the shadow state
  // of freed memory, and leaving user poison behind confuses it.
  for (Block& block : blocks_) {
    DebugUnpoisonSpan(block.data.get(), block.size);
  }
}

void Arena::AddBlock(size_t min_size) {
  // Geometric growth so a pathological request sequence costs O(log n)
  // mallocs, with the floor keeping tiny arenas out of the allocator.
  size_t size = std::max({min_size, capacity_, kMinBlock});
  Block block;
  // Not zero-filled: Allocate's callers write before they read, so a big
  // block costs no page touches until it is used.
  block.data = std::make_unique_for_overwrite<uint8_t[]>(size);
  block.size = size;
  capacity_ += size;
  blocks_.push_back(std::move(block));
  cur_ = blocks_.back().data.get();
  end_ = cur_ + size;
  // A fresh block is all unallocated space: trap it until Allocate hands
  // pieces out.
  DebugPoisonSpan(cur_, size);
#if HCS_VIEW_DEBUG_ENABLED
  debug_.spans.push_back(ViewDebugState::Span{cur_, end_});
#endif
}

uint8_t* Arena::Allocate(size_t n, size_t align) {
  uintptr_t p = reinterpret_cast<uintptr_t>(cur_);
  uintptr_t aligned = (p + (align - 1)) & ~(static_cast<uintptr_t>(align) - 1);
  size_t pad = aligned - p;
  if (cur_ == nullptr || n + pad > static_cast<size_t>(end_ - cur_)) {
    AddBlock(n + align);
    p = reinterpret_cast<uintptr_t>(cur_);
    aligned = (p + (align - 1)) & ~(static_cast<uintptr_t>(align) - 1);
    pad = aligned - p;
  }
  cur_ = reinterpret_cast<uint8_t*>(aligned) + n;
  used_ += n + pad;
  // Unpoison exactly the handed-out bytes; alignment padding and the
  // unallocated tail stay trapped.
  DebugUnpoisonSpan(reinterpret_cast<uint8_t*>(aligned), n);
  return reinterpret_cast<uint8_t*>(aligned);
}

#if HCS_VIEW_DEBUG_ENABLED
void Arena::Reset(std::source_location reset_site) {
#else
void Arena::Reset() {
#endif
  ++generation_;
#if HCS_VIEW_DEBUG_ENABLED
  debug_.reset_file.store(reset_site.file_name(), std::memory_order_release);
  debug_.reset_line.store(reset_site.line(), std::memory_order_release);
  // The generation store publishes the kill: every stamped view born
  // before this line is dead from here on.
  debug_.generation.store(generation_, std::memory_order_release);
#endif
  used_ = 0;
  if (blocks_.empty()) {
    return;
  }
  if (blocks_.size() > 1) {
    // Coalesce: one block of the full high-water capacity, so the next
    // fill of the same volume bump-allocates without touching malloc.
    // Unpoison each block before its memory returns to the allocator.
    for (Block& block : blocks_) {
      DebugUnpoisonSpan(block.data.get(), block.size);
    }
    size_t total = capacity_;
    blocks_.clear();
    capacity_ = 0;
#if HCS_VIEW_DEBUG_ENABLED
    debug_.spans.clear();
#endif
    AddBlock(total);
    used_ = 0;
    return;
  }
  cur_ = blocks_.back().data.get();
  end_ = cur_ + blocks_.back().size;
  // Everything handed out since the last Reset is now free space again:
  // trap it (ASan) or scribble it (canary) so stale readers cannot see
  // the old payload.
  DebugPoisonSpan(cur_, blocks_.back().size);
}

}  // namespace hcs

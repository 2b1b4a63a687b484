// Byte-buffer helpers used by the wire formats and transports.

#ifndef HCS_SRC_COMMON_BYTES_H_
#define HCS_SRC_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

// View-lifetime debug mode (DESIGN.md §13). When enabled, BytesViews born
// over arena memory carry a birth site + arena generation stamp and abort
// on any access after the arena was Reset; the arena itself poisons freed
// spans (ASan user poisoning, or a canary scribble without ASan). On by
// default in !NDEBUG builds; sanitizer builds force it on via the
// HCS_DEBUG_ARENA / HCS_DEBUG_VIEW compile definitions (CMakeLists.txt);
// release builds compile all of it out — BytesView stays a pointer+size
// pair with zero-cost accessors.
#if !defined(HCS_VIEW_DEBUG_ENABLED)
#if defined(HCS_DEBUG_VIEW) || defined(HCS_DEBUG_ARENA) || !defined(NDEBUG)
#define HCS_VIEW_DEBUG_ENABLED 1
#else
#define HCS_VIEW_DEBUG_ENABLED 0
#endif
#endif

#if HCS_VIEW_DEBUG_ENABLED
#include <atomic>
#include <source_location>
#endif

namespace hcs {

// All wire-format code in the tree operates on this alias.
using Bytes = std::vector<uint8_t>;

#if HCS_VIEW_DEBUG_ENABLED
// Per-arena view-lifetime state, owned and maintained by hcs::Arena
// (src/common/arena.{h,cc}). `generation` bumps on every Reset; a view born
// at generation G is dead the moment the counter moves past G. `spans`
// lists the arena's blocks so the BytesView constructor can decide whether
// a pointer is arena-backed at all; it is mutated only by the arena's
// single owner (the arena is not thread-safe by contract) and read by
// stamping threads only while the owner cannot be Reset-ing (the batch
// ownership protocol in DESIGN.md §13).
struct ViewDebugState {
  struct Span {
    const uint8_t* begin = nullptr;
    const uint8_t* end = nullptr;
  };

  std::atomic<uint64_t> generation{0};
  // Site of the most recent Reset — the "kill site" in abort reports.
  std::atomic<const char*> reset_file{nullptr};
  std::atomic<uint32_t> reset_line{0};
  std::vector<Span> spans;

  bool Contains(const uint8_t* p) const {
    for (const Span& span : spans) {
      if (p >= span.begin && p < span.end) {
        return true;
      }
    }
    return false;
  }
};

// Thread-local ambient arena binding. The serving runtimes install the
// current batch's arena before dispatch (ScopedArenaViewBinding,
// src/common/arena.h); every BytesView constructed over that arena's
// memory while the binding is active gets stamped.
ViewDebugState* AmbientViewDebugState();
ViewDebugState* SetAmbientViewDebugState(ViewDebugState* state);  // returns previous

// Aborts with both sides of the violation: where the view was born and
// where the arena was Reset.
[[noreturn]] void ViewUseAfterResetAbort(const char* birth_file, uint32_t birth_line,
                                         uint64_t birth_generation,
                                         const ViewDebugState* guard);
#endif  // HCS_VIEW_DEBUG_ENABLED

// A non-owning view of a byte range — the zero-copy currency of the
// request hot path. Converts implicitly from Bytes (so view-taking APIs
// accept owned buffers); a copy back to Bytes is always an explicit
// ToBytes(). A view does not keep its backing storage alive: on the serve
// path it points into the arrival batch's arena and is valid only until the
// handler returns.
// The normative lifetime rules are the DESIGN.md §13 table; they are
// machine-checked by tools/lint_views.py (static) and, in
// HCS_VIEW_DEBUG_ENABLED builds, by the generation stamp every
// arena-backed view carries (runtime).
class BytesView {
 public:
  constexpr BytesView() = default;
#if HCS_VIEW_DEBUG_ENABLED
  BytesView(const uint8_t* data, size_t size,
            std::source_location birth = std::source_location::current())
      : data_(data), size_(size) {
    Stamp(birth);
  }
  BytesView(const Bytes& bytes,
            std::source_location birth = std::source_location::current())
      : data_(bytes.data()), size_(bytes.size()) {
    Stamp(birth);
  }
#else
  constexpr BytesView(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  BytesView(const Bytes& bytes) : data_(bytes.data()), size_(bytes.size()) {}
#endif

  const uint8_t* data() const {
    CheckAlive();
    return data_;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const {
    CheckAlive();
    return data_;
  }
  const uint8_t* end() const {
    CheckAlive();
    return data_ + size_;
  }
  uint8_t operator[](size_t i) const {
    CheckAlive();
    return data_[i];
  }

  Bytes ToBytes() const {
    CheckAlive();
    return Bytes(data_, data_ + size_);
  }

#if HCS_VIEW_DEBUG_ENABLED
  // True when the view is not arena-stamped, or its arena has not been
  // Reset since birth. Lets tests observe staleness without dying.
  bool debug_alive() const {
    return guard_ == nullptr ||
           guard_->generation.load(std::memory_order_acquire) == birth_generation_;
  }
#endif

 private:
#if HCS_VIEW_DEBUG_ENABLED
  void Stamp(const std::source_location& birth) {
    ViewDebugState* ambient = AmbientViewDebugState();
    if (ambient != nullptr && data_ != nullptr && ambient->Contains(data_)) {
      guard_ = ambient;
      birth_generation_ = ambient->generation.load(std::memory_order_acquire);
      birth_file_ = birth.file_name();
      birth_line_ = birth.line();
    }
  }
  void CheckAlive() const {
    if (guard_ != nullptr &&
        guard_->generation.load(std::memory_order_acquire) != birth_generation_) {
      ViewUseAfterResetAbort(birth_file_, birth_line_, birth_generation_, guard_);
    }
  }

  const ViewDebugState* guard_ = nullptr;
  uint64_t birth_generation_ = 0;
  const char* birth_file_ = nullptr;
  uint32_t birth_line_ = 0;
#else
  void CheckAlive() const {}
#endif

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Hex dump ("de ad be ef") of at most `max_bytes` bytes, for diagnostics.
std::string HexDump(const Bytes& bytes, size_t max_bytes = 64);

// Conversions between Bytes and std::string payloads.
Bytes BytesFromString(const std::string& s);
std::string StringFromBytes(const Bytes& b);

}  // namespace hcs

#endif  // HCS_SRC_COMMON_BYTES_H_

// Move-only type-erased `void()` callable with a large inline buffer.
//
// The engine fires millions of events per simulated run; storing each
// callback in a std::function pays a heap allocation whenever the capture
// exceeds the library's small-object buffer (16 bytes on libstdc++ —
// smaller than a typical `[this, task, origin]` capture here). EventFn
// widens the inline buffer so every callback the simulator actually
// schedules is constructed straight into the event slot (emplace()), and
// falls back to the heap only for outsized captures (e.g. trace-replay
// records).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace realtor::sim {

class EventFn;

/// What an EventFn can hold: a `void()` callable other than EventFn.
template <typename F>
concept EventCallable = !std::is_same_v<std::decay_t<F>, EventFn> &&
                        std::is_invocable_r_v<void, std::decay_t<F>&>;

class EventFn {
 public:
  /// Inline capture capacity, sized for the hottest real capture in the
  /// tree: SimTransport::deliver_later's [this, dest, origin, msg] with a
  /// 56-byte proto::Message variant is 72 bytes — every protocol message
  /// delivery allocates unless it fits here.
  static constexpr std::size_t kInlineBytes = 72;

  EventFn() = default;

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vtable_->invoke(storage_); }

  explicit operator bool() const { return vtable_ != nullptr; }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// Replaces the held callable with `f`, constructed directly in this
  /// object's storage: no temporary EventFn and no relocation.
  template <EventCallable F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_.inline_buf)) Fn(std::forward<F>(f));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      storage_.heap = new Fn(std::forward<F>(f));
      vtable_ = &kHeapVTable<Fn>;
    }
  }

 private:
  union Storage {
    alignas(std::max_align_t) unsigned char inline_buf[kInlineBytes];
    void* heap;
  };

  struct VTable {
    void (*invoke)(Storage& s);
    /// Move-constructs dst from src and destroys src's callable.
    void (*relocate)(Storage& dst, Storage& src);
    void (*destroy)(Storage& s);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* inline_ptr(Storage& s) {
    return std::launder(reinterpret_cast<Fn*>(s.inline_buf));
  }

  template <typename Fn>
  static constexpr VTable kInlineVTable = {
      [](Storage& s) { (*inline_ptr<Fn>(s))(); },
      [](Storage& dst, Storage& src) {
        Fn* from = inline_ptr<Fn>(src);
        ::new (static_cast<void*>(dst.inline_buf)) Fn(std::move(*from));
        from->~Fn();
      },
      [](Storage& s) { inline_ptr<Fn>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable = {
      [](Storage& s) { (*static_cast<Fn*>(s.heap))(); },
      [](Storage& dst, Storage& src) { dst.heap = src.heap; },
      [](Storage& s) { delete static_cast<Fn*>(s.heap); },
  };

  void move_from(EventFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  Storage storage_;
};

}  // namespace realtor::sim

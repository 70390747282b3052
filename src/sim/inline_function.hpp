#pragma once
// Small-buffer move-only callable for the event kernel's hot loop. Unlike
// std::function, a capture that fits the inline buffer never touches the
// heap — the engine stores one of these per scheduled event in a slab slot,
// so the steady-state schedule/fire cycle performs zero allocations (see
// tests/test_engine_alloc.cpp). A capture larger than the buffer, or one
// whose move constructor may throw, falls back to a single heap allocation:
// still correct, but silent, so on_heap() reports it and the engine counts
// every such slot (engine.callback_heap_boxes).

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ncast::sim {

template <std::size_t Cap>
class InlineFunction {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True if the held callable took the heap fallback.
  bool on_heap() const { return ops_ != nullptr && ops_->on_heap; }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  static constexpr std::size_t capacity() { return Cap; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into dst's storage from src's storage, ending src's
    /// lifetime. For heap-held callables this just relocates the pointer.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    bool on_heap;
  };

  template <typename F>
  struct InlineOps {
    static void invoke(void* b) { (*std::launder(reinterpret_cast<F*>(b)))(); }
    static void relocate(void* d, void* s) {
      F* src = std::launder(reinterpret_cast<F*>(s));
      ::new (d) F(std::move(*src));
      src->~F();
    }
    static void destroy(void* b) { std::launder(reinterpret_cast<F*>(b))->~F(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  template <typename F>
  struct HeapOps {
    static F* ptr(void* b) {
      F* p;
      std::memcpy(&p, b, sizeof(p));
      return p;
    }
    static void invoke(void* b) { (*ptr(b))(); }
    static void relocate(void* d, void* s) { std::memcpy(d, s, sizeof(F*)); }
    static void destroy(void* b) { delete ptr(b); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, true};
  };

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= Cap && alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::ops;
    } else {
      D* p = new D(std::forward<F>(fn));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Cap];
  const Ops* ops_ = nullptr;
};

}  // namespace ncast::sim

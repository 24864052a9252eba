#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ezflow::sim {

/// Move-only type-erased `void()` callable with a small-buffer store.
///
/// Scheduler callbacks are overwhelmingly a captured `this` pointer (MAC
/// timers, tracers, pacers) or the channel's end-of-transmission events,
/// one per transmission rather than per receiver, which capture only
/// {FrameRef, signal id, batch start, sender NodePhy*} (32 B) — the
/// pooled record holds the frame and the receiver list. The inline
/// buffer is sized for those hot captures with headroom, which keeps the
/// event arena slots compact; scheduling a hot-path event never touches
/// the allocator. Larger captures fall back to the heap transparently.
class EventFn {
public:
    static constexpr std::size_t kInlineBytes = 64;

    EventFn() = default;

    template <typename F,
              std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                   std::is_invocable_r_v<void, std::decay_t<F>&>,
                               int> = 0>
    EventFn(F&& fn)  // NOLINT: implicit by design, mirrors std::function
    {
        using Decayed = std::decay_t<F>;
        if constexpr (fits_inline<Decayed>()) {
            ::new (static_cast<void*>(buf_)) Decayed(std::forward<F>(fn));
            vtable_ = inline_vtable<Decayed>();
        } else {
            ::new (static_cast<void*>(buf_)) Decayed*(new Decayed(std::forward<F>(fn)));
            vtable_ = heap_vtable<Decayed>();
        }
    }

    EventFn(EventFn&& other) noexcept { move_from(other); }

    EventFn& operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return vtable_ != nullptr; }

    void operator()() { vtable_->invoke(buf_); }

    void reset()
    {
        if (vtable_ != nullptr) {
            vtable_->destroy(buf_);
            vtable_ = nullptr;
        }
    }

    /// True when the held callable lives in the inline buffer (no heap
    /// allocation happened). Exposed for the arena's micro-benchmarks.
    bool is_inline() const { return vtable_ != nullptr && vtable_->inline_storage; }

private:
    struct VTable {
        void (*invoke)(void*);
        void (*destroy)(void*);
        /// Move-construct into `dst` from `src`, then destroy `src`.
        void (*relocate)(void* dst, void* src);
        bool inline_storage;
    };

    template <typename F>
    static constexpr bool fits_inline()
    {
        return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<F>;
    }

    template <typename F>
    static const VTable* inline_vtable()
    {
        static const VTable table = {
            [](void* p) { (*std::launder(reinterpret_cast<F*>(p)))(); },
            [](void* p) { std::launder(reinterpret_cast<F*>(p))->~F(); },
            [](void* dst, void* src) {
                F* from = std::launder(reinterpret_cast<F*>(src));
                ::new (dst) F(std::move(*from));
                from->~F();
            },
            true,
        };
        return &table;
    }

    template <typename F>
    static const VTable* heap_vtable()
    {
        static const VTable table = {
            [](void* p) { (**std::launder(reinterpret_cast<F**>(p)))(); },
            [](void* p) { delete *std::launder(reinterpret_cast<F**>(p)); },
            [](void* dst, void* src) {
                F** from = std::launder(reinterpret_cast<F**>(src));
                ::new (dst) F*(*from);
            },
            false,
        };
        return &table;
    }

    void move_from(EventFn& other) noexcept
    {
        vtable_ = other.vtable_;
        if (vtable_ != nullptr) {
            vtable_->relocate(buf_, other.buf_);
            other.vtable_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
    const VTable* vtable_ = nullptr;
};

}  // namespace ezflow::sim

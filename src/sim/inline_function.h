/**
 * @file
 * InlineFunction: a move-only, fixed-capacity std::function
 * replacement for the timed path's continuations.
 *
 * The callable is stored in an in-object buffer of @p Capacity bytes;
 * there is no heap fallback. A capture that does not fit fails a
 * static_assert at the call site that builds it, so every
 * continuation's size is checked at compile time and the timed path
 * cannot start allocating because one lambda grew a capture.
 *
 * Semantics follow std::function where the simulator relies on them:
 * a default-constructed or nullptr-constructed object is empty and
 * tests false, and operator() is const (it may call a mutable
 * lambda). Unlike std::function it cannot be copied: continuations
 * are handed down a chain exactly once, so a copy would be a bug.
 * Moves are noexcept; a capture whose own move throws (e.g. a const
 * std::string, which moves by copying) terminates if it runs out of
 * memory while being moved.
 */

#ifndef CMPSIM_SIM_INLINE_FUNCTION_H
#define CMPSIM_SIM_INLINE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/log.h"

namespace cmpsim {

template <typename Sig, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t kCapacity = Capacity;

    InlineFunction() noexcept {}
    InlineFunction(std::nullptr_t) noexcept {} // NOLINT: implicit by design

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f) // NOLINT: implicit like std::function
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&o) noexcept { takeFrom(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            takeFrom(o);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Replace the held callable with one built in place from @p f. */
    template <typename F>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    /** Destroy the held callable; the object becomes empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args) const
    {
        cmpsim_assert(ops_ != nullptr, "call of an empty InlineFunction");
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct into @p dst from @p src, destroying @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops kOps = {
        [](void *p, Args... args) -> R {
            return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "capture too large for this InlineFunction: raise "
                      "the Capacity of the callback type or capture less");
        static_assert(alignof(Fn) <= kAlign, "over-aligned capture");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kOps<Fn>;
    }

    void
    takeFrom(InlineFunction &o) noexcept
    {
        if (o.ops_ != nullptr) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    // Pointer alignment keeps sizeof == Capacity + 8, so nested
    // continuations (a Done captured inside a link Deliver captured
    // inside an event) stack up without padding.
    static constexpr std::size_t kAlign = alignof(void *);

    // Mutable: a const InlineFunction may still run a mutable lambda,
    // as a const std::function may.
    alignas(kAlign) mutable unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace cmpsim

#endif // CMPSIM_SIM_INLINE_FUNCTION_H

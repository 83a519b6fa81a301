/**
 * @file
 * Small-buffer-optimized move-only callable, the hot-path replacement
 * for std::function.
 *
 * Every simulated access schedules at least one event; with
 * std::function any capture beyond ~16 bytes heap-allocates, so the
 * simulator paid a malloc/free per event. InlineFunction stores
 * captures up to Capacity bytes (default 48) inline in the object and
 * only boxes larger callables on the heap. Hot-path code is expected to
 * keep captures inside the inline budget — see the "Hot-path
 * discipline" section of ROADMAP.md; the capture-size boundary is
 * locked in by tests via storesInline().
 */

#ifndef HAMS_SIM_INLINE_FUNCTION_HH_
#define HAMS_SIM_INLINE_FUNCTION_HH_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hams {

/** Default inline capture budget (bytes). */
inline constexpr std::size_t inlineFunctionCapacity = 48;

template <typename Signature, std::size_t Capacity = inlineFunctionCapacity>
class InlineFunction;

/**
 * Move-only type-erased callable with @p Capacity bytes of inline
 * capture storage. Callables that fit (and are nothrow-movable) are
 * stored in place; larger ones fall back to one heap allocation, so
 * cold paths keep working unchanged. Inline callables that are also
 * trivially copyable — nearly every event lambda, capturing pointers
 * and integers — move by memcpy and need no destructor, so moving or
 * dropping one makes no indirect call.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
    InlineFunction(F&& f)
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction&
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
    InlineFunction&
    operator=(F&& f)
    {
        reset();
        construct(std::forward<F>(f));
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    R
    operator()(Args... args) const
    {
        return ops->invoke(const_cast<void*>(
                               static_cast<const void*>(storage)),
                           std::forward<Args>(args)...);
    }

    /**
     * True if @p F is stored inline (no heap allocation). Exposed so
     * tests can pin the capture-size boundary.
     */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= Capacity && alignof(D) <= alignof(void*) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    /** True if @p F is stored inline and moves by memcpy. */
    template <typename F>
    static constexpr bool
    movesTrivially()
    {
        return storesInline<F>() &&
               std::is_trivially_copyable_v<std::decay_t<F>>;
    }

    static constexpr std::size_t capacity() { return Capacity; }

  private:
    struct Ops
    {
        R (*invoke)(void*, Args&&...);
        /** Move-construct into @p dst from @p src, then destroy src;
         *  null when the callable moves by memcpy. */
        void (*relocate)(void* dst, void* src) noexcept;
        /** Null when the callable needs no destructor. */
        void (*destroy)(void*) noexcept;
    };

    template <typename D>
    static const Ops*
    inlineOps()
    {
        static constexpr auto invoke = [](void* p, Args&&... args) -> R {
            return (*static_cast<D*>(p))(std::forward<Args>(args)...);
        };
        if constexpr (std::is_trivially_copyable_v<D>) {
            static const Ops ops = {invoke, nullptr, nullptr};
            return &ops;
        } else {
            static const Ops ops = {
                invoke,
                [](void* dst, void* src) noexcept {
                    ::new (dst) D(std::move(*static_cast<D*>(src)));
                    static_cast<D*>(src)->~D();
                },
                [](void* p) noexcept { static_cast<D*>(p)->~D(); },
            };
            return &ops;
        }
    }

    template <typename D>
    static const Ops*
    boxedOps()
    {
        static const Ops ops = {
            [](void* p, Args&&... args) -> R {
                return (**static_cast<D**>(p))(std::forward<Args>(args)...);
            },
            [](void* dst, void* src) noexcept {
                ::new (dst) (D*)(*static_cast<D**>(src));
            },
            [](void* p) noexcept { delete *static_cast<D**>(p); },
        };
        return &ops;
    }

    template <typename F>
    void
    construct(F&& f)
    {
        using D = std::decay_t<F>;
        if constexpr (storesInline<F>()) {
            ::new (static_cast<void*>(storage)) D(std::forward<F>(f));
            ops = inlineOps<D>();
        } else {
            ::new (static_cast<void*>(storage))
                (D*)(new D(std::forward<F>(f)));
            ops = boxedOps<D>();
        }
    }

    void
    moveFrom(InlineFunction& other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(storage, other.storage);
            else
                std::memcpy(storage, other.storage, Capacity);
            other.ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

    const Ops* ops = nullptr;
    alignas(void*) unsigned char storage[Capacity];
};

} // namespace hams

#endif // HAMS_SIM_INLINE_FUNCTION_HH_

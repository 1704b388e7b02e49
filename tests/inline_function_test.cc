#include "src/sim/inline_function.h"

#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

namespace cmpsim {
namespace {

using Fn = InlineFunction<int(int), 32>;

static_assert(!std::is_copy_constructible_v<Fn>);
static_assert(!std::is_copy_assignable_v<Fn>);
static_assert(std::is_nothrow_move_constructible_v<Fn>);
static_assert(std::is_nothrow_move_assignable_v<Fn>);
static_assert(sizeof(Fn) == 32 + sizeof(void *));

/** A capture that counts destructions of its live (not moved-from)
 *  instances. */
struct Tracker
{
    int *destroyed;
    bool live = true;

    explicit Tracker(int *d) : destroyed(d) {}
    Tracker(Tracker &&o) noexcept : destroyed(o.destroyed), live(o.live)
    {
        o.live = false;
    }
    Tracker(const Tracker &) = delete;
    Tracker &operator=(const Tracker &) = delete;
    Tracker &operator=(Tracker &&) = delete;
    ~Tracker()
    {
        if (live)
            ++*destroyed;
    }
};

TEST(InlineFunctionTest, CallsTheCapturedCallable)
{
    int base = 40;
    const Fn f = [base](int x) { return base + x; };
    EXPECT_EQ(f(2), 42);
}

TEST(InlineFunctionTest, MovesCarryTheCallable)
{
    Fn a = [](int x) { return x * 3; };
    Fn b = std::move(a);
    EXPECT_FALSE(a); // NOLINT: moved-from state is specified as empty
    ASSERT_TRUE(b);
    EXPECT_EQ(b(5), 15);

    Fn c;
    c = std::move(b);
    EXPECT_FALSE(b); // NOLINT
    EXPECT_EQ(c(7), 21);
}

TEST(InlineFunctionTest, DestructorRunsExactlyOnceAcrossMoveResetAndScope)
{
    int destroyed = 0;
    {
        Fn f = [t = Tracker(&destroyed)](int x) { return x; };
        Fn g = std::move(f);
        Fn h;
        h = std::move(g);
        EXPECT_EQ(destroyed, 0);
        h.reset();
        EXPECT_EQ(destroyed, 1);
        EXPECT_FALSE(h);
    }
    EXPECT_EQ(destroyed, 1);

    // Scope exit destroys a held capture once.
    {
        const Fn f = [t = Tracker(&destroyed)](int x) { return x; };
    }
    EXPECT_EQ(destroyed, 2);

    // Assigning over a held capture destroys the old one once; so does
    // assigning nullptr.
    {
        Fn f = [t = Tracker(&destroyed)](int x) { return x; };
        f = [t = Tracker(&destroyed)](int x) { return -x; };
        EXPECT_EQ(destroyed, 3);
        EXPECT_EQ(f(4), -4);
        f = nullptr;
        EXPECT_EQ(destroyed, 4);
    }
    EXPECT_EQ(destroyed, 4);
}

TEST(InlineFunctionTest, HoldsNonTriviallyCopyableCaptures)
{
    std::vector<int> values(100);
    std::iota(values.begin(), values.end(), 1);
    Fn f = [v = std::move(values)](int scale) {
        return scale * std::accumulate(v.begin(), v.end(), 0);
    };
    Fn g = std::move(f);
    EXPECT_EQ(g(2), 2 * 5050);
}

TEST(InlineFunctionTest, MutableCallablesKeepTheirState)
{
    Fn counter = [n = 0](int step) mutable { return n += step; };
    EXPECT_EQ(counter(1), 1);
    EXPECT_EQ(counter(2), 3);
    Fn moved = std::move(counter);
    EXPECT_EQ(moved(3), 6);
}

TEST(InlineFunctionTest, NullStateBehavesLikeEmptyStdFunction)
{
    Fn a;
    EXPECT_FALSE(a);
    Fn b = nullptr;
    EXPECT_FALSE(b);
    b = [](int x) { return x; };
    EXPECT_TRUE(b);
    b = nullptr;
    EXPECT_FALSE(b);
    a.reset(); // resetting an empty function is a no-op
    EXPECT_FALSE(a);
    Fn c = std::move(a); // moving an empty function stays empty
    EXPECT_FALSE(c);
}

TEST(InlineFunctionDeathTest, CallingAnEmptyFunctionPanics)
{
    const Fn empty;
    EXPECT_DEATH(empty(1), "empty InlineFunction");
}

} // namespace
} // namespace cmpsim

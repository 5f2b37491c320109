#include "sim/small_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>

namespace pas::sim {
namespace {

TEST(SmallFn, DefaultIsEmpty) {
  SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, InvokesSmallCapture) {
  int hits = 0;
  SmallFn fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, SmallCapturesAreInline) {
  int x = 0;
  SmallFn fn = [&x] { ++x; };
  EXPECT_TRUE(fn.is_inline());
}

TEST(SmallFn, CaptureAtCapacityIsInline) {
  std::array<char, SmallFn::kInlineBytes> blob{};
  blob[0] = 42;
  SmallFn fn = [blob] { (void)blob[0]; };
  EXPECT_TRUE(fn.is_inline());
}

TEST(SmallFn, OversizedCaptureFallsBackToHeap) {
  std::array<char, SmallFn::kInlineBytes + 1> blob{};
  blob[0] = 7;
  int seen = 0;
  SmallFn fn = [blob, &seen] { seen = blob[0]; };
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 7);
}

TEST(SmallFn, StoresInlineTraitMatchesPlacement) {
  using Fits = std::array<char, SmallFn::kInlineBytes>;
  using Spills = std::array<char, SmallFn::kInlineBytes + 1>;
  static_assert(SmallFn::stores_inline<Fits>);
  static_assert(!SmallFn::stores_inline<Spills>);
  const auto fits = [blob = Fits{}] { (void)blob[0]; };
  const auto spills = [blob = Spills{}] { (void)blob[0]; };
  static_assert(SmallFn::stores_inline<decltype(fits)>);
  static_assert(!SmallFn::stores_inline<decltype(spills)>);
  EXPECT_TRUE(SmallFn(fits).is_inline());
  EXPECT_FALSE(SmallFn(spills).is_inline());
}

TEST(SmallFn, ThrowingMoveFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  SmallFn fn = ThrowingMove{};
  EXPECT_FALSE(fn.is_inline());
  fn();
}

TEST(SmallFn, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  SmallFn a = [&hits] { ++hits; };
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, MoveAssignReplacesTarget) {
  int first = 0, second = 0;
  SmallFn fn = [&first] { ++first; };
  fn = SmallFn{[&second] { ++second; }};
  fn();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(SmallFn, DestroysInlineTargetExactlyOnce) {
  // A non-trivially-destructible capture exercises the typed destroy path.
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    SmallFn fn = [token] { (void)*token; };
    EXPECT_TRUE(fn.is_inline());
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFn, DestroysHeapTargetExactlyOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    std::array<char, SmallFn::kInlineBytes> pad{};
    SmallFn fn = [token, pad] { (void)*token, (void)pad[0]; };
    EXPECT_FALSE(fn.is_inline());
    token.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFn, MovedFromNonTrivialTargetStillDestroyedOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    SmallFn a = [token] { (void)*token; };
    token.reset();
    SmallFn b = std::move(a);
    b();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFn, ResetDropsTarget) {
  int hits = 0;
  SmallFn fn = [&hits] { ++hits; };
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, WrapsStdFunction) {
  int hits = 0;
  std::function<void()> f = [&hits] { ++hits; };
  SmallFn fn = f;
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, ObjectStaysTwoCacheLines) {
  EXPECT_LE(sizeof(SmallFn), 128U);
}

}  // namespace
}  // namespace pas::sim

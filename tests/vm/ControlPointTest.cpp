//===-- tests/vm/ControlPointTest.cpp - Where the loop polls --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode loop checks deadlines, aborts, the bytecode budget and the
/// safepoint flag only at control points: slice entry, taken backward
/// jumps, and after sends, returns and BlockCopy. These tests pin that
/// down on loops the compiler inlines into jumps, which never send: each
/// must still be reachable by every check. They also pin the inline
/// SmallInteger fast path to the answers of the full special-send table
/// at the edges of the SmallInteger range.
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <thread>

#include "TestVm.h"
#include "obs/Telemetry.h"

using namespace mst;

namespace {

/// Send-free loops: `[true] whileTrue` jumps back without any arithmetic;
/// the to:do: loop runs the inline `+` and `<=` on every iteration. The
/// to:do: bound keeps the sum a SmallInteger and the loop running far
/// longer than any test waits. Both run as the body of spinSource().
const char *const SpinLoops[] = {
    "[true] whileTrue",
    "1 to: 1000000000 do: [:i | x := x + i]",
};

std::string spinSource(const char *Loop) {
  return std::string("| x | x := 0. ") + Loop + ". ^x";
}

class SpinLoopTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SpinLoopTest, DeadlineExpires) {
  TestVm T;
  uint64_t Deadline = Telemetry::nowNs() + 100'000'000ull;
  auto R = T.vm().evalWithDeadline(spinSource(GetParam()), Deadline);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Value.find("RequestTimeout"), std::string::npos) << R.Value;
  auto After = T.vm().evaluate("3 + 4");
  EXPECT_TRUE(After.Ok) << After.Value;
  EXPECT_EQ(After.Value, "7");
}

TEST_P(SpinLoopTest, RequestAbortLands) {
  TestVm T;
  std::thread Watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    T.vm().requestAbort();
  });
  auto R = T.vm().evaluate(spinSource(GetParam()));
  Watchdog.join();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Value.find("aborted"), std::string::npos) << R.Value;
  auto After = T.vm().evaluate("2 + 2");
  EXPECT_TRUE(After.Ok) << After.Value;
  EXPECT_EQ(After.Value, "4");
}

TEST_P(SpinLoopTest, SamePriorityProcessRunsAfterTheBudget) {
  // One worker, and processor-time preemption pushed out of reach: only
  // the bytecode budget can take the worker away from the spinner.
  VmConfig C = VmConfig::multiprocessor(1);
  C.TimesliceMicros = 600'000'000;
  TestVm T(C);
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();
  ASSERT_FALSE(
      T.vm().forkDoIt(spinSource(GetParam()), 5, "spinner").isNull());
  ASSERT_FALSE(T.vm()
                   .forkDoIt("nil hostSignal: " + std::to_string(Sig), 5,
                             "signaller")
                   .isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));
  T.vm().shutdown();
}

INSTANTIATE_TEST_SUITE_P(Loops, SpinLoopTest, ::testing::ValuesIn(SpinLoops),
                         [](const auto &Info) {
                           return Info.index == 0 ? std::string("WhileTrue")
                                                  : std::string("ToDo");
                         });

/// SmallIntMax and SmallIntMin as Smalltalk expressions (the minimum has
/// no positive literal counterpart).
const std::string Max = "4611686018427387903";
const std::string Min = "(0 - 4611686018427387903 - 1)";

TEST(SmallIntegerEdgeTest, InlineAddAndSubtractStayExact) {
  TestVm T;
  EXPECT_EQ(T.evalInt("^" + Max + " - 1 + 1"), SmallIntMax);
  EXPECT_EQ(T.evalInt("^" + Min + " + 1 - 1"), SmallIntMin);
  EXPECT_EQ(T.evalInt("^" + Max + " + " + Min), -1);
  EXPECT_EQ(T.evalInt("^" + Min + " - " + Min), 0);
  EXPECT_EQ(T.evalInt("^" + Max + " - " + Max), 0);
  EXPECT_EQ(T.evalInt("^0 - " + Max), -SmallIntMax);
}

TEST(SmallIntegerEdgeTest, InlineComparisonsAtTheEdges) {
  TestVm T;
  EXPECT_TRUE(T.evalBool("^" + Max + " > " + Min));
  EXPECT_TRUE(T.evalBool("^" + Min + " < " + Max));
  EXPECT_TRUE(T.evalBool("^" + Max + " >= " + Max));
  EXPECT_TRUE(T.evalBool("^" + Min + " <= " + Min));
  EXPECT_TRUE(T.evalBool("^" + Max + " = " + Max));
  EXPECT_FALSE(T.evalBool("^" + Max + " = " + Min));
}

TEST(SmallIntegerEdgeTest, OverflowFallsBackToTheRealSend) {
  // Past either edge the inline path misses and Integer>>+ / Integer>>-
  // report the overflow, exactly as the full special-send table does.
  TestVm T;
  for (const std::string &Src :
       {Max + " + 1", "1 + " + Max, Min + " - 1", "0 - " + Min,
        Max + " - " + Min, Min + " + " + Min}) {
    auto R = T.vm().evaluate(Src);
    EXPECT_FALSE(R.Ok) << Src << " answered " << R.Value;
    EXPECT_NE(R.Value.find("SmallInteger overflow"), std::string::npos)
        << Src << ": " << R.Value;
    EXPECT_FALSE(R.TimedOut);
  }
}

} // namespace

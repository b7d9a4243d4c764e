//===-- tests/vm/VirtualMachineTest.cpp - VM facade ------------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <thread>

#include "TestVm.h"
#include "obs/Telemetry.h"

using namespace mst;

namespace {

TEST(VirtualMachineTest, ConfigPresets) {
  VmConfig BS = VmConfig::baselineBS();
  EXPECT_EQ(BS.Interpreters, 1u);
  EXPECT_FALSE(BS.MpSupport);
  EXPECT_FALSE(BS.Memory.MpSupport);

  VmConfig MS = VmConfig::multiprocessor(4);
  EXPECT_EQ(MS.Interpreters, 4u);
  EXPECT_TRUE(MS.MpSupport);
  EXPECT_EQ(MS.CacheKind, MethodCacheKind::Replicated);
  EXPECT_EQ(MS.FreeCtxKind, FreeContextKind::Replicated);
}

TEST(VirtualMachineTest, CompileErrorsAreLoggedNotFatal) {
  TestVm T;
  EXPECT_TRUE(T.vm().compileAndRun("^((").isNull());
  EXPECT_TRUE(T.vm().forkDoIt("^((", 5, "broken").isNull());
  auto Errors = T.vm().errors();
  ASSERT_GE(Errors.size(), 2u);
  EXPECT_NE(Errors[0].find("compile error"), std::string::npos);
  EXPECT_EQ(T.evalInt("^1"), 1);
}

TEST(VirtualMachineTest, HostSignalTimeoutAndCounting) {
  TestVm T;
  unsigned Sig = T.vm().createHostSignal();
  EXPECT_FALSE(T.vm().waitHostSignal(Sig, 1, 0.05)) << "nothing signals";
  T.vm().hostSignal(Sig);
  T.vm().hostSignal(Sig);
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 2, 1.0));
  EXPECT_FALSE(T.vm().waitHostSignal(Sig, 3, 0.05));
  // Unknown ids are ignored, not fatal.
  T.vm().hostSignal(12345);
}

TEST(VirtualMachineTest, MillisecondClockAdvances) {
  TestVm T;
  intptr_t A = T.evalInt("^nil millisecondClock");
  intptr_t B = T.evalInt("| n | n := 0. 1 to: 200000 do: [:i | n := n + "
                         "1]. ^nil millisecondClock");
  EXPECT_GE(B, A);
  EXPECT_GE(T.vm().millisecondClock(), B);
}

TEST(VirtualMachineTest, BytecodeCountingGrows) {
  TestVm T;
  uint64_t A = T.vm().totalBytecodes();
  T.evalInt("| n | n := 0. 1 to: 10000 do: [:i | n := n + 1]. ^n");
  EXPECT_GT(T.vm().totalBytecodes(), A + 10000);
}

TEST(VirtualMachineTest, ShutdownIsIdempotent) {
  VirtualMachine VM(VmConfig::multiprocessor(2));
  bootstrapImage(VM);
  VM.startInterpreters();
  VM.shutdown();
  VM.shutdown(); // second call must be a no-op
  EXPECT_TRUE(VM.stopping());
}

TEST(VirtualMachineTest, ShutdownWithRunningProcesses) {
  // Infinite Processes must not prevent shutdown (the stop flag is
  // checked inside the bytecode loop).
  VirtualMachine VM(VmConfig::multiprocessor(2));
  bootstrapImage(VM);
  VM.startInterpreters();
  VM.forkDoIt("[true] whileTrue", 5, "immortal-1");
  VM.forkDoIt("[true] whileTrue: [Point x: 1 y: 2]", 5, "immortal-2");
  VM.shutdown(); // must return promptly (joinAll inside)
  SUCCEED();
}

TEST(VirtualMachineTest, StatisticsReportOnFreshVm) {
  TestVm T;
  std::string R = T.vm().statisticsReport();
  EXPECT_NE(R.find("instrumentation report"), std::string::npos);
  EXPECT_NE(R.find("method cache"), std::string::npos);
}

TEST(VirtualMachineTest, EvalWithDeadlineAbortsRunaway) {
  TestVm T;
  uint64_t Deadline = Telemetry::nowNs() + 200ull * 1000 * 1000;
  auto R = T.vm().evalWithDeadline("[true] whileTrue.", Deadline);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Value.find("RequestTimeout"), std::string::npos) << R.Value;
  // The abort fired at a bytecode boundary: the heap and scheduler are
  // intact and the VM keeps answering.
  auto After = T.vm().evaluate("3 + 4");
  EXPECT_TRUE(After.Ok) << After.Value;
  EXPECT_EQ(After.Value, "7");
  EXPECT_FALSE(After.TimedOut);
}

TEST(VirtualMachineTest, EvalWithDeadlineLeavesQuickEvalsAlone) {
  TestVm T;
  uint64_t Deadline = Telemetry::nowNs() + 30ull * 1000 * 1000 * 1000;
  auto R = T.vm().evalWithDeadline("6 * 7", Deadline);
  EXPECT_TRUE(R.Ok) << R.Value;
  EXPECT_EQ(R.Value, "42");
  EXPECT_FALSE(R.TimedOut);
  // The deadline does not leak into the next (undeadlined) evaluation.
  auto Next = T.vm().evaluate("1 + 1");
  EXPECT_TRUE(Next.Ok);
  EXPECT_FALSE(Next.TimedOut);
}

TEST(VirtualMachineTest, RequestAbortFromAnotherThreadUnwinds) {
  TestVm T;
  std::thread Watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    T.vm().requestAbort();
  });
  auto R = T.vm().evaluate("[true] whileTrue");
  Watchdog.join();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_NE(R.Value.find("RequestTimeout"), std::string::npos) << R.Value;
  auto After = T.vm().evaluate("2 + 2");
  EXPECT_TRUE(After.Ok) << After.Value;
  EXPECT_EQ(After.Value, "4");
}

TEST(VirtualMachineTest, ClearAbortDropsAPendingAbort) {
  TestVm T;
  // An abort requested between requests must not kill the next one.
  T.vm().requestAbort();
  T.vm().clearAbort();
  auto R = T.vm().evaluate("5 * 5");
  EXPECT_TRUE(R.Ok) << R.Value;
  EXPECT_EQ(R.Value, "25");
  EXPECT_FALSE(R.TimedOut);
}

TEST(VirtualMachineTest, DriverRootsAreGcSafe) {
  // A doIt result referencing fresh objects must survive a forced
  // scavenge triggered from within the same doIt.
  TestVm T;
  EXPECT_EQ(T.evalString("| s | s := 'keep', 'me'. nil forceScavenge. "
                         "^s"),
            "keepme");
}

TEST(VirtualMachineTest, DoItMethodSurvivesFullGcInItsBottomContext) {
  // Each unique doIt compiles a fresh method into old space that only the
  // evaluation itself references. With a tiny eden and a trigger re-armed
  // at the live size, nearly every scavenge runs a full collection, so one
  // soon lands on the allocation of the doIt's bottom context — which must
  // keep the method alive.
  VmConfig C = VmConfig::multiprocessor(1);
  C.Memory.EdenBytes = 64 * 1024;
  C.Memory.FullGcThresholdBytes = 64 * 1024;
  C.Memory.FullGcGrowthFactor = 1.0;
  TestVm T(C);
  uint64_t Before = T.vm().memory().fullGcStatsSnapshot().Collections;
  for (int I = 0; I < 3000; ++I) {
    auto R = T.vm().evaluate(std::to_string(I) + " + 1");
    ASSERT_TRUE(R.Ok) << "doIt " << I << ": " << R.Value;
    ASSERT_EQ(R.Value, std::to_string(I + 1));
  }
  EXPECT_GE(T.vm().memory().fullGcStatsSnapshot().Collections, Before + 1);
}

} // namespace

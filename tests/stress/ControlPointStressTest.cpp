//===-- tests/stress/ControlPointStressTest.cpp - Pauses meet workers -----===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stop-the-world pauses against running worker interpreters. Workers poll
/// the safepoint flag only at control points (taken backward jumps, after
/// sends, returns and BlockCopy), so a pause must still reach a worker
/// spinning in a loop that never sends. Method installation is such a
/// pause too: replicated method-cache tables are read by their owners
/// without a lock, so flushing a selector from every table stops the world
/// first. Under TSan the compile storms below catch any flush that writes
/// a busy worker's table.
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <thread>

#include "StressSupport.h"
#include "TestVm.h"

using namespace mst;

namespace {

/// Fails the test rather than hanging it when a rendezvous stalls.
constexpr uint64_t WatchdogMs = 20'000;

class SpinningWorkerTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SpinningWorkerTest, StopTheWorldReachesSendFreeLoops) {
  const int Pauses = stressScale(200, 40);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    TestVm T(VmConfig::multiprocessor(2));
    Safepoint &Sp = T.vm().memory().safepoint();
    Sp.setWatchdogMillis(WatchdogMs);
    T.vm().startInterpreters();
    unsigned Sig = T.vm().createHostSignal();
    for (int W = 0; W < 2; ++W)
      ASSERT_FALSE(T.vm()
                       .forkDoIt("| x | x := 0. nil hostSignal: " +
                                     std::to_string(Sig) + ". " + GetParam(),
                                 5, "spinner" + std::to_string(W))
                       .isNull());
    ASSERT_TRUE(T.vm().waitHostSignal(Sig, 2, 30.0));
    uint64_t Before = Sp.pauseCount();
    for (int I = 0; I < Pauses; ++I) {
      ASSERT_TRUE(Sp.requestStopTheWorld());
      Sp.resume();
    }
    EXPECT_EQ(Sp.pauseCount(), Before + Pauses);
    EXPECT_EQ(Sp.watchdogFirings(), 0u);
    T.vm().shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loops, SpinningWorkerTest,
    ::testing::Values("[true] whileTrue",
                      "1 to: 1000000000 do: [:i | x := x + i]"),
    [](const auto &Info) {
      return Info.index == 0 ? std::string("WhileTrue")
                             : std::string("ToDo");
    });

/// Waits until the global \p Name holds \p Want, evaluating on the driver.
bool waitForGlobal(TestVm &T, const std::string &Name, intptr_t Want) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < Deadline) {
    auto R = T.vm().evaluate("^" + Name);
    if (R.Ok && R.Value == std::to_string(Want))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(MethodInstallStressTest, DriverCompilesWhileWorkersSend) {
  const int Rounds = stressScale(60, 15);
  const int Senders = 3;
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    TestVm T(VmConfig::multiprocessor(3));
    T.vm().memory().safepoint().setWatchdogMillis(WatchdogMs);
    T.eval("Compiler compile: 'probe ^0' into: SmallInteger. ^nil");
    for (int S = 0; S < Senders; ++S)
      T.eval("Smalltalk at: #Seen" + std::to_string(S) + " put: -1. ^nil");
    T.vm().startInterpreters();
    for (int S = 0; S < Senders; ++S)
      ASSERT_FALSE(T.vm()
                       .forkDoIt("[true] whileTrue: [Seen" +
                                     std::to_string(S) + " := 3 probe]",
                                 5, "sender" + std::to_string(S))
                       .isNull());
    for (int K = 1; K <= Rounds; ++K) {
      T.eval("Compiler compile: 'probe ^" + std::to_string(K) +
             "' into: SmallInteger. ^nil");
      // Every sender must drop its cached method for the old definition.
      for (int S = 0; S < Senders; ++S)
        ASSERT_TRUE(waitForGlobal(T, "Seen" + std::to_string(S), K))
            << "sender " << S << " still runs a stale probe after round "
            << K;
    }
    T.vm().shutdown();
  }
}

TEST(MethodInstallStressTest, WorkerCompilesWhileOthersSend) {
  const int Rounds = stressScale(200, 40);
  for (uint64_t Seed : chaosSeeds()) {
    SCOPED_TRACE(seedTag(Seed));
    ScopedChaos Chaos(Seed);
    TestVm T(VmConfig::multiprocessor(3));
    T.vm().memory().safepoint().setWatchdogMillis(WatchdogMs);
    T.eval("Compiler compile: 'probe ^0' into: SmallInteger. ^nil");
    T.eval("Smalltalk at: #Seen put: -1. ^nil");
    T.vm().startInterpreters();
    for (int S = 0; S < 2; ++S)
      ASSERT_FALSE(T.vm()
                       .forkDoIt("[true] whileTrue: [Seen := 3 probe]", 5,
                                 "sender" + std::to_string(S))
                       .isNull());
    // The compiler runs as a Process, so the pause is requested from
    // inside a primitive on a worker.
    unsigned Sig = T.vm().createHostSignal();
    ASSERT_FALSE(
        T.vm()
            .forkDoIt("1 to: " + std::to_string(Rounds) +
                          " do: [:k | Compiler compile: 'probe ^', "
                          "k printString into: SmallInteger]. "
                          "nil hostSignal: " +
                          std::to_string(Sig),
                      5, "compiler")
            .isNull());
    ASSERT_TRUE(T.vm().waitHostSignal(Sig, 1, 60.0));
    EXPECT_TRUE(waitForGlobal(T, "Seen", Rounds));
    T.vm().shutdown();
  }
}

} // namespace

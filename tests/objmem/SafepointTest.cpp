//===-- tests/objmem/SafepointTest.cpp - Stop-the-world rendezvous --------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "objmem/Safepoint.h"
#include "vkernel/Delay.h"

using namespace mst;

namespace {

TEST(SafepointTest, SoloCoordinatorStopsAndResumes) {
  Safepoint Sp;
  Sp.registerMutator();
  EXPECT_FALSE(Sp.pollNeeded());
  ASSERT_TRUE(Sp.requestStopTheWorld());
  Sp.resume();
  EXPECT_EQ(Sp.pauseCount(), 1u);
  Sp.unregisterMutator();
}

TEST(SafepointTest, MutatorsParkAtPolls) {
  Safepoint Sp;
  Sp.registerMutator(); // coordinator (this thread)

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Iterations{0};
  std::thread Mutator([&] {
    Sp.registerMutator();
    while (!Stop.load()) {
      if (Sp.pollNeeded())
        Sp.pollSlow();
      Iterations.fetch_add(1);
    }
    Sp.unregisterMutator();
  });

  // Let it spin, then stop the world: the mutator must stall.
  while (Iterations.load() < 1000)
    vkDelay(100);
  ASSERT_TRUE(Sp.requestStopTheWorld());
  // requestStopTheWorld returning true means every mutator is parked, so
  // the iteration counter must be frozen — a counter identity, not a
  // wall-clock bound, so arbitrary (sanitizer) slowdowns can't flake it.
  uint64_t At = Iterations.load();
  for (int I = 0; I < 1000; ++I)
    std::this_thread::yield();
  EXPECT_EQ(Iterations.load(), At) << "mutator ran during the pause";
  Sp.resume();
  while (Iterations.load() < At + 1000)
    vkDelay(100);
  Stop.store(true);
  Mutator.join();
  Sp.unregisterMutator();
}

TEST(SafepointTest, BlockedRegionsCountAsSafe) {
  Safepoint Sp;
  Sp.registerMutator();

  std::atomic<bool> Entered{false}, Release{false};
  std::thread Sleeper([&] {
    Sp.registerMutator();
    {
      BlockedRegion Region(Sp);
      Entered.store(true);
      while (!Release.load())
        vkDelay(100);
      // Leaving the region must wait out any pause in progress.
    }
    Sp.unregisterMutator();
  });
  while (!Entered.load())
    vkDelay(100);
  // The sleeper never polls, but the stop must succeed anyway.
  ASSERT_TRUE(Sp.requestStopTheWorld());
  Sp.resume();
  Release.store(true);
  Sleeper.join();
  Sp.unregisterMutator();
}

TEST(SafepointTest, ReentrantBlockedRegionsStaySafe) {
  // A blocked region nested inside a blocked region (e.g. a wait inside a
  // wait): both levels count the thread safe, and leaving unwinds in
  // order without corrupting the safe-mutator count.
  Safepoint Sp;
  Sp.registerMutator();

  std::atomic<bool> Inner{false}, Release{false};
  std::thread Sleeper([&] {
    Sp.registerMutator();
    {
      BlockedRegion Outer(Sp);
      {
        BlockedRegion Nested(Sp);
        Inner.store(true);
        while (!Release.load())
          vkDelay(100);
      }
    }
    Sp.unregisterMutator();
  });
  while (!Inner.load())
    vkDelay(100);
  // Two pauses back to back while the sleeper sits in the nested region.
  ASSERT_TRUE(Sp.requestStopTheWorld());
  Sp.resume();
  ASSERT_TRUE(Sp.requestStopTheWorld());
  Sp.resume();
  Release.store(true);
  Sleeper.join();
  EXPECT_EQ(Sp.pauseCount(), 2u);
  EXPECT_EQ(Sp.mutatorCount(), 1u);
  // The count must be balanced: a third pause still works.
  ASSERT_TRUE(Sp.requestStopTheWorld());
  Sp.resume();
  Sp.unregisterMutator();
}

TEST(SafepointTest, RacingCoordinatorsExactlyOneWinsEachRound) {
  // Two threads released simultaneously into requestStopTheWorld: one
  // becomes coordinator, the loser parks as safe and is told to retry.
  Safepoint Sp;
  constexpr int Rounds = 20;
  std::atomic<int> Wins{0}, Losses{0};
  std::atomic<int> Ready{0};
  std::atomic<int> Round{-1};
  auto Racer = [&](int Id) {
    Sp.registerMutator();
    for (int R = 0; R < Rounds; ++R) {
      Ready.fetch_add(1);
      while (Round.load() < R) {
        if (Sp.pollNeeded())
          Sp.pollSlow();
        std::this_thread::yield();
      }
      if (Sp.requestStopTheWorld()) {
        Wins.fetch_add(1);
        Sp.resume();
      } else {
        Losses.fetch_add(1);
      }
    }
    (void)Id;
    Sp.unregisterMutator();
  };
  std::thread A(Racer, 0), B(Racer, 1);
  for (int R = 0; R < Rounds; ++R) {
    while (Ready.load() < 2 * (R + 1))
      std::this_thread::yield();
    Round.store(R); // both racers enter the request together
  }
  A.join();
  B.join();
  EXPECT_EQ(Wins.load() + Losses.load(), 2 * Rounds);
  EXPECT_GT(Wins.load(), 0);
  EXPECT_EQ(Sp.pauseCount(), static_cast<uint64_t>(Wins.load()));
  EXPECT_EQ(Sp.mutatorCount(), 0u);
  EXPECT_FALSE(Sp.pollNeeded());
}

TEST(SafepointTest, MutatorRegisteringMidRendezvousIsGathered) {
  // A thread registers while a pause is pending. The rendezvous must not
  // complete without it — and must complete once it reaches its first
  // poll (mutators always poll before touching the heap).
  Safepoint Sp;
  Sp.registerMutator(); // coordinator

  std::atomic<bool> SpinnerUp{false}, Stop{false};
  std::thread Spinner([&] {
    Sp.registerMutator();
    SpinnerUp.store(true);
    while (!Stop.load()) {
      if (Sp.pollNeeded())
        Sp.pollSlow();
    }
    Sp.unregisterMutator();
  });
  while (!SpinnerUp.load())
    vkDelay(100);

  std::atomic<bool> LateParked{false};
  std::thread Late([&] {
    // Wait for the global flag: the pause is pending by then. The whole
    // pause can also come and go while this thread is descheduled; then
    // it registers afterwards, and waiting for the flag would hang.
    while (!Sp.pollNeeded() && Sp.pauseCount() == 0)
      std::this_thread::yield();
    Sp.registerMutator();
    // First poll parks us until the pause completes.
    if (Sp.pollNeeded())
      Sp.pollSlow();
    LateParked.store(true);
    Sp.unregisterMutator();
  });

  ASSERT_TRUE(Sp.requestStopTheWorld());
  // World is stopped. The late mutator either registered before we won
  // (then it is parked in its first poll) or registers afterwards and
  // parks at that poll until resume. Either way resume() releases it.
  Sp.resume();
  Late.join();
  EXPECT_TRUE(LateParked.load());
  Stop.store(true);
  Spinner.join();
  EXPECT_EQ(Sp.pauseCount(), 1u);
  EXPECT_EQ(Sp.mutatorCount(), 1u);
  Sp.unregisterMutator();
}

TEST(SafepointTest, CompetingRequestersSerialize) {
  Safepoint Sp;
  constexpr unsigned N = 4;
  std::atomic<unsigned> Coordinated{0};
  std::atomic<unsigned> Deferred{0};
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < N; ++I) {
    Ts.emplace_back([&] {
      Sp.registerMutator();
      for (int R = 0; R < 50; ++R) {
        if (Sp.pollNeeded())
          Sp.pollSlow();
        if (Sp.requestStopTheWorld()) {
          Coordinated.fetch_add(1);
          Sp.resume();
        } else {
          Deferred.fetch_add(1); // someone else's pause ran
        }
      }
      Sp.unregisterMutator();
    });
  }
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Coordinated.load() + Deferred.load(), N * 50);
  EXPECT_GT(Coordinated.load(), 0u);
  EXPECT_EQ(Sp.pauseCount(), Coordinated.load());
}

} // namespace

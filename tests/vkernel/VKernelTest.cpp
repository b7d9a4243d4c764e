//===-- tests/vkernel/VKernelTest.cpp - Lightweight processes -------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include <atomic>

#include <gtest/gtest.h>

#include "vkernel/VKernel.h"

using namespace mst;

namespace {

TEST(VKernelTest, RunsProcesses) {
  VKernel K(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 4; ++I)
    // Appended, not "p" + std::string: GCC 12 raises a false -Wrestrict
    // on the inlined insert(0, ...) behind that operator+.
    K.createProcess(std::string("p").append(std::to_string(I)),
                    [&Ran] { ++Ran; });
  K.joinAll();
  EXPECT_EQ(Ran.load(), 4);
  EXPECT_EQ(K.numProcesses(), 4u);
}

TEST(VKernelTest, StaticRoundRobinAssignment) {
  // "V processes are statically assigned to processors" (paper §3.2):
  // creation order maps round-robin onto the virtual processors.
  VKernel K(3);
  std::vector<VProcess *> Ps;
  for (int I = 0; I < 7; ++I)
    Ps.push_back(K.createProcess("p", [] {}));
  K.joinAll();
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(Ps[I]->processor(), static_cast<unsigned>(I % 3));
  EXPECT_EQ(K.processesOnProcessor(0).size(), 3u);
  EXPECT_EQ(K.processesOnProcessor(1).size(), 2u);
  EXPECT_EQ(K.processesOnProcessor(2).size(), 2u);
}

TEST(VKernelTest, ProcessIdsAreDense) {
  VKernel K(5);
  VProcess *A = K.createProcess("a", [] {});
  VProcess *B = K.createProcess("b", [] {});
  K.joinAll();
  EXPECT_EQ(A->id(), 0u);
  EXPECT_EQ(B->id(), 1u);
  EXPECT_EQ(A->name(), "a");
}

TEST(VKernelTest, JoinAllIsIdempotent) {
  VKernel K(1);
  K.createProcess("p", [] {});
  K.joinAll();
  K.joinAll(); // must not crash or hang
}

} // namespace

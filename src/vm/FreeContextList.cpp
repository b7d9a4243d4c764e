//===-- vm/FreeContextList.cpp - Free stack-frame lists ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/FreeContextList.h"

#include "objmem/ObjectHeader.h"
#include "support/Assert.h"
#include "vkernel/Chaos.h"
#include "vm/ObjectModel.h"

using namespace mst;

FreeContextPool::FreeContextPool(FreeContextKind Kind,
                                 unsigned NumInterpreters,
                                 bool LocksEnabled)
    : Kind(Kind), SharedLock(LocksEnabled, "freectx") {
  unsigned N = Kind == FreeContextKind::Replicated ? NumInterpreters : 1;
  assert(N > 0 && "need at least one free list");
  for (unsigned I = 0; I < N; ++I)
    PerInterp.push_back(std::make_unique<Bins>());
}

Oop FreeContextPool::takeFrom(Bins &B, uint32_t Slots) {
  std::vector<Oop> &List = Slots <= SmallContextSlots ? B.Small : B.Large;
  if (List.empty())
    return Oop();
  Oop Ctx = List.back();
  List.pop_back();
  B.Reuses.addOwned();
  return Ctx;
}

void FreeContextPool::giveTo(Bins &B, Oop Ctx) {
  std::vector<Oop> &List =
      Ctx.object()->SlotCount <= SmallContextSlots ? B.Small : B.Large;
  List.push_back(Ctx);
  B.Returns.addOwned();
}

Oop FreeContextPool::take(unsigned InterpId, uint32_t Slots) {
  assert(Slots <= LargeContextSlots && "oversized context request");
  chaos::point("freectx.take");
  if (Kind == FreeContextKind::Replicated)
    return takeFrom(*PerInterp[InterpId], Slots);
  SpinLockGuard Guard(SharedLock);
  return takeFrom(*PerInterp[0], Slots);
}

void FreeContextPool::give(unsigned InterpId, Oop Ctx) {
  ObjectHeader *H = Ctx.object();
  assert(H->Format == ObjectFormat::Context && "recycling a non-context");
  assert(!H->isEscaped() && "recycling an escaped context");
  // Old (tenured) contexts stay out of the pool: reusing them would demand
  // remembered-set maintenance on every reuse for no benefit.
  if (H->isOld())
    return;
  chaos::point("freectx.give");
  if (Kind == FreeContextKind::Replicated) {
    giveTo(*PerInterp[InterpId], Ctx);
    return;
  }
  SpinLockGuard Guard(SharedLock);
  giveTo(*PerInterp[0], Ctx);
}

void FreeContextPool::flushAll() {
  // Runs with the world stopped (pre-scavenge hook, snapshot), so no
  // owner is using its bin.
  for (auto &B : PerInterp) {
    B->Small.clear();
    B->Large.clear();
  }
}

uint64_t FreeContextPool::reuses() const {
  uint64_t N = 0;
  for (const auto &B : PerInterp)
    N += B->Reuses.value();
  return N;
}

uint64_t FreeContextPool::returns() const {
  uint64_t N = 0;
  for (const auto &B : PerInterp)
    N += B->Returns.value();
  return N;
}

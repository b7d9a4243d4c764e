//===-- vm/MethodCache.cpp - Method lookup caches ---------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/MethodCache.h"

#include "objmem/Safepoint.h"
#include "support/Assert.h"
#include "vkernel/Delay.h"

using namespace mst;

void RwSpinLock::lockShared() {
  if (!Enabled)
    return;
  unsigned Spins = 0;
  for (;;) {
    int32_t S = State.load(std::memory_order_relaxed);
    if (S >= 0 &&
        State.compare_exchange_weak(S, S + 1, std::memory_order_acquire))
      return;
    if (++Spins >= 256) {
      Spins = 0;
      vkDelay(0);
    }
  }
}

void RwSpinLock::lockExclusive() {
  if (!Enabled)
    return;
  unsigned Spins = 0;
  for (;;) {
    int32_t Expected = 0;
    if (State.compare_exchange_weak(Expected, -1,
                                    std::memory_order_acquire))
      return;
    if (++Spins >= 256) {
      Spins = 0;
      vkDelay(0);
    }
  }
}

MethodCache::MethodCache(MethodCacheKind Kind, unsigned NumInterpreters,
                         bool LocksEnabled)
    : Kind(Kind), GlobalLock(LocksEnabled) {
  unsigned N = Kind == MethodCacheKind::Replicated ? NumInterpreters : 1;
  assert(N > 0 && "need at least one cache table");
  for (unsigned I = 0; I < N; ++I)
    Tables.push_back(std::make_unique<Replica>());
}

bool MethodCache::lookup(unsigned InterpId, Oop Cls, Oop Selector,
                         Oop &Method, Oop &DefiningClass) {
  if (Kind == MethodCacheKind::Replicated) {
    assert(InterpId < Tables.size() && "interpreter id out of range");
    Replica &R = *Tables[InterpId];
    if (const MethodCacheTable::Entry *E = R.Table.lookup(Cls, Selector)) {
      Method = E->Method;
      DefiningClass = E->DefiningClass;
      R.Stats.Hits.addOwned();
      return true;
    }
    R.Stats.Misses.addOwned();
    R.Stats.MissReplicated.addOwned();
    return false;
  }
  Replica &R = *Tables[0];
  GlobalLock.lockShared();
  if (const MethodCacheTable::Entry *E = R.Table.lookup(Cls, Selector)) {
    // Copy out under the read lock; the entry may be overwritten after
    // we release it.
    Method = E->Method;
    DefiningClass = E->DefiningClass;
    GlobalLock.unlockShared();
    R.Stats.Hits.add();
    return true;
  }
  GlobalLock.unlockShared();
  R.Stats.Misses.add();
  R.Stats.MissGlobal.add();
  return false;
}

void MethodCache::insert(unsigned InterpId, Oop Cls, Oop Selector,
                         Oop Method, Oop DefiningClass) {
  if (Kind == MethodCacheKind::Replicated) {
    Tables[InterpId]->Table.insert(Cls, Selector, Method, DefiningClass);
    return;
  }
  GlobalLock.lockExclusive();
  Tables[0]->Table.insert(Cls, Selector, Method, DefiningClass);
  GlobalLock.unlockExclusive();
}

void MethodCache::flushAll() {
  // Called with the world stopped (scavenge hook, snapshot); exclusive
  // access either way.
  GlobalLock.lockExclusive();
  for (auto &R : Tables)
    R->Table.clear();
  GlobalLock.unlockExclusive();
}

void MethodCache::flushSelector(Oop Selector) {
  if (Kind == MethodCacheKind::GlobalLocked) {
    GlobalLock.lockExclusive();
    Tables[0]->Table.removeSelector(Selector);
    GlobalLock.unlockExclusive();
    return;
  }
  // Retry until this thread coordinates a pause of its own, as
  // ObjectMemory::scavengeNow does: a pause another thread ran meanwhile
  // need not have flushed anything.
  if (FlushSafepoint)
    while (!FlushSafepoint->requestStopTheWorld()) {
    }
  for (auto &R : Tables)
    R->Table.removeSelector(Selector);
  if (FlushSafepoint)
    FlushSafepoint->resume();
}

uint64_t MethodCache::sum(Counter MethodCacheStats::*Field) const {
  uint64_t N = 0;
  for (const auto &R : Tables)
    N += (R->Stats.*Field).value();
  return N;
}

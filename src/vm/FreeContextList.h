//===-- vm/FreeContextList.h - Free stack-frame lists -----------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The free context list: "BS maintains a list of unused stack frames,
/// because it is more efficient to reuse one than to allocate and
/// initialize a new one" (paper §3.2). Profiling an early MS revealed that
/// serializing access to this list was a bottleneck; replicating it
/// per-interpreter cut the worst-case overhead from 160% to 65%.
///
/// Both policies are provided so bench_free_contexts can reproduce that
/// result. A replicated list is touched only by its own interpreter (and
/// by the flush, with the world stopped), so it takes no lock and its
/// counters are owner-written; the TSan lane checks that claim. Lists
/// hold oops of *dead, never-escaped* contexts; because a scavenge would
/// otherwise treat stale entries as garbage roots, every list is flushed
/// at the start of each scavenge (pre-scavenge hook).
///
//===----------------------------------------------------------------------===//

#ifndef MST_VM_FREECONTEXTLIST_H
#define MST_VM_FREECONTEXTLIST_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "objmem/Oop.h"
#include "obs/Telemetry.h"
#include "vkernel/SpinLock.h"

namespace mst {

/// Which free-context organization the VM uses.
enum class FreeContextKind : uint8_t {
  /// One list shared by all interpreters behind a spin lock — the early-MS
  /// bottleneck.
  Shared,
  /// One list per interpreter — the published fix.
  Replicated,
};

/// The pool of reusable context objects.
class FreeContextPool {
public:
  FreeContextPool(FreeContextKind Kind, unsigned NumInterpreters,
                  bool LocksEnabled);

  FreeContextKind kind() const { return Kind; }

  /// \returns a recycled context with at least \p Slots body slots, or the
  /// null oop when the matching bin is empty. \p InterpId selects the
  /// replica under the Replicated policy.
  Oop take(unsigned InterpId, uint32_t Slots);

  /// Returns a dead context to the pool. The caller guarantees it is
  /// unreferenced (never escaped, just returned from).
  void give(unsigned InterpId, Oop Ctx);

  /// Empties every list. Runs as a pre-scavenge hook: recycled contexts
  /// are dead objects and must not survive into the next GC cycle.
  void flushAll();

  uint64_t reuses() const;
  uint64_t returns() const;

private:
  /// One pair of size-binned lists and their counters. A Replicated bin
  /// has one writer, its interpreter; the Shared bin is written only
  /// under SharedLock. Either way the counters are owner-written.
  struct Bins {
    std::vector<Oop> Small;
    std::vector<Oop> Large;
    Counter Reuses{"freectx.reuses"};
    Counter Returns{"freectx.returns"};
  };

  static Oop takeFrom(Bins &B, uint32_t Slots);
  static void giveTo(Bins &B, Oop Ctx);

  FreeContextKind Kind;
  /// Serializes the Shared bin. Replicated bins never take it, so its
  /// lock.freectx.* counters read 0 under that policy.
  SpinLock SharedLock;
  std::vector<std::unique_ptr<Bins>> PerInterp; // 1 or N
};

} // namespace mst

#endif // MST_VM_FREECONTEXTLIST_H

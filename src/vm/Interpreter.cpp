//===-- vm/Interpreter.cpp - The replicated interpreter ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>

#include "obs/Profiler.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "support/Assert.h"
#include "support/Timer.h"
#include "vkernel/Chaos.h"
#include "vm/Primitives.h"
#include "vm/VirtualMachine.h"

using namespace mst;

Interpreter::Interpreter(VirtualMachine &VM, unsigned Id)
    : VM(VM), Om(VM.model()), OM(VM.memory()), Id(Id) {}

/// --- frame cache ----------------------------------------------------------

void Interpreter::reloadFrame() {
  Oop C = Roots.ActiveContext;
  assert(C.isPointer() && "no active context");
  CtxH = C.object();
  IsBlock = CtxH->classOop() == Om.known().ClassBlockContext;
  HomeH = IsBlock ? CtxH->slots()[BlkHome].object() : CtxH;
  CurMethod = HomeH->slots()[CtxMethod];
  Oop Bytes = ObjectMemory::fetchPointer(CurMethod, MthBytecodes);
  // Compiled code lives in old space and never moves; caching the raw
  // byte pointer across GC points is safe.
  assert(Bytes.object()->isOld() && "method bytecodes must be old-space");
  Code = Bytes.object()->bytes();
  Ip = static_cast<uint32_t>(CtxH->slots()[CtxIp].smallInt());
  SpVal = CtxH->slots()[CtxSp].smallInt();

  // Profile-slot publication. Every activation, return, and GC point
  // passes through here, so the slot always names the method now on top.
  // Disabled cost: one relaxed store. The richer tuple (receiver class,
  // pc, state) is published only while sampling; the tear chaos point
  // sits between the stores so the stress lanes shake out mixed tuples.
  if (ProfileSlot *PS = Profiler::slot()) {
    PS->Method.store(CurMethod.bits(), std::memory_order_relaxed);
    if (Profiler::enabled()) {
      chaos::point("profiler.slot.tear");
      PS->RecvClass.store(Om.classOf(HomeH->slots()[CtxReceiver]).bits(),
                          std::memory_order_relaxed);
      PS->Pc.store(Ip, std::memory_order_relaxed);
      PS->State.store(static_cast<uint8_t>(ProfState::Running),
                      std::memory_order_relaxed);
    }
  }
}

void Interpreter::writeBackIp() {
  CtxH->slots()[CtxIp] = Oop::fromSmallInt(static_cast<intptr_t>(Ip));
}

/// --- variable access --------------------------------------------------

/// Home-context temps and receiver ivars are shared between interpreters
/// (a forked block and its enclosing method run concurrently against the
/// same home context) with no lock, by the paper's design. Acquire/release
/// cell access keeps the words untorn and orders a freshly allocated
/// object's header initialization before use by whoever observes its oop
/// through a shared slot; on x86 both compile to plain moves.
static Oop loadSlotAcquire(const ObjectHeader *H, uint32_t Idx) {
  const uintptr_t &Cell =
      reinterpret_cast<const uintptr_t *>(H->slots())[Idx];
  return Oop::fromBits(std::atomic_ref<const uintptr_t>(Cell).load(
      std::memory_order_acquire));
}

static void storeSlotRelease(ObjectHeader *H, uint32_t Idx, Oop V) {
  uintptr_t &Cell = reinterpret_cast<uintptr_t *>(H->slots())[Idx];
  std::atomic_ref<uintptr_t>(Cell).store(V.bits(), std::memory_order_release);
}

inline Oop Interpreter::fetchTemp(unsigned Idx) {
  return loadSlotAcquire(HomeH, CtxFixedSlots + Idx);
}

inline void Interpreter::storeTempValue(unsigned Idx, Oop V) {
  storeSlotRelease(HomeH, CtxFixedSlots + Idx, V);
  OM.writeBarrier(HomeH, V);
}

inline Oop Interpreter::receiver() {
  return loadSlotAcquire(HomeH, CtxReceiver);
}

inline Oop Interpreter::fetchIvar(unsigned Idx) {
  Oop R = receiver();
  assert(R.isPointer() && Idx < R.object()->SlotCount &&
         "instance variable access out of range");
  return loadSlotAcquire(R.object(), Idx);
}

inline void Interpreter::storeIvar(unsigned Idx, Oop V) {
  Oop R = receiver();
  assert(R.isPointer() && Idx < R.object()->SlotCount &&
         "instance variable store out of range");
  OM.storePointer(R, Idx, V);
}

/// --- context allocation ----------------------------------------------

Oop Interpreter::allocateContext(uint32_t SlotsNeeded, Oop Cls) {
  uint32_t SlotAlloc = SlotsNeeded <= SmallContextSlots ? SmallContextSlots
                       : SlotsNeeded <= LargeContextSlots
                           ? LargeContextSlots
                           : SlotsNeeded;
  if (SlotAlloc <= LargeContextSlots) {
    Oop Recycled = VM.contextPool().take(Id, SlotAlloc);
    if (!Recycled.isNull()) {
      Recycled.object()->setClassOop(Cls);
      return Recycled;
    }
  }
  writeBackIp();
  TraceSpan RefillSpan("ctx.refill", "vm");
  Oop Fresh = OM.allocateContextObject(Cls, SlotAlloc);
  reloadFrame();
  return Fresh;
}

/// --- sends -----------------------------------------------------------

void Interpreter::doSend(Oop Selector, unsigned Argc, bool Super) {
  SendCount.store(SendCount.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  Oop Recv = topValue(Argc);
  Oop StartCls;
  if (Super) {
    Oop MethodClass = ObjectMemory::fetchPointer(CurMethod, MthClass);
    StartCls = ObjectMemory::fetchPointer(MethodClass, ClsSuperclass);
  } else {
    StartCls = Om.classOf(Recv);
  }

  Oop Method, DefCls;
  if (!VM.cache().lookup(Id, StartCls, Selector, Method, DefCls)) {
    ProfStateScope ProfMiss(ProfState::LookupMiss);
    if (Profiler::enabled())
      profNoteCacheMiss(CurMethod.bits(), Selector.bits());
    TraceSpan MissSpan("lookup.miss", "vm");
    ObjectModel::LookupResult R = Om.lookupMethod(StartCls, Selector);
    if (R.Method.isNull()) {
      doesNotUnderstand(Selector, Argc);
      return;
    }
    Method = R.Method;
    DefCls = R.DefiningClass;
    VM.cache().insert(Id, StartCls, Selector, Method, DefCls);
  }

  intptr_t Prim = ObjectMemory::fetchPointer(Method, MthPrimitive).smallInt();
  if (Prim != PrimNone &&
      dispatchPrimitive(static_cast<int>(Prim), Argc) == PrimResult::Success)
    return;
  activateMethod(Method, Argc);
}

/// The SmallInteger table behind the special sends, shared by the loop's
/// inline fast path and doSpecialSend. \returns false when \p S has no
/// SmallInteger answer for \p X and \p Y (overflow, zero divisor, shift
/// out of range) and must become a real send. IdentityEq never gets here:
/// both callers answer it first.
static inline bool smallIntegerSpecial(const ObjectModel &Om,
                                       SpecialSelector S, intptr_t X,
                                       intptr_t Y, Oop &Result) {
  switch (S) {
  case SpecialSelector::Add: {
    intptr_t R = X + Y;
    Result = Oop::fromSmallInt(R);
    return fitsSmallInt(R);
  }
  case SpecialSelector::Subtract: {
    intptr_t R = X - Y;
    Result = Oop::fromSmallInt(R);
    return fitsSmallInt(R);
  }
  case SpecialSelector::Multiply:
    // Conservative overflow guard for the immediate multiply.
    if (X != 0 && (std::abs(X) > (SmallIntMax / std::abs(Y ? Y : 1))))
      return false;
    Result = Oop::fromSmallInt(X * Y);
    return true;
  case SpecialSelector::IntDivide: {
    if (Y == 0)
      return false;
    // Floored division.
    intptr_t Q = X / Y;
    if ((X % Y != 0) && ((X < 0) != (Y < 0)))
      --Q;
    Result = Oop::fromSmallInt(Q);
    return true;
  }
  case SpecialSelector::Modulo: {
    if (Y == 0)
      return false;
    intptr_t R = X % Y;
    if (R != 0 && ((R < 0) != (Y < 0)))
      R += Y;
    Result = Oop::fromSmallInt(R);
    return true;
  }
  case SpecialSelector::Less:
    Result = Om.boolFor(X < Y);
    return true;
  case SpecialSelector::Greater:
    Result = Om.boolFor(X > Y);
    return true;
  case SpecialSelector::LessEq:
    Result = Om.boolFor(X <= Y);
    return true;
  case SpecialSelector::GreaterEq:
    Result = Om.boolFor(X >= Y);
    return true;
  case SpecialSelector::Equal:
    Result = Om.boolFor(X == Y);
    return true;
  case SpecialSelector::NotEqual:
    Result = Om.boolFor(X != Y);
    return true;
  case SpecialSelector::BitAnd:
    Result = Oop::fromSmallInt(X & Y);
    return true;
  case SpecialSelector::BitOr:
    Result = Oop::fromSmallInt(X | Y);
    return true;
  case SpecialSelector::BitShift:
    if (Y >= 0 && Y < 48) {
      intptr_t R = X << Y;
      Result = Oop::fromSmallInt(R);
      return fitsSmallInt(R) && (R >> Y) == X;
    }
    if (Y < 0 && Y > -64) {
      Result = Oop::fromSmallInt(X >> -Y);
      return true;
    }
    return false;
  case SpecialSelector::IdentityEq:
  case SpecialSelector::NumSpecialSelectors:
    break;
  }
  MST_UNREACHABLE("identity is answered before the SmallInteger table");
}

void Interpreter::doSpecialSend(SpecialSelector S) {
  Oop B = topValue(0);
  Oop A = topValue(1);

  // Identity never involves a real send.
  if (S == SpecialSelector::IdentityEq) {
    dropValues(2);
    pushValue(Om.boolFor(A == B));
    return;
  }

  Oop Result;
  if (A.isSmallInt() && B.isSmallInt() &&
      smallIntegerSpecial(Om, S, A.smallInt(), B.smallInt(), Result)) {
    dropValues(2);
    pushValue(Result);
    return;
  }
  // Fall back to a real send of the mapped selector.
  doSend(Om.known().SpecialSelectors[static_cast<size_t>(S)],
         specialSelectorArgc(S), /*Super=*/false);
}

void Interpreter::activateMethod(Oop Method, unsigned Argc) {
  intptr_t NumTemps =
      ObjectMemory::fetchPointer(Method, MthNumTemps).smallInt();
  intptr_t Frame =
      ObjectMemory::fetchPointer(Method, MthFrameSize).smallInt();
  assert(ObjectMemory::fetchPointer(Method, MthNumArgs).smallInt() ==
             static_cast<intptr_t>(Argc) &&
         "send argument count disagrees with the method");

  uint32_t SlotsNeeded =
      CtxFixedSlots + static_cast<uint32_t>(Frame);
  // Method is an old-space oop: safe to hold across the GC point below.
  Oop NewCtx = allocateContext(SlotsNeeded, Om.known().ClassMethodContext);
  if (NewCtx.isNull()) {
    vmError("OutOfMemoryError: cannot allocate a method context (heap "
            "ceiling reached)");
    return;
  }

  ObjectHeader *N = NewCtx.object();
  N->setClassOop(Om.known().ClassMethodContext);
  Oop *NS = N->slots();
  Oop *CS = CtxH->slots();

  NS[CtxSender] = Roots.ActiveContext;
  OM.writeBarrier(N, Roots.ActiveContext);
  NS[CtxIp] = Oop::fromSmallInt(0);
  NS[CtxMethod] = Method;
  Oop Recv = CS[SpVal - static_cast<intptr_t>(Argc)];
  NS[CtxReceiver] = Recv;
  OM.writeBarrier(N, Recv);
  for (unsigned I = 0; I < Argc; ++I) {
    Oop Arg = CS[SpVal - static_cast<intptr_t>(Argc) + 1 + I];
    NS[CtxFixedSlots + I] = Arg;
    OM.writeBarrier(N, Arg);
  }
  for (intptr_t I = Argc; I < NumTemps; ++I)
    NS[CtxFixedSlots + I] = Om.nil();
  intptr_t NewSp = CtxFixedSlots + NumTemps - 1;
  NS[CtxSp] = Oop::fromSmallInt(NewSp);

  // Pop receiver and arguments from the caller.
  dropValues(Argc + 1);
  writeBackIp();

  Roots.ActiveContext = NewCtx;
  reloadFrame();
}

void Interpreter::doesNotUnderstand(Oop Selector, unsigned Argc) {
  if (Selector == Om.known().SelDoesNotUnderstand) {
    vmError("message not understood (and no doesNotUnderstand: handler)");
    return;
  }
  KnownObjects &K = Om.known();
  writeBackIp();
  HandleStack &HS = OM.handles();
  {
    Oop ArrRaw = OM.allocatePointers(K.ClassArray, Argc);
    reloadFrame();
    if (ArrRaw.isNull()) {
      vmError("OutOfMemoryError: cannot build the doesNotUnderstand: "
              "message (heap ceiling reached)");
      return;
    }
    Handle Arr(HS, ArrRaw);
    for (unsigned I = 0; I < Argc; ++I)
      OM.storePointer(Arr.get(), I,
                      CtxH->slots()[SpVal - static_cast<intptr_t>(Argc) +
                                    1 + I]);
    Oop MsgRaw = OM.allocatePointers(K.ClassMessage, MessageSlotCount);
    reloadFrame();
    if (MsgRaw.isNull()) {
      vmError("OutOfMemoryError: cannot build the doesNotUnderstand: "
              "message (heap ceiling reached)");
      return;
    }
    Handle Msg(HS, MsgRaw);
    OM.storePointer(Msg.get(), MsgSelector, Selector);
    OM.storePointer(Msg.get(), MsgArguments, Arr.get());
    dropValues(Argc);
    pushValue(Msg.get());
  }
  doSend(K.SelDoesNotUnderstand, 1, /*Super=*/false);
}

void Interpreter::doReturn(Oop Value, bool BlockReturn) {
  Oop Nil = Om.nil();
  Oop Target;
  if (BlockReturn) {
    Target = CtxH->slots()[BlkCaller];
  } else if (IsBlock) {
    // ^ inside a block: non-local return to the home method's sender.
    Oop Home = CtxH->slots()[BlkHome];
    Target = Home.object()->slots()[CtxSender];
    if (Target == Nil) {
      vmError("block cannot return: home context already returned");
      return;
    }
  } else {
    Target = CtxH->slots()[CtxSender];
  }

  if (Target == Nil || Target.isNull()) {
    Roots.PendingResult = Value;
    Finished = true;
    return;
  }

  bool Recycle = !IsBlock && !BlockReturn && !CtxH->isEscaped();
  Oop Dead = Roots.ActiveContext;
  // Sever the dead frame's sender link so stale non-local returns through
  // it are detectable.
  if (!IsBlock)
    CtxH->slots()[CtxSender] = Nil;

  Roots.ActiveContext = Target;
  reloadFrame();
  pushValue(Value);
  if (Recycle)
    VM.contextPool().give(Id, Dead);
}

void Interpreter::doBlockCopy(unsigned NumArgs, unsigned Frame) {
  uint32_t SlotsNeeded = BlkFixedSlots + Frame;
  Oop B = allocateContext(SlotsNeeded, Om.known().ClassBlockContext);
  if (B.isNull()) {
    vmError("OutOfMemoryError: cannot allocate a block context (heap "
            "ceiling reached)");
    return;
  }
  ObjectHeader *N = B.object();
  N->setClassOop(Om.known().ClassBlockContext);

  // Recompute home after the GC point and mark it escaped: the block will
  // reference its temps for as long as the block lives.
  Oop HomeOop = IsBlock ? CtxH->slots()[BlkHome] : Roots.ActiveContext;
  HomeH->setEscaped();

  Oop *NS = N->slots();
  NS[BlkCaller] = Om.nil();
  NS[BlkIp] = Oop::fromSmallInt(0);
  NS[BlkSp] = Oop::fromSmallInt(BlkFixedSlots - 1);
  NS[BlkNumArgs] = Oop::fromSmallInt(NumArgs);
  NS[BlkInitialIp] = Oop::fromSmallInt(static_cast<intptr_t>(Ip));
  NS[BlkHome] = HomeOop;
  OM.writeBarrier(N, HomeOop);

  pushValue(B);
}

/// --- errors -----------------------------------------------------------

void Interpreter::vmError(const std::string &Msg) {
  // Build a Smalltalk backtrace by walking the sender/caller chain, the
  // way a debugger would show it.
  std::string Trace;
  Oop Nil = Om.nil();
  Oop Ctx = Roots.ActiveContext;
  for (int Depth = 0; Depth < 12 && Ctx.isPointer() && Ctx != Nil;
       ++Depth) {
    ObjectHeader *H = Ctx.object();
    bool Block = H->classOop() == Om.known().ClassBlockContext;
    Oop Home = Block ? H->slots()[BlkHome] : Ctx;
    Oop Method = Home.isPointer() && Home != Nil
                     ? Home.object()->slots()[CtxMethod]
                     : Oop();
    Trace += "\n    ";
    if (Block)
      Trace += "[] in ";
    if (Method.isPointer()) {
      Oop Sel = ObjectMemory::fetchPointer(Method, MthSelector);
      Oop MthCls = ObjectMemory::fetchPointer(Method, MthClass);
      Trace += Om.className(MthCls) + ">>" +
               ObjectModel::stringValue(Sel);
    } else {
      Trace += "(no method)";
    }
    Ctx = Block ? H->slots()[BlkCaller] : H->slots()[CtxSender];
  }
  VM.logError(Msg + Trace);
  Errored = true;
  Finished = true;
  Roots.PendingResult = Oop();
}

/// --- the bytecode loop ------------------------------------------------

namespace {
/// Set MST_TRACE=1 in the environment to stream executed bytecodes to
/// stderr (driver + workers; slow, debugging only).
bool traceEnabled() {
  static bool Enabled = std::getenv("MST_TRACE") != nullptr;
  return Enabled;
}

/// The special sends the SendSpecial handler answers inline for two
/// SmallIntegers: + - < > <= >= =. The rest go through doSpecialSend.
constexpr uint32_t specialBit(SpecialSelector S) {
  return 1u << static_cast<unsigned>(S);
}
constexpr uint32_t InlineSpecials =
    specialBit(SpecialSelector::Add) | specialBit(SpecialSelector::Subtract) |
    specialBit(SpecialSelector::Less) | specialBit(SpecialSelector::Greater) |
    specialBit(SpecialSelector::LessEq) |
    specialBit(SpecialSelector::GreaterEq) |
    specialBit(SpecialSelector::Equal);

/// Bytecodes between deadline and processor-time checks.
constexpr uint64_t CadenceBytecodes = 512;
} // namespace

// The loop is threaded: every handler ends by jumping straight to the
// next bytecode's handler, so a simple bytecode costs one table jump. The
// slice's checks — trace, safepoint, shutdown, abort, budget, deadline,
// processor time — run only at *control points*: slice entry, a taken
// backward jump, and after every send, return and BlockCopy (which also
// test the Finished/FlagBlocked/FlagYield flags those bytecodes can set).
// Every loop the compiler inlines ends in a backward jump and every
// unbounded recursion sends, so each check still runs within a stretch of
// straight-line code.
RunResult Interpreter::interpretSlice(uint64_t MaxBytecodes) {
  // Handler addresses indexed by opcode, in Op order. Compiled code comes
  // only from CodeGen (images are CRC-checked), so every opcode is valid.
  static const void *const Handlers[] = {
      &&DoPushSelf,    &&DoPushNil,      &&DoPushTrue,
      &&DoPushFalse,   &&DoPushThisContext,
      &&DoPushTemp,    &&DoPushInstVar,  &&DoPushLiteral,
      &&DoPushGlobal,  &&DoPushSmallInt,
      &&DoStoreTemp,   &&DoStoreInstVar, &&DoStoreGlobal,
      &&DoPop,         &&DoDup,
      &&DoJump,        &&DoJumpIf,       &&DoJumpIf,
      &&DoSend,        &&DoSendSuper,    &&DoSendSpecial,
      &&DoBlockCopy,
      &&DoReturnTop,   &&DoReturnSelf,   &&DoBlockReturn,
  };
  static_assert(std::size(Handlers) ==
                    static_cast<size_t>(Op::BlockReturn) + 1,
                "one handler per opcode, in Op order");

  reloadFrame();
  Safepoint &Sp = OM.safepoint();
  // Bytecodes completed in this slice; added to BytecodeCount on exit.
  uint64_t Executed = 0;
  uint64_t NextCadence = CadenceBytecodes;
  // Time-based preemption: a Process that buries its slice inside long
  // primitives still yields within TimesliceMicros of processor time
  // (the timer interrupt of real hardware). Only armed for real slices.
  const bool TimedSlice = MaxBytecodes != UINT64_MAX;
  const uint64_t SliceBudgetUs = VM.config().TimesliceMicros;
  const uint64_t SliceStartUs = TimedSlice ? threadCpuMicros() : 0;
  const Oop TrueObj = Om.known().TrueObj;
  const Oop FalseObj = Om.known().FalseObj;
  auto Leave = [&](RunResult R) {
    BytecodeCount.store(
        BytecodeCount.load(std::memory_order_relaxed) + Executed,
        std::memory_order_relaxed);
    return R;
  };

  // Tracing sends every bytecode through the control point, which prints
  // it before running it.
  const bool Trace = traceEnabled();
  const void *TraceTable[std::size(Handlers)];
  const void *const *Dispatch = Handlers;
  if (Trace) {
    std::fill(std::begin(TraceTable), std::end(TraceTable), &&TraceStep);
    Dispatch = TraceTable;
  }

  // The handlers run on register copies of the frame cache's Ip and Code:
  // Pc and Bytes. Control points store Pc back to Ip; a handler that
  // calls out stores it first, and AfterCall reloads both, since a send
  // or return changes frames.
  uint32_t Pc = Ip;
  const uint8_t *Bytes = Code;

  // NEXT ends a simple bytecode; CONTROL_POINT ends a taken backward
  // jump; AFTER_CALL ends a bytecode that can finish, block or yield the
  // Process. Handlers are entered with Pc past their opcode byte.
#define NEXT()                                                                 \
  do {                                                                         \
    ++Executed;                                                                \
    goto *Dispatch[Bytes[Pc++]];                                               \
  } while (0)
#define CONTROL_POINT()                                                        \
  do {                                                                         \
    ++Executed;                                                                \
    goto ControlPoint;                                                         \
  } while (0)
#define AFTER_CALL()                                                           \
  do {                                                                         \
    ++Executed;                                                                \
    goto AfterCall;                                                            \
  } while (0)

  goto ControlPoint;

AfterCall:
  Pc = Ip;
  Bytes = Code;
  if (Finished)
    return Leave(RunResult::Terminated);
  if (FlagBlocked) {
    FlagBlocked = false;
    return Leave(RunResult::Blocked);
  }
  if (FlagYield) {
    FlagYield = false;
    writeBackIp();
    return Leave(RunResult::Yielded);
  }
  goto ControlPoint;

TraceStep:
  --Pc; // back onto the opcode byte NEXT stepped past
ControlPoint:
  Ip = Pc;
  if (Trace) {
    Oop Sel = ObjectMemory::fetchPointer(CurMethod, MthSelector);
    std::fprintf(stderr, "[i%u] %s sp=%ld %s\n", Id,
                 ObjectModel::stringValue(Sel).c_str(),
                 static_cast<long>(SpVal), disassembleOne(Code, Ip).c_str());
  }
  if (Sp.pollNeeded()) {
    writeBackIp();
    Sp.pollSlow();
    reloadFrame();
    Pc = Ip;
    Bytes = Code;
  }
  if (VM.stopping()) {
    writeBackIp();
    return Leave(RunResult::Stopping);
  }
  if (AbortFlag.load(std::memory_order_acquire)) {
    AbortFlag.store(false, std::memory_order_relaxed);
    Aborted = true;
    writeBackIp();
    vmError("RequestTimeout: execution aborted by watchdog");
    return Leave(RunResult::Terminated);
  }
  if (Executed >= MaxBytecodes) {
    writeBackIp();
    return Leave(RunResult::Yielded);
  }
  if (Executed >= NextCadence) {
    NextCadence = Executed + CadenceBytecodes;
    // The deadline is armed even for untimed (driver) slices: a serve
    // request runs as one runToCompletion call, and this is the only
    // place a runaway `[true] whileTrue.` can be caught in-VM.
    if (DeadlineNs != 0 && Telemetry::nowNs() >= DeadlineNs) {
      Aborted = true;
      writeBackIp();
      vmError("RequestTimeout: request exceeded its deadline");
      return Leave(RunResult::Terminated);
    }
    if (TimedSlice && threadCpuMicros() - SliceStartUs > SliceBudgetUs) {
      writeBackIp();
      return Leave(RunResult::Yielded);
    }
  }
  goto *Handlers[Bytes[Pc++]];

DoPushSelf:
  pushValue(receiver());
  NEXT();
DoPushNil:
  pushValue(Om.nil());
  NEXT();
DoPushTrue:
  pushValue(TrueObj);
  NEXT();
DoPushFalse:
  pushValue(FalseObj);
  NEXT();
DoPushThisContext:
  CtxH->setEscaped();
  pushValue(Roots.ActiveContext);
  NEXT();
DoPushTemp:
  pushValue(fetchTemp(Bytes[Pc++]));
  NEXT();
DoPushInstVar:
  pushValue(fetchIvar(Bytes[Pc++]));
  NEXT();
DoPushLiteral: {
  Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
  pushValue(Lits.object()->slots()[Bytes[Pc++]]);
  NEXT();
}
DoPushGlobal: {
  Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
  Oop Assoc = Lits.object()->slots()[Bytes[Pc++]];
  pushValue(ObjectMemory::fetchPointer(Assoc, AssocValue));
  NEXT();
}
DoPushSmallInt:
  pushValue(Oop::fromSmallInt(static_cast<int8_t>(Bytes[Pc++])));
  NEXT();
DoStoreTemp:
  storeTempValue(Bytes[Pc++], topValue());
  NEXT();
DoStoreInstVar:
  storeIvar(Bytes[Pc++], topValue());
  NEXT();
DoStoreGlobal: {
  Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
  Oop Assoc = Lits.object()->slots()[Bytes[Pc++]];
  OM.storePointer(Assoc, AssocValue, topValue());
  NEXT();
}
DoPop:
  dropValues(1);
  NEXT();
DoDup:
  pushValue(topValue());
  NEXT();
DoJump: {
  int16_t Off = static_cast<int16_t>(Bytes[Pc] | (Bytes[Pc + 1] << 8));
  Pc = static_cast<uint32_t>(static_cast<intptr_t>(Pc) + 2 + Off);
  if (Off < 0)
    CONTROL_POINT();
  NEXT();
}
DoJumpIf: {
  bool IfTrue = static_cast<Op>(Bytes[Pc - 1]) == Op::JumpIfTrue;
  int16_t Off = static_cast<int16_t>(Bytes[Pc] | (Bytes[Pc + 1] << 8));
  Pc += 2;
  Oop Cond = popValue();
  if (Cond != TrueObj && Cond != FalseObj) {
    Ip = Pc;
    vmError("mustBeBoolean: conditional jump on " + Om.describe(Cond));
    AFTER_CALL();
  }
  if ((Cond == TrueObj) != IfTrue)
    NEXT();
  Pc = static_cast<uint32_t>(static_cast<intptr_t>(Pc) + Off);
  if (Off < 0)
    CONTROL_POINT();
  NEXT();
}
DoSend:
DoSendSuper: {
  bool Super = static_cast<Op>(Bytes[Pc - 1]) == Op::SendSuper;
  uint8_t LitIdx = Bytes[Pc++];
  uint8_t Argc = Bytes[Pc++];
  Oop Lits = ObjectMemory::fetchPointer(CurMethod, MthLiterals);
  Ip = Pc;
  doSend(Lits.object()->slots()[LitIdx], Argc, Super);
  AFTER_CALL();
}
DoSendSpecial: {
  auto S = static_cast<SpecialSelector>(Bytes[Pc++]);
  Oop B = topValue(0);
  Oop A = topValue(1);
  Oop Result;
  if ((InlineSpecials & specialBit(S)) && A.isSmallInt() &&
      B.isSmallInt() &&
      smallIntegerSpecial(Om, S, A.smallInt(), B.smallInt(), Result)) {
    dropValues(2);
    pushValue(Result);
    NEXT();
  }
  Ip = Pc;
  doSpecialSend(S);
  AFTER_CALL();
}
DoBlockCopy: {
  uint8_t NumArgs = Bytes[Pc];
  uint8_t Frame = Bytes[Pc + 1];
  uint16_t Skip = static_cast<uint16_t>(Bytes[Pc + 2] | (Bytes[Pc + 3] << 8));
  uint32_t BodyStart = Pc + 4;
  // doBlockCopy records Ip as the block's initial ip.
  Ip = BodyStart;
  doBlockCopy(NumArgs, Frame);
  Ip = BodyStart + Skip;
  AFTER_CALL();
}
DoReturnTop:
  Ip = Pc;
  doReturn(popValue(), /*BlockReturn=*/false);
  AFTER_CALL();
DoReturnSelf:
  Ip = Pc;
  doReturn(receiver(), /*BlockReturn=*/false);
  AFTER_CALL();
DoBlockReturn:
  Ip = Pc;
  doReturn(popValue(), /*BlockReturn=*/true);
  AFTER_CALL();

#undef NEXT
#undef CONTROL_POINT
#undef AFTER_CALL
}

/// --- process plumbing -------------------------------------------------

bool Interpreter::activateProcess(Oop Proc) {
  Roots.ActiveProcess = Proc;
  Oop Ctx = ObjectMemory::fetchPointer(Proc, ProcSuspendedContext);
  if (Ctx == Om.nil() || Ctx.isNull())
    return false;
  Roots.ActiveContext = Ctx;
  return true;
}

void Interpreter::saveProcessState() {
  writeBackIp();
  OM.storePointer(Roots.ActiveProcess, ProcSuspendedContext,
                  Roots.ActiveContext);
}

void Interpreter::runLoop() {
  OM.registerMutator("interpreter-" + std::to_string(Id));
  Profiler::registerThread("vp" + std::to_string(Id),
                           static_cast<int>(Id));
  Safepoint &Sp = OM.safepoint();

  while (!VM.stopping()) {
    if (Sp.pollNeeded())
      Sp.pollSlow();

    Oop P = VM.scheduler().pickProcessToRun();
    if (P.isNull()) {
      BlockedRegion Region(Sp);
      VM.scheduler().waitForWork();
      continue;
    }
    if (!activateProcess(P)) {
      VM.scheduler().terminateProcess(P);
      Roots.ActiveProcess = Oop();
      continue;
    }

    Finished = Errored = FlagBlocked = FlagYield = false;
    uint64_t CpuBefore = threadCpuMicros();
    RunResult R = interpretSlice(VM.config().TimesliceBytecodes);

    // The process oop may have moved during the slice; use the root.
    Oop Proc = Roots.ActiveProcess;

    // Attribute the slice's processor time to the Smalltalk Process (see
    // ProcAccumUs). Thread-CPU time excludes descheduled periods, so the
    // attribution stays meaningful when interpreters outnumber host CPUs.
    {
      uint64_t CpuDelta = threadCpuMicros() - CpuBefore;
      intptr_t Prev =
          ObjectMemory::fetchPointer(Proc, ProcAccumUs).isSmallInt()
              ? ObjectMemory::fetchPointer(Proc, ProcAccumUs).smallInt()
              : 0;
      OM.storePointer(Proc, ProcAccumUs,
                      Oop::fromSmallInt(Prev +
                                        static_cast<intptr_t>(CpuDelta)));
    }
    switch (R) {
    case RunResult::Yielded:
      saveProcessState();
      VM.scheduler().yieldProcess(Proc);
      break;
    case RunResult::Blocked:
      // State already saved by the blocking primitive.
      break;
    case RunResult::Terminated:
      VM.scheduler().terminateProcess(Proc);
      break;
    case RunResult::Stopping:
      saveProcessState();
      VM.scheduler().yieldProcess(Proc);
      break;
    }
    Roots.ActiveProcess = Oop();
    Roots.ActiveContext = Oop();
    if (R == RunResult::Stopping)
      break;
  }
  Profiler::retireThread();
  OM.unregisterMutator();
}

Oop Interpreter::runToCompletion(Oop Ctx) {
  Roots.ActiveProcess = Oop();
  Roots.ActiveContext = Ctx;
  Roots.PendingResult = Oop();
  Finished = Errored = FlagBlocked = FlagYield = false;
  Aborted = false;

  for (;;) {
    RunResult R = interpretSlice(UINT64_MAX);
    if (R == RunResult::Terminated)
      break;
    if (R == RunResult::Stopping) {
      Roots.ActiveContext = Oop();
      return Oop();
    }
    // Yielded (explicit Processor yield in a doIt): just keep going.
    if (R == RunResult::Blocked) {
      // Cannot happen: blocking primitives error out without a process.
      MST_UNREACHABLE("driver execution blocked");
    }
  }
  Roots.ActiveContext = Oop();
  Oop Result = Roots.PendingResult;
  Roots.PendingResult = Oop();
  return Errored ? Oop() : Result;
}

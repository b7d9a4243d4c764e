//===-- tests/integration/ParallelTest.cpp - Multiprocessor behaviour -----===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the replicated interpreter: Smalltalk Processes
/// running in parallel on several interpreter processes, semaphores,
/// scheduling, and the reorganized canRun:/thisProcess queries.
///
//===----------------------------------------------------------------------===//

#include "TestVm.h"
#include "obs/Telemetry.h"
#include "obs/TraceBuffer.h"
#include "vkernel/Delay.h"

using namespace mst;

namespace {

/// Sleeps briefly while counted as GC-safe, so workers can scavenge.
void safeSleep(VirtualMachine &VM, uint64_t Micros) {
  BlockedRegion Region(VM.memory().safepoint());
  vkDelay(Micros);
}

TEST(ParallelTest, ForkedProcessRunsAndSignals) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  std::string Src = "| n | n := 0. 1 to: 1000 do: [:i | n := n + i]. "
                    "n = 500500 ifTrue: [nil hostSignal: " +
                    std::to_string(Sig) + "]";
  Oop Proc = T.vm().forkDoIt(Src, 5, "worker");
  ASSERT_FALSE(Proc.isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));
}

TEST(ParallelTest, ManyProcessesAllComplete) {
  TestVm T(VmConfig::multiprocessor(4));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  constexpr int N = 16;
  for (int I = 0; I < N; ++I) {
    std::string Src =
        "| c | c := OrderedCollection new. 1 to: 200 do: [:i | c add: i * "
        + std::to_string(I + 1) +
        "]. c size = 200 ifTrue: [nil hostSignal: " + std::to_string(Sig) +
        "]";
    // Appended, not "w" + std::string: GCC 12 raises a false -Wrestrict
    // on the inlined insert(0, ...) behind that operator+.
    std::string Name = std::string("w").append(std::to_string(I));
    ASSERT_FALSE(T.vm().forkDoIt(Src, 5, Name).isNull());
  }
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, N, 60.0));
  EXPECT_TRUE(T.vm().errors().empty()) << T.vm().errors().front();
}

TEST(ParallelTest, SemaphoreHandshake) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  T.eval("Smalltalk at: #TestSem put: Semaphore new. ^1");

  // Consumer waits 5 times, then reports.
  Oop Consumer = T.vm().forkDoIt(
      "| sem | sem := Smalltalk at: #TestSem. 1 to: 5 do: [:i | sem "
      "wait]. nil hostSignal: " + std::to_string(Sig),
      5, "consumer");
  ASSERT_FALSE(Consumer.isNull());
  // Producer signals 5 times.
  Oop Producer = T.vm().forkDoIt(
      "| sem | sem := Smalltalk at: #TestSem. 1 to: 5 do: [:i | sem "
      "signal. Processor yield]",
      5, "producer");
  ASSERT_FALSE(Producer.isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 30.0));
}

TEST(ParallelTest, MutualExclusionWithSemaphore) {
  TestVm T(VmConfig::multiprocessor(4));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  // A binary semaphore guards a shared counter in an Association; four
  // workers each add 500. With correct mutual exclusion the final count
  // is exactly 2000 despite the racy read-modify-write.
  T.eval("Smalltalk at: #Mutex put: Semaphore new. (Smalltalk at: #Mutex) "
         "signal. Smalltalk at: #Counter put: 0 -> 0. ^1");
  for (int I = 0; I < 4; ++I) {
    T.vm().forkDoIt(
        "| m c | m := Smalltalk at: #Mutex. c := Smalltalk at: #Counter. "
        "1 to: 500 do: [:i | m wait. c value: c value + 1. m signal]. nil "
        "hostSignal: " + std::to_string(Sig),
        5, "adder");
  }
  ASSERT_TRUE(T.vm().waitHostSignal(Sig, 4, 60.0));
  EXPECT_EQ(T.evalInt("^(Smalltalk at: #Counter) value"), 2000);
}

TEST(ParallelTest, CanRunAndThisProcess) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  // Inside a running process, thisProcess is non-nil and canRun: answers
  // true — the process stays in the ready queue while running (§3.3).
  Oop P = T.vm().forkDoIt(
      "| me | me := Processor thisProcess. (me notNil and: [Processor "
      "canRun: me]) ifTrue: [nil hostSignal: " + std::to_string(Sig) + "]",
      5, "introspector");
  ASSERT_FALSE(P.isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));

  // Compatibility fall-through (§3.3): activeProcess succeeds via the new
  // primitive under MS; on the driver (no Smalltalk Process) it is nil.
  EXPECT_EQ(T.eval("^Processor activeProcess"), T.om().nil());
}

TEST(ParallelTest, IdleProcessesDoNotBlockOthers) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  // Two infinite idle Processes ([true] whileTrue) plus one worker: the
  // worker must still complete (timeslicing, multiple interpreters).
  T.vm().forkDoIt("[true] whileTrue", 5, "idle1");
  T.vm().forkDoIt("[true] whileTrue", 5, "idle2");
  Oop W = T.vm().forkDoIt("| s | s := 0. 1 to: 10000 do: [:i | s := s + "
                          "1]. nil hostSignal: " + std::to_string(Sig),
                          5, "worker");
  ASSERT_FALSE(W.isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 30.0));
}

TEST(ParallelTest, SuspendAndResume) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();

  // A process suspends itself; the driver resumes it; it then signals.
  Oop P = T.vm().forkDoIt("Smalltalk at: #SuspendMe put: Processor "
                          "thisProcess. Processor thisProcess suspend. "
                          "nil hostSignal: " + std::to_string(Sig),
                          5, "sleeper");
  ASSERT_FALSE(P.isNull());
  // Wait for it to have parked itself. Oops are refetched after every
  // sleep: the sleep is a GC-safe region, so objects may move during it.
  bool Parked = false;
  for (int Tries = 0; Tries < 500 && !Parked; ++Tries) {
    Oop Sleeper = T.om().globalAt("SuspendMe");
    Parked = !Sleeper.isNull() && Sleeper != T.om().nil() &&
             !T.vm().scheduler().canRun(Sleeper);
    if (!Parked)
      safeSleep(T.vm(), 10000);
  }
  ASSERT_TRUE(Parked);
  T.vm().scheduler().resumeProcess(T.om().globalAt("SuspendMe"));
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));
}

TEST(ParallelTest, BaselineBSStillRunsProcesses) {
  // The no-MP build must still execute a single Smalltalk Process
  // correctly (one interpreter, all locks disabled).
  TestVm T(VmConfig::baselineBS());
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();
  Oop P = T.vm().forkDoIt("| s | s := 0. 1 to: 100 do: [:i | s := s + i]. "
                          "s = 5050 ifTrue: [nil hostSignal: " +
                              std::to_string(Sig) + "]",
                          5, "solo");
  ASSERT_FALSE(P.isNull());
  EXPECT_TRUE(T.vm().waitHostSignal(Sig, 1, 20.0));
}

TEST(ParallelTest, HigherPriorityProcessesFinishFirst) {
  // One interpreter: strict priority order is observable. Fork a low
  // priority process first; a later high-priority process must still
  // complete before it, because picks always prefer the higher queue.
  TestVm T(VmConfig::multiprocessor(1));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();
  T.eval("Smalltalk at: #Order put: OrderedCollection new. ^1");

  // Big enough that neither finishes in one slice.
  const char *WorkFmt =
      "| n | n := 0. 1 to: 300000 do: [:i | n := n + 1]. (Smalltalk at: "
      "#Order) add: %s. nil hostSignal: ";
  std::string Low = WorkFmt;
  Low.replace(Low.find("%s"), 2, "#low");
  std::string High = WorkFmt;
  High.replace(High.find("%s"), 2, "#high");
  T.vm().forkDoIt(Low + std::to_string(Sig), 3, "low");
  T.vm().forkDoIt(High + std::to_string(Sig), 7, "high");
  ASSERT_TRUE(T.vm().waitHostSignal(Sig, 2, 60.0));
  EXPECT_EQ(T.eval("^(Smalltalk at: #Order) first"),
            T.om().intern("high"));
}

TEST(ParallelTest, TracingRecordsScavengeSpansFromWorkers) {
  // With tracing on, a four-worker allocation-heavy run must record at
  // least one trace span per scavenge that actually happened, and the
  // telemetry report must surface the pause histogram.
  clearTrace();
  Telemetry::setTracingEnabled(true);
  uint64_t Scavenges = 0;
  {
    VmConfig C = VmConfig::multiprocessor(4);
    C.Memory.EdenBytes = 256u << 10; // small eden → frequent scavenges
    TestVm T(C);
    T.vm().startInterpreters();
    unsigned Sig = T.vm().createHostSignal();
    for (int I = 0; I < 4; ++I)
      T.vm().forkDoIt(
          "1 to: 400 do: [:i | OrderedCollection new addAll: (1 to: 100); "
          "yourself]. nil hostSignal: " + std::to_string(Sig),
          5, "alloc" + std::to_string(I));
    ASSERT_TRUE(T.vm().waitHostSignal(Sig, 4, 60.0));
    Scavenges = T.vm().memory().statsSnapshot().Scavenges;
    EXPECT_GE(Scavenges, 1u);
    // Each performScavenge brackets itself in a "scavenge" span.
    EXPECT_GE(countTraceSpans("scavenge"), Scavenges);
    // The report carries the pause quantiles fed by those scavenges.
    std::string Report = T.vm().telemetryReport();
    EXPECT_NE(Report.find("gc.scavenge.pause"), std::string::npos)
        << Report;
    EXPECT_EQ(T.vm().memory().pauseHistogram().count(), Scavenges);
  }
  Telemetry::setTracingEnabled(false);
  clearTrace();
}

TEST(InstrumentationTest, ReportCoversEverySubsystem) {
  TestVm T(VmConfig::multiprocessor(2));
  T.vm().startInterpreters();
  unsigned Sig = T.vm().createHostSignal();
  T.vm().forkDoIt("1 to: 200 do: [:i | (Inspector on: i -> i) show]. "
                  "nil hostSignal: " + std::to_string(Sig),
                  5, "worker");
  ASSERT_TRUE(T.vm().waitHostSignal(Sig, 1, 30.0));
  std::string R = T.vm().statisticsReport();
  for (const char *Expect :
       {"allocation", "scheduling", "entry table", "display",
        "method cache", "free contexts", "scavenges", "driver"})
    EXPECT_NE(R.find(Expect), std::string::npos) << R;
  // Display commands were actually counted.
  EXPECT_GE(T.vm().display().submittedCount(), 200u);
}

} // namespace

//===-- perfbench/cpp/Table2Workload.cpp - The paper's Table 2 ------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// table2: the paper's eight macro benchmarks, in process and with no
/// serving, in three system states: baseline BS, MS static (one idle
/// competitor) and MS with four busy competitors. A round boots each
/// state from the prewarmed image in turn and runs one pass of the eight
/// macros in it, so the three states are interleaved in time and each
/// round yields its own MS/BS overhead ratio; the figures are medians
/// over the rounds of the window.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <thread>

#include "Probes.h"
#include "Stats.h"
#include "image/MacroBenchmarks.h"
#include "image/Snapshot.h"
#include "obs/TraceBuffer.h"
#include "serve/Protocol.h"

using namespace mst;
using namespace perfbench;

namespace {

/// Iteration scale of every macro (1.0 = the paper's sizes): one round of
/// three passes takes about a quarter of a second on a 4-CPU host.
constexpr double MacroScale = 0.05;
constexpr unsigned SetupRepeats = 7;
constexpr unsigned WarmupRounds = 1;
/// Rounds a traced run records: every VM thread keeps its own trace ring,
/// so a whole traced window would write hundreds of megabytes.
constexpr unsigned TracedRounds = 2;
constexpr double MacroTimeoutSec = 60.0;

struct State {
  const char *Name;
  const char *Span; ///< benchmark span name of a macro run in this state
  bool Baseline;
  unsigned Competitors;
  bool Busy;
};

const State States[] = {
    {"bs", "bench.macro.bs", true, 0, false},
    {"ms", "bench.macro.ms", false, 1, false},
    {"busy", "bench.macro.busy", false, 4, true},
};

/// Interpreters of the MS states: as bench_table2 picks them, one per
/// host CPU, at least two and at most the Firefly's five.
unsigned msInterpreters() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::clamp(Hw ? Hw : 4u, 2u, 5u);
}

VmConfig configFor(const State &S) {
  return S.Baseline ? VmConfig::baselineBS()
                    : VmConfig::multiprocessor(msInterpreters());
}

/// Loads the prewarmed image, starts the interpreters and forks the
/// state's competitors. \returns an error message or "".
std::string boot(VirtualMachine &VM, const State &S,
                 const std::string &Image) {
  std::string Err;
  if (!loadSnapshot(VM, Image, Err))
    return "image load: " + Err;
  VM.startInterpreters();
  if (S.Competitors)
    forkCompetitors(VM, S.Competitors,
                    S.Busy ? busyProcessSource() : idleProcessSource(),
                    "Competitors");
  VirtualMachine::EvalResult E = VM.evaluate("3 + 4");
  if (!E.Ok || E.Value != "7")
    return "booted VM answered '" + E.Value + "' to 3 + 4";
  return "";
}

void stop(VirtualMachine &VM, const State &S) {
  if (S.Competitors)
    terminateCompetitors(VM, "Competitors");
  VM.shutdown();
}

/// One pass of the eight macros in every state.
struct Round {
  double WallSec = 0;
  double CpuSec[3] = {0, 0, 0};
  double PassWallSec[3] = {0, 0, 0};
  std::vector<double> MacroWallMs;
  std::vector<double> MacroCpuMs;
  std::vector<std::pair<uint64_t, uint64_t>> Boots;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
};

/// \p W, when non-null, accumulates the registry deltas of each state's
/// macro pass (its VM's counters leave the registry at shutdown).
Round runRound(const std::string &Image, TelemetryWindow *W) {
  Round R;
  double T0 = nowSec();
  for (size_t SI = 0; SI < 3; ++SI) {
    const State &S = States[SI];
    VirtualMachine VM(configFor(S));
    uint64_t B0 = Telemetry::nowNs();
    std::string Err = boot(VM, S, Image);
    R.Boots.push_back({B0, Telemetry::nowNs()});
    if (!Err.empty()) {
      R.Errors.push_back(S.Name + std::string(": ") + Err);
      VM.shutdown();
      return R;
    }
    if (W)
      W->vmBegin();
    const auto &Macros = macroBenchmarks();
    for (size_t M = 0; M < Macros.size(); ++M) {
      ++R.Attempted;
      uint64_t M0 = Telemetry::nowNs();
      TimedRun Run = runMacroBenchmark(VM, Macros[M], MacroScale,
                                       MacroTimeoutSec);
      if (Telemetry::tracingEnabled())
        obsdetail::recordComplete(S.Span, "bench", M0,
                                  Telemetry::nowNs() - M0, M, true);
      if (!Run.Ok) {
        ++R.Failed;
        R.Errors.push_back("macro '" + Macros[M].Name + "' failed in state " +
                           S.Name);
        continue;
      }
      R.CpuSec[SI] += Run.CpuSec;
      R.PassWallSec[SI] += Run.WallSec;
      R.MacroWallMs.push_back(Run.WallSec * 1e3);
      R.MacroCpuMs.push_back(Run.CpuSec * 1e3);
    }
    if (W)
      W->vmEnd();
    stop(VM, S);
  }
  R.WallSec = nowSec() - T0;
  return R;
}

/// The rounds of one window and their medians.
struct WindowRounds {
  std::vector<Round> Rounds;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;

  /// Runs rounds for \p Seconds, and at least \p MinRounds of them.
  void run(double Seconds, unsigned MinRounds, const std::string &Image,
           TelemetryWindow &W) {
    double End = nowSec() + Seconds;
    while (nowSec() < End || Rounds.size() < MinRounds) {
      Rounds.push_back(runRound(Image, &W));
      const Round &R = Rounds.back();
      Attempted += R.Attempted;
      Failed += R.Failed;
      Errors.insert(Errors.end(), R.Errors.begin(), R.Errors.end());
      if (R.Attempted < 3 * macroBenchmarks().size())
        return; // a state failed to boot
    }
  }

  double medianOf(double (*Get)(const Round &)) const {
    std::vector<double> V(Rounds.size());
    std::transform(Rounds.begin(), Rounds.end(), V.begin(), Get);
    return median(std::move(V));
  }

  std::vector<double> pooled(std::vector<double> Round::*Field) const {
    std::vector<double> V;
    for (const Round &R : Rounds)
      V.insert(V.end(), (R.*Field).begin(), (R.*Field).end());
    return V;
  }
};

} // namespace

Result perfbench::runTable2Workload(const Options &O) {
  Result R;
  std::string Image = O.OutDir + "/prewarmed.image";
  R.shape("states", "bs,ms(1 idle),busy(4 busy)");
  R.shape("ms_interpreters", msInterpreters());
  R.shape("macro_scale", MacroScale);
  R.shape("macros_per_pass", double(macroBenchmarks().size()));
  R.shape("setup_repeats", SetupRepeats);
  R.shape("warmup_rounds", WarmupRounds);
  R.shape("traced_rounds", O.Trace ? TracedRounds : 0);

  // Set-up: prewarm, then boot (and stop) each state's VM.
  std::vector<double> SetupSec;
  std::vector<std::pair<uint64_t, uint64_t>> Boots;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    uint64_t T0 = Telemetry::nowNs();
    std::string Err = prewarmImage(Image);
    for (const State &S : States) {
      if (!Err.empty())
        break;
      VirtualMachine VM(configFor(S));
      Err = boot(VM, S, Image);
      stop(VM, S);
    }
    if (!Err.empty()) {
      R.fail("set-up: " + Err);
      return R;
    }
    Boots.push_back({T0, Telemetry::nowNs()});
    SetupSec.push_back((Boots.back().second - T0) / 1e9);
  }
  R.add("setup_s", median(SetupSec), "s");

  WindowRounds Warm;
  for (unsigned I = 0; I < WarmupRounds; ++I)
    Warm.Rounds.push_back(runRound(Image, nullptr));
  for (const Round &Wr : Warm.Rounds)
    for (const std::string &E : Wr.Errors)
      R.fail("warm-up: " + E);
  if (!R.Correct)
    return R;

  double Measured = O.Trace ? O.Seconds / 2 : O.Seconds;
  WindowRounds Win, Traced;
  TelemetryWindow W, TW;
  W.begin();
  Win.run(Measured, 3, Image, W);
  W.end();
  if (O.Trace) {
    clearTrace();
    Telemetry::setTracingEnabled(true);
    TW.begin();
    Traced.run(0, TracedRounds, Image, TW);
    TW.end();
    for (const auto &[B, E] : Boots)
      obsdetail::recordComplete("bench.boot", "bench", B, E - B, 0, false);
    for (const Round &Rd : Traced.Rounds)
      for (const auto &[B, E] : Rd.Boots)
        obsdetail::recordComplete("bench.boot", "bench", B, E - B, 1, true);
    Telemetry::setTracingEnabled(false);
    if (!writeChromeTrace(tracePath(O)))
      R.fail("cannot write " + tracePath(O));
  }

  R.Attempted = Win.Attempted + Traced.Attempted;
  R.Failed = Win.Failed + Traced.Failed;
  for (const auto *Wr : {&Win, &Traced})
    for (const std::string &E : Wr->Errors)
      R.fail(E);
  R.shape("rounds", double(Win.Rounds.size()));

  std::vector<double> Wall = Win.pooled(&Round::MacroWallMs);
  R.add("throughput_rps", Win.medianOf([](const Round &Rd) {
    return ratio(Rd.MacroWallMs.size(), Rd.WallSec);
  }), "req/s");
  R.add("latency_p50_ms", percentile(Wall, 50), "ms");
  R.add("latency_p90_ms", percentile(Wall, 90), "ms");
  R.add("latency_p99_ms", percentile(Wall, 99), "ms");
  if (!resolvable(Wall.size(), 99))
    R.Notes.push_back("p99 rests on " + std::to_string(Wall.size()) +
                      " macro runs");
  R.add("cpu_ms_per_req", Win.medianOf([](const Round &Rd) {
    return ratio(Rd.CpuSec[0] + Rd.CpuSec[1] + Rd.CpuSec[2],
                 Rd.MacroCpuMs.size()) * 1e3;
  }), "ms");

  if (O.Trace) {
    auto MsCpu = [](const Round &Rd) { return Rd.CpuSec[1]; };
    R.add("bs_cpu_s", Win.medianOf([](const Round &Rd) { return Rd.CpuSec[0]; }),
          "s");
    R.add("ms_cpu_s", Win.medianOf(MsCpu), "s");
    R.add("busy_cpu_s",
          Win.medianOf([](const Round &Rd) { return Rd.CpuSec[2]; }), "s");
    R.add("ms_wall_s",
          Win.medianOf([](const Round &Rd) { return Rd.PassWallSec[1]; }),
          "s");
    R.add("ms_overhead", Win.medianOf([](const Round &Rd) {
      return ratio(Rd.CpuSec[1], Rd.CpuSec[0]);
    }), "ratio");
    R.add("trace.overhead_pct",
          (ratio(Traced.medianOf(MsCpu), Win.medianOf(MsCpu)) - 1.0) * 100.0,
          "%");
    R.add("trace.dropped", TW.counter("vm.trace.dropped"), "count");
    R.add("failed_share", ratio(R.Failed, R.Attempted), "ratio");
    addRegistryLayerMetrics(R, W);

    ProbeInputs P;
    for (const MacroBenchmark &B : macroBenchmarks()) {
      std::string Src = B.Body;
      Src.replace(Src.find("%SCALE%"), 7, "1");
      P.Sources.push_back(Src);
      P.Lines.push_back(serve::escapeLine(Src));
    }
    P.Image = Image;
    P.Dir = O.OutDir;
    runLayerProbes(R, P);
    fillMissingLayerMetrics(R);
  }
  if (R.Failed)
    R.fail(std::to_string(R.Failed) + " of " + std::to_string(R.Attempted) +
           " macro runs failed");
  return R;
}

//===-- perfbench/cpp/ServeWorkloads.cpp - serve_* workloads --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_small, serve_compute and serve_recover: an in-process
/// serve::Server with four journaled shards booted from the prewarmed
/// image, driven over loopback TCP by at most four benchmark threads on
/// four connections, one pinned to each shard.
///
/// serve_small and serve_compute are one closed loop on one thread: each
/// connection keeps a fixed window of requests outstanding and sends the
/// next one as each response arrives. serve_recover runs four bound
/// writer sessions doing seq'd increments through Client::evalRetry while
/// the writers kill their own shard in turn.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "Inputs.h"
#include "Probes.h"
#include "Stats.h"
#include "obs/TraceBuffer.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

using namespace mst;
using namespace perfbench;

namespace {

constexpr unsigned Shards = 4;
constexpr unsigned SetupRepeats = 7;
constexpr double WarmupSec = 1.0;
constexpr unsigned Slices = 20;
constexpr uint64_t CheckpointEveryMs = 250;
constexpr uint64_t KillEveryMs = 50;
constexpr size_t ProbeInputCap = 2000;
constexpr double ResponseTimeoutSec = 60.0;

enum class Kind { Small, Compute, Recover };

uint64_t nowNs() { return Telemetry::nowNs(); }

void traceSpan(const char *Name, uint64_t StartNs, uint64_t EndNs,
               uint64_t Arg) {
  if (Telemetry::tracingEnabled())
    obsdetail::recordComplete(Name, "bench", StartNs, EndNs - StartNs, Arg,
                              true);
}

/// What one measured window observed. Only operations issued inside the
/// window are attempted; all of them are answered and checked before the
/// window's telemetry is read.
struct WindowSamples {
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t Attempted = 0, Ok = 0, Failed = 0;
  /// (completion time, latency ms) of every checked OK operation.
  std::vector<std::pair<uint64_t, double>> Done;
  std::vector<double> RecoveryMs;
  std::vector<double> JournalBytesAtKill;
  uint64_t Kills = 0;
  std::vector<std::string> Errors;

  void merge(const WindowSamples &O) {
    Attempted += O.Attempted;
    Ok += O.Ok;
    Failed += O.Failed;
    Done.insert(Done.end(), O.Done.begin(), O.Done.end());
    RecoveryMs.insert(RecoveryMs.end(), O.RecoveryMs.begin(),
                      O.RecoveryMs.end());
    JournalBytesAtKill.insert(JournalBytesAtKill.end(),
                              O.JournalBytesAtKill.begin(),
                              O.JournalBytesAtKill.end());
    Kills += O.Kills;
    Errors.insert(Errors.end(), O.Errors.begin(), O.Errors.end());
  }

  void failOp(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 5)
      Errors.push_back(Why);
  }
};

/// The headline figures of a window: medians over ten equal time slices
/// of the slice's throughput and latency percentiles, so one stall moves
/// one slice and not the result.
struct Headline {
  double Rps = 0, P50 = 0, P90 = 0, P99 = 0, WholeP50 = 0;
  size_t MinSliceSamples = 0;
};

Headline headline(const WindowSamples &S) {
  std::vector<std::vector<double>> Lat(Slices);
  std::vector<double> All;
  double Span = static_cast<double>(S.EndNs - S.StartNs);
  for (const auto &[T, Ms] : S.Done) {
    All.push_back(Ms);
    if (T < S.StartNs || T >= S.EndNs)
      continue;
    Lat[static_cast<size_t>((T - S.StartNs) / Span * Slices)].push_back(Ms);
  }
  std::vector<double> Rps, P50, P90, P99;
  Headline H;
  H.MinSliceSamples = SIZE_MAX;
  for (const auto &L : Lat) {
    Rps.push_back(L.size() / (Span / 1e9 / Slices));
    P50.push_back(percentile(L, 50));
    P90.push_back(percentile(L, 90));
    P99.push_back(percentile(L, 99));
    H.MinSliceSamples = std::min(H.MinSliceSamples, L.size());
  }
  H.Rps = median(Rps);
  H.P50 = median(P50);
  H.P90 = median(P90);
  H.P99 = median(P99);
  H.WholeP50 = percentile(All, 50);
  return H;
}

// --- Raw loopback connections for the closed loop -------------------------

bool writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N > 0)
      Off += static_cast<size_t>(N);
    else if (N < 0 && errno == EINTR)
      continue;
    else
      return false;
  }
  return true;
}

struct Conn {
  struct Pending {
    uint64_t Id = 0;
    uint64_t SendNs = 0;
    CheckedOp O;
  };
  int Fd = -1;
  std::string In;
  std::string Out;    ///< lines queued since the last flush
  size_t Unsent = 0;  ///< Pend entries (at the back) behind Out
  std::deque<Pending> Pend;

  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(uint16_t Port) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr))
      return false;
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    return true;
  }

  /// Reads what is available. \returns false on close or error.
  bool fill() {
    char Buf[64 * 1024];
    for (;;) {
      ssize_t N = ::read(Fd, Buf, sizeof Buf);
      if (N > 0) {
        In.append(Buf, static_cast<size_t>(N));
        return true;
      }
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
  }

  /// Blocking round trip, for set-up only.
  bool roundTrip(const std::string &Line, bool &Ok, std::string &Value) {
    if (!writeAll(Fd, Line + "\n"))
      return false;
    std::string Resp, Tag;
    bool TooLong = false;
    while (!serve::nextLine(In, Resp, SIZE_MAX, TooLong)) {
      pollfd P{Fd, POLLIN, 0};
      if (poll(&P, 1, static_cast<int>(ResponseTimeoutSec * 1000)) <= 0 ||
          !fill())
        return false;
    }
    return serve::parseResponseLine(Resp, Ok, Tag, Value);
  }

  bool flush() {
    if (Out.empty())
      return true;
    uint64_t Now = nowNs();
    for (size_t I = Pend.size() - Unsent; I < Pend.size(); ++I)
      Pend[I].SendNs = Now;
    Unsent = 0;
    bool Ok = writeAll(Fd, Out);
    Out.clear();
    return Ok;
  }
};

/// The single-threaded closed loop of serve_small and serve_compute.
class ClosedLoop {
public:
  ClosedLoop(std::deque<Conn> &Conns, std::function<CheckedOp()> Next,
             unsigned Window)
      : Conns(Conns), Next(std::move(Next)), Window(Window) {}

  /// Runs for \p Seconds, then stops issuing and drains. \p S receives
  /// the samples; \p Lines, when non-null, the first request lines.
  /// \returns false on a transport failure (reported in S.Errors).
  bool run(double Seconds, WindowSamples &S,
           std::vector<std::string> *Lines = nullptr) {
    S.StartNs = nowNs();
    S.EndNs = S.StartNs + static_cast<uint64_t>(Seconds * 1e9);
    bool Issuing = true;
    for (Conn &C : Conns)
      for (unsigned I = 0; I < Window; ++I)
        issue(C, S, Lines);
    for (Conn &C : Conns)
      if (!C.flush())
        return transport(S, "write failed");
    std::vector<pollfd> Fds;
    for (Conn &C : Conns)
      Fds.push_back({C.Fd, POLLIN, 0});
    uint64_t LastProgress = nowNs();
    for (;;) {
      uint64_t Now = nowNs();
      if (Issuing && Now >= S.EndNs)
        Issuing = false;
      bool Outstanding = false;
      for (Conn &C : Conns)
        Outstanding = Outstanding || !C.Pend.empty();
      if (!Outstanding)
        return true;
      if (Now - LastProgress > ResponseTimeoutSec * 1e9)
        return transport(S, "no response within timeout");
      if (poll(Fds.data(), Fds.size(), 100) < 0 && errno != EINTR)
        return transport(S, "poll failed");
      for (size_t I = 0; I < Fds.size(); ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Conn &C = Conns[I];
        if (!C.fill())
          return transport(S, "connection closed by server");
        std::string Line;
        bool TooLong = false;
        while (serve::nextLine(C.In, Line, SIZE_MAX, TooLong)) {
          uint64_t DoneNs = nowNs();
          if (C.Pend.empty())
            return transport(S, "unsolicited response: " + Line);
          Conn::Pending P = std::move(C.Pend.front());
          C.Pend.pop_front();
          bool Ok = false;
          std::string Tag, Value;
          bool Parsed = serve::parseResponseLine(Line, Ok, Tag, Value);
          if (Parsed && checkValue(P.O, Ok, Value)) {
            ++S.Ok;
            S.Done.push_back({DoneNs, (DoneNs - P.SendNs) / 1e6});
          } else {
            S.failOp("'" + P.O.Source + "' answered '" + Line +
                     "', expected " + P.O.Expected);
          }
          traceSpan("bench.request", P.SendNs, DoneNs, P.Id);
          LastProgress = DoneNs;
          if (Issuing)
            issue(C, S, Lines);
        }
      }
      for (Conn &C : Conns)
        if (!C.flush())
          return transport(S, "write failed");
    }
  }

private:
  void issue(Conn &C, WindowSamples &S, std::vector<std::string> *Lines) {
    CheckedOp O = Next();
    std::string Line = serve::escapeLine(O.Source);
    if (Lines && Lines->size() < ProbeInputCap)
      Lines->push_back(Line);
    C.Out += Line + "\n";
    C.Pend.push_back({NextId++, 0, std::move(O)});
    ++C.Unsent;
    ++S.Attempted;
  }

  bool transport(WindowSamples &S, const std::string &Why) {
    S.Errors.push_back("transport: " + Why);
    return false;
  }

  std::deque<Conn> &Conns;
  std::function<CheckedOp()> Next;
  unsigned Window;
  uint64_t NextId = 1;
};

// --- serve_recover writers -------------------------------------------------

struct Writer {
  serve::Client C;
  unsigned Shard = 0;
  uint64_t ClientId = 0;
  std::string Var;
  uint64_t Acked = 0; ///< increments acknowledged with the expected value
};

/// One writer's share of a window: seq'd increments, and (when \p Kills)
/// a `!kill` of its own shard every Shards * KillEveryMs, offset so the
/// kills go round-robin over the shards every KillEveryMs.
void writerWindow(Writer &W, serve::Server &Srv, uint64_t StartNs,
                  double Seconds, bool Kills, WindowSamples &S,
                  std::vector<std::string> *Lines) {
  S.StartNs = StartNs;
  S.EndNs = StartNs + static_cast<uint64_t>(Seconds * 1e9);
  uint64_t NextKill = StartNs + W.Shard * KillEveryMs * 1000000;
  bool Recovering = false;
  uint64_t KillNs = 0;
  while (nowNs() < S.EndNs) {
    if (Kills && nowNs() >= NextKill) {
      S.JournalBytesAtKill.push_back(
          static_cast<double>(Srv.pool().health()[W.Shard].JournalBytes));
      KillNs = nowNs();
      std::string Line, Tag, Value;
      bool Ok = false;
      if (!W.C.sendLine("!kill " + std::to_string(W.Shard)) ||
          !W.C.recvLine(Line, ResponseTimeoutSec) ||
          !serve::parseResponseLine(Line, Ok, Tag, Value) || !Ok) {
        S.Errors.push_back("transport: !kill " + std::to_string(W.Shard) +
                           " answered '" + Line + "'");
        return;
      }
      ++S.Kills;
      Recovering = true;
      NextKill += Shards * KillEveryMs * 1000000;
    }
    CheckedOp O = incrementOp(W.Var, W.Acked + 1);
    if (Lines && Lines->size() < ProbeInputCap)
      Lines->push_back("@?seq=" + std::to_string(W.Acked + 1) + " " +
                       serve::escapeLine(O.Source));
    ++S.Attempted;
    uint64_t T0 = nowNs();
    bool Ok = false;
    std::string Value;
    if (!W.C.evalRetry(O.Source, Ok, Value, ResponseTimeoutSec, 12, 10)) {
      S.failOp("increment of " + W.Var + ": transport failure");
      S.Errors.push_back("transport: writer " + W.Var + " lost its server");
      return;
    }
    uint64_t DoneNs = nowNs();
    traceSpan("bench.request", T0, DoneNs, W.ClientId);
    if (!checkValue(O, Ok, Value)) {
      S.failOp("increment of " + W.Var + " answered '" + Value +
               "', expected " + O.Expected);
      continue;
    }
    ++W.Acked;
    ++S.Ok;
    S.Done.push_back({DoneNs, (DoneNs - T0) / 1e6});
    if (Recovering) {
      S.RecoveryMs.push_back((DoneNs - KillNs) / 1e6);
      traceSpan("bench.recovery", KillNs, DoneNs, W.Shard);
      Recovering = false;
    }
  }
}

// --- The workload ----------------------------------------------------------

class ServeBench {
public:
  ServeBench(const Options &O, Kind K) : O(O), K(K) {
    Window = K == Kind::Small ? 32 : (K == Kind::Compute ? 8 : 1);
    if (K == Kind::Small) {
      auto G = std::make_shared<SmallInputs>(O.Seed);
      Next = [G] { return G->next(); };
    } else if (K == Kind::Compute) {
      auto G = std::make_shared<ComputeInputs>(O.Seed);
      Next = [G] { return G->next(); };
    }
  }

  Result run();

private:
  bool setupOnce(Result &R);
  void teardown();
  bool window(double Seconds, WindowSamples &S, bool Record);
  void reportHeadline(Result &R, const WindowSamples &S,
                      const TelemetryWindow &W);

  const Options &O;
  Kind K;
  unsigned Window;
  std::function<CheckedOp()> Next;
  std::string Image, DataDir;
  std::unique_ptr<serve::Server> Srv;
  std::deque<Conn> Conns;     // serve_small / serve_compute
  std::deque<Writer> Writers; // serve_recover
  std::vector<std::pair<uint64_t, uint64_t>> Boots; // set-up spans
  std::vector<std::string> ProbeLines;
};

bool ServeBench::setupOnce(Result &R) {
  std::filesystem::remove_all(DataDir);
  std::filesystem::create_directories(DataDir);
  std::string Err = prewarmImage(Image);
  if (!Err.empty()) {
    R.fail("prewarm: " + Err);
    return false;
  }
  serve::ServerConfig C;
  C.Pool.Shards = Shards;
  C.Pool.BaseImage = Image;
  C.Pool.DataDir = DataDir;
  C.Pool.Journal = true;
  C.Pool.Vm = VmConfig::multiprocessor(1);
  C.Pool.CheckpointEveryMs = K == Kind::Recover ? CheckpointEveryMs : 0;
  Srv = std::make_unique<serve::Server>(C);
  if (!Srv->start(Err)) {
    R.fail("server start: " + Err);
    return false;
  }
  // Four connections, one per shard: a connection's shard is its session
  // id mod 4, read back through the shard's own #ShardId.
  for (unsigned I = 0; I < Shards; ++I) {
    bool Ok = false;
    std::string Value;
    if (K == Kind::Recover) {
      Writer &W = Writers.emplace_back();
      W.Shard = I;
      W.ClientId = 4000 + I;
      W.Var = "#D" + std::to_string(W.ClientId);
      if (!W.C.connect(Srv->port()) || !W.C.bindSession(W.ClientId) ||
          !W.C.eval("Smalltalk at: #ShardId", Ok, Value) || !Ok ||
          Value != std::to_string(I) ||
          !W.C.evalRetry("Smalltalk at: " + W.Var + " put: 0", Ok, Value) ||
          !Ok || Value != "0") {
        R.fail("writer " + std::to_string(I) + " set-up: " + Value);
        return false;
      }
    } else {
      Conn &C = Conns.emplace_back();
      if (!C.connect(Srv->port()) ||
          !C.roundTrip("Smalltalk at: #ShardId", Ok, Value) || !Ok ||
          Value != std::to_string(I)) {
        R.fail("connection " + std::to_string(I) + " not pinned: " + Value);
        return false;
      }
    }
  }
  return true;
}

void ServeBench::teardown() {
  Conns.clear();
  for (Writer &W : Writers)
    W.C.disconnect();
  Writers.clear();
  if (Srv)
    Srv->stop();
  Srv.reset();
}

/// Runs one window. \p Record marks a measured window: it keeps the first
/// request lines for the probes and, on serve_recover, kills shards.
bool ServeBench::window(double Seconds, WindowSamples &S, bool Record) {
  std::vector<std::string> *Lines =
      Record && ProbeLines.empty() ? &ProbeLines : nullptr;
  if (K != Kind::Recover) {
    ClosedLoop Loop(Conns, Next, Window);
    return Loop.run(Seconds, S, Lines);
  }
  // One thread per writer; this thread drives writer 0.
  uint64_t Start = nowNs();
  std::vector<WindowSamples> Per(Writers.size());
  std::vector<std::thread> Threads;
  for (size_t I = 1; I < Writers.size(); ++I)
    Threads.emplace_back([&, I] {
      writerWindow(Writers[I], *Srv, Start, Seconds, Record, Per[I],
                   nullptr);
    });
  writerWindow(Writers[0], *Srv, Start, Seconds, Record, Per[0], Lines);
  for (std::thread &T : Threads)
    T.join();
  for (const WindowSamples &P : Per)
    S.merge(P);
  S.StartNs = Start;
  S.EndNs = Start + static_cast<uint64_t>(Seconds * 1e9);
  for (const std::string &E : S.Errors)
    if (E.rfind("transport:", 0) == 0)
      return false;
  return true;
}

void ServeBench::reportHeadline(Result &R, const WindowSamples &S,
                                const TelemetryWindow &W) {
  Headline H = headline(S);
  R.add("throughput_rps", H.Rps, "req/s");
  R.add("latency_p50_ms", H.P50, "ms");
  R.add("latency_p90_ms", H.P90, "ms");
  R.add("latency_p99_ms", H.P99, "ms");
  R.add("cpu_ms_per_req", ratio(W.cpuSec() * 1e3, S.Ok), "ms");
  if (!resolvable(H.MinSliceSamples, 99))
    R.Notes.push_back("p99 rests on fewer than 10 samples beyond it in "
                      "some slice (" +
                      std::to_string(H.MinSliceSamples) + " samples)");
}

Result ServeBench::run() {
  Result R;
  Image = O.OutDir + "/prewarmed.image";
  DataDir = O.OutDir + "/data";
  R.shape("shards", Shards);
  R.shape("connections", Shards);
  R.shape("window_per_connection", Window);
  R.shape("journal", "on");
  R.shape("checkpoint_every_ms",
          K == Kind::Recover ? double(CheckpointEveryMs) : 0.0);
  R.shape("kill_every_ms", K == Kind::Recover ? double(KillEveryMs) : 0.0);
  R.shape("template_pool", K == Kind::Compute ? ComputeInputs::PoolSize : 0);
  R.shape("repeat_share", K == Kind::Compute ? 0.5 : 0.0);
  R.shape("setup_repeats", SetupRepeats);
  R.shape("warmup_s", WarmupSec);

  // Set up several times and report the median; the last one serves.
  std::vector<double> SetupSec;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    teardown();
    uint64_t T0 = nowNs();
    if (!setupOnce(R)) {
      teardown();
      return R;
    }
    Boots.push_back({T0, nowNs()});
    SetupSec.push_back((Boots.back().second - T0) / 1e9);
  }
  R.add("setup_s", median(SetupSec), "s");

  WindowSamples Warm;
  bool WarmOk = window(WarmupSec, Warm, false);
  for (const std::string &E : Warm.Errors)
    R.fail("warm-up: " + E);
  if (!WarmOk) {
    teardown();
    return R;
  }

  double Measured = O.Trace ? O.Seconds / 2 : O.Seconds;
  WindowSamples S, Traced;
  TelemetryWindow W, TW;
  W.begin();
  bool Ok = window(Measured, S, true);
  W.end();
  if (Ok && O.Trace) {
    clearTrace();
    Telemetry::setTracingEnabled(true);
    TW.begin();
    Ok = window(Measured, Traced, true);
    TW.end();
    for (const auto &[B, E] : Boots)
      obsdetail::recordComplete("bench.boot", "bench", B, E - B, 0, false);
    Telemetry::setTracingEnabled(false);
    if (!writeChromeTrace(tracePath(O)))
      R.fail("cannot write " + tracePath(O));
  }
  WindowSamples All = S;
  All.merge(Traced);
  R.Attempted = All.Attempted;
  R.Failed = All.Failed;
  for (const std::string &E : All.Errors)
    R.fail(E);
  if (All.Ok + All.Failed != All.Attempted)
    R.fail("accounting: " + std::to_string(All.Attempted) + " attempted, " +
           std::to_string(All.Ok + All.Failed) + " answered");
  if (All.Ok == 0)
    R.fail("no operation succeeded");

  // serve_recover's end check: every acknowledged increment applied once.
  if (K == Kind::Recover && Ok) {
    uint64_t Lost = 0, Doubled = 0;
    for (Writer &Wr : Writers) {
      bool ValOk = false;
      std::string Value;
      if (!Wr.C.evalRetry("Smalltalk at: " + Wr.Var, ValOk, Value,
                          ResponseTimeoutSec) ||
          !ValOk) {
        R.fail("final read of " + Wr.Var + " failed: " + Value);
        continue;
      }
      uint64_t V = std::strtoull(Value.c_str(), nullptr, 10);
      Lost += V < Wr.Acked ? Wr.Acked - V : 0;
      Doubled += V > Wr.Acked ? V - Wr.Acked : 0;
    }
    R.shape("lost_increments", double(Lost));
    R.shape("double_applied_increments", double(Doubled));
    if (Lost || Doubled)
      R.fail(std::to_string(Lost) + " acknowledged increments lost, " +
             std::to_string(Doubled) + " applied twice");
  }

  // The headline figures come from the untraced window only, and the
  // server must have counted exactly the window's requests.
  reportHeadline(R, S, W);
  uint64_t Requests = W.counter("serve.requests");
  if (Ok && Requests != S.Attempted)
    R.fail("window accounting: serve.requests counted " +
           std::to_string(Requests) + " for " + std::to_string(S.Attempted) +
           " requests sent");

  if (O.Trace) {
    Headline Hu = headline(S), Ht = headline(Traced);
    R.add("trace.overhead_pct", (ratio(Hu.Rps, Ht.Rps) - 1.0) * 100.0, "%");
    R.add("trace.dropped", TW.counter("vm.trace.dropped"), "count");

    double Req = static_cast<double>(Requests);
    auto Lat = W.histogram("serve.latency");
    R.add("serve.frontend_p50_ms", Hu.WholeP50 - Lat.P50 / 1e6, "ms");
    auto Batch = W.histogram("serve.batch.size");
    R.add("serve.batch_size_p50", Batch.P50, "count");
    R.add("serve.batch_size_p95", Batch.P95, "count");
    R.add("serve.batches_per_req", ratio(W.counter("serve.batches"), Req),
          "ratio");
    auto Wait = W.histogram("serve.queue.wait");
    R.add("serve.queue_wait_p50_ms", Wait.P50 / 1e6, "ms");
    R.add("serve.queue_wait_p99_ms", Wait.P99 / 1e6, "ms");
    R.add("serve.shed", W.counter("serve.shed"), "count");
    double Fsyncs = static_cast<double>(W.counter("serve.journal.fsyncs"));
    R.add("journal.fsyncs_per_req", ratio(Fsyncs, Req), "ratio");
    R.add("journal.appends_per_req",
          ratio(W.counter("serve.journal.appends"), Req), "ratio");
    R.add("serve.dedup_hits", W.counter("serve.dedup.hits"), "count");
    addRegistryLayerMetrics(R, W);
    R.add("failed_share", ratio(All.Failed, All.Attempted), "ratio");

    if (K == Kind::Recover) {
      // Recovery figures over both halves, which kill on the same
      // schedule.
      R.add("recovery_p50_ms", percentile(All.RecoveryMs, 50), "ms");
      R.add("recovery_p90_ms", percentile(All.RecoveryMs, 90), "ms");
      if (!resolvable(All.RecoveryMs.size(), 90))
        R.Notes.push_back("recovery p90 rests on " +
                          std::to_string(All.RecoveryMs.size()) + " kills");
      R.add("journal.bytes_at_kill_p50",
            percentile(All.JournalBytesAtKill, 50), "B");
      R.add("journal.replayed_per_kill",
            ratio(W.counter("serve.replayed") + TW.counter("serve.replayed"),
                  All.Kills),
            "count");
      auto Pause = W.histogram("img.save.pause");
      R.add("img.save_pause_p50_ms", Pause.P50 / 1e6, "ms");
      R.add("img.save_pause_p99_ms", Pause.P99 / 1e6, "ms");
      R.add("img.save_bytes",
            ratio(W.counter("img.save.bytes"),
                  W.counter("img.save.snapshots")),
            "B");
    }

    ProbeInputs P;
    for (const Writer &Wr : Writers)
      P.Setup.push_back("Smalltalk at: " + Wr.Var + " put: 0");
    teardown();
    P.Lines = ProbeLines;
    for (const std::string &L : ProbeLines) {
      serve::Request Q = serve::parseRequestLine(L);
      P.Sources.push_back(Q.Source);
    }
    P.BatchSize = std::max<size_t>(1, static_cast<size_t>(Batch.P50));
    P.Image = Image;
    P.Dir = O.OutDir;
    P.ProbeSaves = K != Kind::Recover;
    runLayerProbes(R, P);
    R.add("journal.time_share",
          ratio(Fsyncs * R.value("journal.sync_us_p50") / 1e6,
                Shards * W.seconds()),
          "ratio");
    fillMissingLayerMetrics(R);
  } else {
    teardown();
  }
  if (R.Failed)
    R.fail(std::to_string(R.Failed) + " of " + std::to_string(R.Attempted) +
           " operations failed");
  return R;
}

} // namespace

Result perfbench::runServeWorkload(const Options &O) {
  Kind K = O.Workload == "serve_small"     ? Kind::Small
           : O.Workload == "serve_compute" ? Kind::Compute
                                           : Kind::Recover;
  ServeBench B(O, K);
  return B.run();
}

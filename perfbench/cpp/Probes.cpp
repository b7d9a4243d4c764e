//===-- perfbench/cpp/Probes.cpp - Direct layer probes --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include <cstdio>
#include <thread>

#include "Stats.h"
#include "image/Snapshot.h"
#include "serve/Journal.h"
#include "serve/Protocol.h"
#include "vkernel/IpcChannel.h"
#include "vm/Compiler.h"
#include "vm/VirtualMachine.h"

using namespace mst;
using namespace perfbench;

namespace {

void probeProtocol(Result &R, const std::vector<std::string> &Lines) {
  if (Lines.empty())
    return;
  size_t Ops = 0;
  size_t Sink = 0;
  double T0 = nowSec();
  // At least 50k lines or 0.2 s, whichever is later.
  while (Ops < 50000 || nowSec() - T0 < 0.2) {
    for (const std::string &L : Lines) {
      std::string Buf = L + "\n", Line;
      bool TooLong = false;
      serve::nextLine(Buf, Line, 64 * 1024, TooLong);
      serve::Request Q = serve::parseRequestLine(Line);
      Sink += serve::formatResponse(true, Q.Tag, Q.Source).size();
      ++Ops;
    }
  }
  double Elapsed = nowSec() - T0;
  R.add("serve.protocol_ns_per_req", Elapsed / Ops * 1e9, "ns");
  if (Sink == 0)
    std::fprintf(stderr, "perfbench: protocol probe produced nothing\n");
}

void probeJournal(Result &R, const ProbeInputs &In) {
  std::string Path = In.Dir + "/probe.journal";
  std::remove(Path.c_str());
  serve::Journal J;
  std::string Err;
  if (!J.open(Path, Err)) {
    R.fail("journal probe: " + Err);
    return;
  }
  std::vector<double> SyncUs;
  size_t Src = 0;
  for (int Batch = 0; Batch < 300; ++Batch) {
    for (size_t I = 0; I < In.BatchSize; ++I) {
      const std::string &S = In.Sources[Src++ % In.Sources.size()];
      uint64_t Id = 0;
      if (!J.appendIntent(0, 0, false, S, Id, Err) ||
          !J.appendOutcome(Id, 0, 0, false, serve::Journal::Outcome::Executed,
                           true, "0", Err)) {
        R.fail("journal probe: " + Err);
        return;
      }
    }
    double T0 = nowSec();
    if (!J.sync(Err)) {
      R.fail("journal probe: " + Err);
      return;
    }
    SyncUs.push_back((nowSec() - T0) * 1e6);
  }
  J.close();
  std::remove(Path.c_str());
  R.add("journal.sync_us_p50", percentile(SyncUs, 50), "us");
  R.add("journal.sync_us_p99", percentile(SyncUs, 99), "us");
}

void probeIpc(Result &R) {
  IpcChannel C;
  const uint64_t Stop = 0;
  std::thread Receiver([&] {
    for (;;) {
      uint64_t Req = 0;
      IpcChannel::MessageHandle H = C.receive(Req);
      if (!H)
        return;
      C.reply(H, Req + 1);
      if (Req == Stop)
        return;
    }
  });
  const uint64_t N = 20000;
  uint64_t Bad = 0;
  double T0 = nowSec();
  for (uint64_t I = 1; I <= N; ++I)
    Bad += C.send(I) != I + 1;
  double Elapsed = nowSec() - T0;
  C.send(Stop);
  Receiver.join();
  if (Bad)
    R.fail("ipc probe: " + std::to_string(Bad) + " wrong replies");
  R.add("ipc.roundtrip_us", Elapsed / N * 1e6, "us");
}

std::string doItSource(const std::string &S) {
  // VirtualMachine::evaluate's own wrapping, so compile times the same
  // method evaluate compiles.
  if (!S.empty() && (S[0] == '^' || S[0] == '|'))
    return S;
  return "^(" + S + ") printString";
}

void probeVmAndImage(Result &R, const ProbeInputs &In) {
  std::vector<double> LoadMs;
  for (int I = 0; I < 10; ++I) {
    VirtualMachine V(VmConfig::multiprocessor(1));
    std::string Err;
    double T0 = nowSec();
    bool Ok = loadSnapshot(V, In.Image, Err);
    LoadMs.push_back((nowSec() - T0) * 1e3);
    V.shutdown();
    if (!Ok) {
      R.fail("image probe: " + Err);
      return;
    }
  }
  R.add("img.load_ms_p50", percentile(LoadMs, 50), "ms");

  VirtualMachine VM(VmConfig::multiprocessor(1));
  std::string Err;
  if (!loadSnapshot(VM, In.Image, Err)) {
    R.fail("vm probe: " + Err);
    return;
  }
  for (const std::string &S : In.Setup)
    VM.evaluate(S);
  size_t N = std::min<size_t>(In.Sources.size(), 400);
  for (size_t I = 0; I < N; ++I) // warm the caches
    VM.evaluate(In.Sources[I]);
  std::vector<double> EvalUs, CompileUs, InterpUs;
  for (size_t I = 0; I < N; ++I) {
    double T0 = nowSec();
    VirtualMachine::EvalResult E = VM.evaluate(In.Sources[I]);
    double T1 = nowSec();
    CompileResult C = compileDoItSource(
        VM.model(), VM.model().known().ClassUndefinedObject,
        doItSource(In.Sources[I]));
    double T2 = nowSec();
    if (!E.Ok || !C.ok()) {
      R.fail("vm probe: '" + In.Sources[I] + "' -> " + E.Value + C.Error);
      break;
    }
    EvalUs.push_back((T1 - T0) * 1e6);
    CompileUs.push_back((T2 - T1) * 1e6);
    InterpUs.push_back((T1 - T0 - (T2 - T1)) * 1e6);
  }
  R.add("vm.eval_us_p50", percentile(EvalUs, 50), "us");
  R.add("vm.compile_us_p50", percentile(CompileUs, 50), "us");
  R.add("vm.interpret_us_p50", percentile(InterpUs, 50), "us");

  if (In.ProbeSaves) {
    TelemetryWindow W;
    W.begin();
    const int Saves = 10;
    std::string Path = In.Dir + "/probe-save.image";
    for (int I = 0; I < Saves; ++I)
      if (!saveSnapshot(VM, Path, Err)) {
        R.fail("image save probe: " + Err);
        break;
      }
    W.end();
    std::remove(Path.c_str());
    auto Pause = W.histogram("img.save.pause");
    R.add("img.save_pause_p50_ms", Pause.P50 / 1e6, "ms");
    R.add("img.save_pause_p99_ms", Pause.P99 / 1e6, "ms");
    R.add("img.save_bytes",
          ratio(W.counter("img.save.bytes"), W.counter("img.save.snapshots")),
          "B");
  }
  VM.shutdown();
}

} // namespace

void perfbench::runLayerProbes(Result &R, const ProbeInputs &In) {
  probeProtocol(R, In.Lines);
  if (!In.Sources.empty())
    probeJournal(R, In);
  probeIpc(R);
  if (!In.Sources.empty())
    probeVmAndImage(R, In);
}

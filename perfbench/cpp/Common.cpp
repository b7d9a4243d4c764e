//===-- perfbench/cpp/Common.cpp - Shared benchmark plumbing --------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <sys/resource.h>

#include "Stats.h"

using namespace mst;
using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

void Result::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

double Result::value(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0.0;
}

void Result::shape(const std::string &Key, double Value) {
  shape(Key, jsonNumber(Value));
}

void Result::fail(const std::string &Why) {
  Correct = false;
  Notes.push_back(Why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
}

std::string Result::toJson() const {
  std::string Out = "{\"correct\":";
  Out += Correct ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(Metrics[I].Name) + ":{\"value\":" +
           jsonNumber(Metrics[I].Value) +
           ",\"unit\":" + jsonString(Metrics[I].Unit) + "}";
  }
  Out += "},\"shape\":{";
  for (size_t I = 0; I < Shape.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(Shape[I].first) + ":" + jsonString(Shape[I].second);
  }
  Out += "},\"notes\":[";
  for (size_t I = 0; I < Notes.size(); ++I) {
    if (I)
      Out += ',';
    Out += jsonString(Notes[I]);
  }
  return Out + "]}";
}

double perfbench::processCpuSec() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

void TelemetryWindow::begin() {
  Telemetry::resetAll();
  Begin = Telemetry::snapshot();
  BeginCpu = processCpuSec();
  BeginSec = nowSec();
}

void TelemetryWindow::end() {
  EndSec = nowSec();
  EndCpu = processCpuSec();
  End = Telemetry::snapshot();
}

namespace {
uint64_t counterIn(const Telemetry::Snapshot &S, const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}
} // namespace

void TelemetryWindow::vmBegin() { VmStart = Telemetry::snapshot(); }

void TelemetryWindow::vmEnd() {
  PerVm = true;
  Telemetry::Snapshot S = Telemetry::snapshot();
  for (const auto &[N, V] : S.Counters) {
    uint64_t B = counterIn(VmStart, N);
    VmCounters[N] += V > B ? V - B : 0;
  }
  for (const auto &H : S.Histograms)
    VmHistograms[H.Name].push_back(H);
}

uint64_t TelemetryWindow::counter(const std::string &Name) const {
  if (PerVm) {
    auto It = VmCounters.find(Name);
    return It == VmCounters.end() ? 0 : It->second;
  }
  uint64_t B = 0, E = 0;
  for (const auto &[N, V] : Begin.Counters)
    if (N == Name)
      B = V;
  for (const auto &[N, V] : End.Counters)
    if (N == Name)
      E = V;
  return E > B ? E - B : 0;
}

Telemetry::HistogramSummary
TelemetryWindow::histogram(const std::string &Name) const {
  if (PerVm) {
    Telemetry::HistogramSummary Out;
    auto It = VmHistograms.find(Name);
    if (It == VmHistograms.end())
      return Out;
    std::vector<double> P50, P95, P99;
    for (const auto &H : It->second) {
      if (H.Count == 0)
        continue;
      Out.Count += H.Count;
      P50.push_back(H.P50);
      P95.push_back(H.P95);
      P99.push_back(H.P99);
    }
    Out.Name = Name;
    Out.P50 = static_cast<uint64_t>(median(P50));
    Out.P95 = static_cast<uint64_t>(median(P95));
    Out.P99 = static_cast<uint64_t>(median(P99));
    return Out;
  }
  for (const auto &H : End.Histograms)
    if (H.Name == Name)
      return H;
  return {};
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = [] {
    std::vector<std::pair<std::string, std::string>> N = {
        // front-end
        {"serve.frontend_p50_ms", "ms"},
        {"serve.protocol_ns_per_req", "ns"},
        // batcher
        {"serve.batch_size_p50", "count"},
        {"serve.batch_size_p95", "count"},
        {"serve.batches_per_req", "ratio"},
        {"serve.queue_wait_p50_ms", "ms"},
        {"serve.queue_wait_p99_ms", "ms"},
        {"serve.shed", "count"},
        // journal
        {"journal.fsyncs_per_req", "ratio"},
        {"journal.appends_per_req", "ratio"},
        {"journal.sync_us_p50", "us"},
        {"journal.sync_us_p99", "us"},
        {"journal.time_share", "ratio"},
        {"journal.bytes_at_kill_p50", "B"},
        {"journal.replayed_per_kill", "count"},
        {"serve.dedup_hits", "count"},
        // IPC (the span-derived ones come from run.py)
        {"ipc.roundtrip_us", "us"},
        // VM
        {"vm.eval_us_p50", "us"},
        {"vm.compile_us_p50", "us"},
        {"vm.interpret_us_p50", "us"},
        {"vm.methodcache_hit_ratio", "ratio"},
        {"vm.methodcache_misses", "count"},
        {"vm.freectx_reuse_ratio", "ratio"},
        {"vm.sched_picks", "count"},
        {"vm.sched_yields", "count"},
        // object memory
        {"gc.scavenges", "count"},
        {"gc.scavenge_pause_p50_us", "us"},
        {"gc.scavenge_pause_p99_us", "us"},
        {"gc.safepoint_rendezvous_p99_us", "us"},
        {"gc.bytes_copied", "B"},
        {"gc.bytes_tenured", "B"},
        {"gc.full_collections", "count"},
    };
    for (const char *L : {"alloc", "freectx", "sched", "symtab", "oldspace",
                          "dictwrite", "remset"}) {
      N.push_back({std::string("lock.") + L + ".contended_ratio", "ratio"});
      N.push_back({std::string("lock.") + L + ".delays", "count"});
    }
    for (std::pair<std::string, std::string> P :
         std::vector<std::pair<std::string, std::string>>{
             // image
             {"img.load_ms_p50", "ms"},
             {"img.save_pause_p50_ms", "ms"},
             {"img.save_pause_p99_ms", "ms"},
             {"img.save_bytes", "B"},
             // tracing itself
             {"trace.overhead_pct", "%"},
             {"trace.dropped", "count"},
             // workload headline figures (see README.md)
             {"latency_p99_ms", "ms"},
             {"recovery_p50_ms", "ms"},
             {"recovery_p90_ms", "ms"},
             {"bs_cpu_s", "s"},
             {"ms_cpu_s", "s"},
             {"busy_cpu_s", "s"},
             {"ms_wall_s", "s"},
             {"ms_overhead", "ratio"},
             {"failed_share", "ratio"},
         })
      N.push_back(P);
    return N;
  }();
  return Names;
}

void perfbench::fillMissingLayerMetrics(Result &R) {
  for (const auto &[Name, Unit] : layerMetricNames())
    if (R.value(Name) == 0.0)
      R.add(Name, 0.0, Unit);
}

void perfbench::addRegistryLayerMetrics(Result &R, const TelemetryWindow &W) {
  double Hits = static_cast<double>(W.counter("methodcache.hits"));
  double Misses = static_cast<double>(W.counter("methodcache.misses"));
  R.add("vm.methodcache_hit_ratio", ratio(Hits, Hits + Misses), "ratio");
  R.add("vm.methodcache_misses", Misses, "count");
  R.add("vm.freectx_reuse_ratio",
        ratio(W.counter("freectx.reuses"), W.counter("freectx.returns")),
        "ratio");
  R.add("vm.sched_picks", W.counter("sched.picks"), "count");
  R.add("vm.sched_yields", W.counter("sched.yields"), "count");

  R.add("gc.scavenges", W.counter("gc.scavenges"), "count");
  auto Pause = W.histogram("gc.scavenge.pause");
  R.add("gc.scavenge_pause_p50_us", Pause.P50 / 1e3, "us");
  R.add("gc.scavenge_pause_p99_us", Pause.P99 / 1e3, "us");
  R.add("gc.safepoint_rendezvous_p99_us",
        W.histogram("gc.safepoint.rendezvous").P99 / 1e3, "us");
  R.add("gc.bytes_copied", W.counter("gc.bytes.copied"), "B");
  R.add("gc.bytes_tenured", W.counter("gc.bytes.tenured"), "B");
  R.add("gc.full_collections", W.counter("gc.full.collections"), "count");

  for (const char *L : {"alloc", "freectx", "sched", "symtab", "oldspace",
                        "dictwrite", "remset"}) {
    std::string P = std::string("lock.") + L;
    R.add(P + ".contended_ratio",
          ratio(W.counter(P + ".contended"), W.counter(P + ".acquisitions")),
          "ratio");
    R.add(P + ".delays", W.counter(P + ".delays"), "count");
  }
}

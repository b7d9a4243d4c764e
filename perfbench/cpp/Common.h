//===-- perfbench/cpp/Common.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options, the result record that
/// becomes the JSON line, the telemetry window (registry deltas over the
/// measured interval only), clocks, and the per-layer metrics read from
/// the registry that every workload reports the same way.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/Telemetry.h"

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory for everything a run writes: data dirs, images, the trace.
  std::string OutDir;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// One run's outcome. Operations are the workload's checked units of work
/// (requests, increments, macro-benchmark runs); a failed one is any that
/// did not end in an OK answer with the expected value.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// The workload's shape, for the reproducibility record.
  std::vector<std::pair<std::string, std::string>> Shape;
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit);
  /// The value of metric \p Name, or 0 when it was not added.
  double value(const std::string &Name) const;
  void shape(const std::string &Key, const std::string &Value) {
    Shape.emplace_back(Key, Value);
  }
  void shape(const std::string &Key, double Value);
  /// Marks the run incorrect and records why.
  void fail(const std::string &Why);
  std::string toJson() const;
};

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Processor seconds used by the whole process so far (all threads).
double processCpuSec();

/// Registry deltas over one measured interval. begin() zeroes the
/// registry (call it with the workload quiesced, between warm-up and the
/// window), so histograms cover the window alone; counters are read as
/// end minus begin.
///
/// A VM's counters and histograms leave the registry with the VM. A
/// window whose VMs are built and destroyed inside it brackets each VM's
/// measured life with vmBegin()/vmEnd() instead: counters then sum the
/// per-VM deltas, and a histogram percentile is the median of the
/// percentiles of the VMs that recorded any sample.
class TelemetryWindow {
public:
  void begin();
  void end();
  void vmBegin();
  void vmEnd();

  double seconds() const { return EndSec - BeginSec; }
  double cpuSec() const { return EndCpu - BeginCpu; }
  uint64_t counter(const std::string &Name) const;
  /// The window's histogram summary, or an empty one.
  mst::Telemetry::HistogramSummary histogram(const std::string &Name) const;

private:
  mst::Telemetry::Snapshot Begin, End, VmStart;
  bool PerVm = false;
  std::map<std::string, uint64_t> VmCounters;
  std::map<std::string, std::vector<mst::Telemetry::HistogramSummary>>
      VmHistograms;
  double BeginSec = 0, EndSec = 0, BeginCpu = 0, EndCpu = 0;
};

/// The per-layer metrics every workload reads from the registry the same
/// way: VM caches and scheduler, object memory, and the spin locks.
void addRegistryLayerMetrics(Result &R, const TelemetryWindow &W);

/// Names and units of every per-layer metric the C++ side reports (the
/// trace-derived ones are added by run.py). Workloads that do not
/// exercise a layer report it as 0 via fillMissingLayerMetrics.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();
void fillMissingLayerMetrics(Result &R);

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace perfbench

#endif // PERFBENCH_COMMON_H

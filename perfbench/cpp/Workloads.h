//===-- perfbench/cpp/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (see README.md for their shapes and why each one
/// exists). Each sets itself up several times and reports the median
/// set-up time, warms up untimed, then measures for Options::Seconds.
/// With Options::Trace the time is split: an untraced half gives the
/// registry deltas and the tracing baseline, a traced half gives the
/// Chrome trace, and the layer probes run after both.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "Common.h"

namespace perfbench {

/// serve_small, serve_compute and serve_recover.
Result runServeWorkload(const Options &O);

Result runTable2Workload(const Options &O);

/// Bootstraps the kernel image plus the macro-benchmark definitions and
/// saves it to \p Path. \returns an error message, or "" on success.
std::string prewarmImage(const std::string &Path);

/// The Chrome trace path of a traced run.
std::string tracePath(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

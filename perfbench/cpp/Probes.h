//===-- perfbench/cpp/Probes.h - Direct layer probes ------------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer probes: timed direct calls into each layer's
/// public functions, fed with the workload's own inputs, so a per-layer
/// cost can be read without the rest of the stack around it.
///
///   protocol  nextLine + parseRequestLine + formatResponse per line
///   journal   appendIntent/appendOutcome x batch, then sync
///   IPC       IpcChannel send/receive/reply across two threads
///   VM        VirtualMachine::evaluate and compileDoItSource per source
///   image     loadSnapshot / saveSnapshot of a shard-sized image
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <string>
#include <vector>

#include "Common.h"

namespace perfbench {

struct ProbeInputs {
  /// Request lines exactly as the workload sent them.
  std::vector<std::string> Lines;
  /// Sources the workload had the VM evaluate.
  std::vector<std::string> Sources;
  /// Statements the probe VM runs first, so Sources find their globals.
  std::vector<std::string> Setup;
  /// Requests per journal sync in the measured window (at least 1).
  size_t BatchSize = 1;
  /// The prewarmed image shards boot from.
  std::string Image;
  /// Scratch directory on the data directory's filesystem.
  std::string Dir;
  /// Take the image save figures from the probe (false: the workload
  /// already reported them from its own checkpoints).
  bool ProbeSaves = true;
};

/// Runs every probe and adds its metrics to \p R. A probe that cannot run
/// (journal open, image load) fails the run.
void runLayerProbes(Result &R, const ProbeInputs &In);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H

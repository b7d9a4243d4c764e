//===-- perfbench/cpp/Main.cpp - Benchmark entry point --------------------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: correct / attempted / failed / metrics, plus the
/// workload's shape and any check notes. perfbench/run.py builds this
/// binary, runs it, and keeps the metrics its mode asks for.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "Workloads.h"
#include "image/Bootstrap.h"
#include "image/MacroBenchmarks.h"
#include "image/Snapshot.h"
#include "vm/VirtualMachine.h"

using namespace mst;
using namespace perfbench;

std::string perfbench::prewarmImage(const std::string &Path) {
  VirtualMachine VM(VmConfig::multiprocessor(1));
  bootstrapImage(VM);
  setupMacroWorkload(VM);
  std::string Err;
  bool Ok = saveSnapshot(VM, Path, Err);
  VM.shutdown();
  return Ok ? "" : Err;
}

std::string perfbench::tracePath(const Options &O) {
  return O.OutDir + "/trace-" + O.Workload + ".json";
}

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_small|serve_compute|serve_recover|"
               "table2 --seed N --seconds S --trace 0|1 --out-dir DIR\n",
               Argv0);
  return 2;
}

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *K = argv[I], *V = argv[I + 1];
    if (!std::strcmp(K, "--workload"))
      O.Workload = V;
    else if (!std::strcmp(K, "--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(K, "--seconds"))
      O.Seconds = std::atof(V);
    else if (!std::strcmp(K, "--trace"))
      O.Trace = std::atoi(V) != 0;
    else if (!std::strcmp(K, "--out-dir"))
      O.OutDir = V;
    else
      return usage(argv[0]);
  }
  if (argc % 2 == 0 || O.OutDir.empty() || O.Seconds <= 0)
    return usage(argv[0]);
  std::filesystem::create_directories(O.OutDir);

  Result R;
  if (O.Workload == "serve_small" || O.Workload == "serve_compute" ||
      O.Workload == "serve_recover")
    R = runServeWorkload(O);
  else if (O.Workload == "table2")
    R = runTable2Workload(O);
  else
    return usage(argv[0]);
  std::printf("%s\n", R.toJson().c_str());
  return R.Correct ? 0 : 1;
}

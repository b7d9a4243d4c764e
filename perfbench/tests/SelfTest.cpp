//===-- perfbench/tests/SelfTest.cpp - The benchmark's own checks ---------===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the two pieces of the benchmark its numbers rest on: the output
/// checker must catch a wrong value, and the percentile helper must pick
/// the highest percentile with at least ten samples beyond it.
///
///   python3 perfbench/run.py --self-test
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "Inputs.h"
#include "Stats.h"

using namespace perfbench;

static int Failures = 0;

static void expect(bool Cond, const char *What) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What);
  }
}

int main() {
  // The checker: expected values come from C++ arithmetic.
  CheckedOp Small = SmallInputs(7).next();
  expect(checkValue(Small, true, Small.Expected), "right value passes");
  expect(!checkValue(Small, true, Small.Expected + "1"),
         "wrong value is caught");
  expect(!checkValue(Small, false, Small.Expected),
         "an ERR answer is caught even with the right text");
  expect(SmallInputs(7).next().Source.rfind("3 + 4 * ", 0) == 0 &&
             std::stoull(Small.Expected) ==
                 7 * std::stoull(Small.Source.substr(8)),
         "binary messages bind left to right: 3 + 4 * k is 7k");
  expect(injectOp(10, 5).Expected == "60", "inject: expected value");
  expect(collectOp(4, 25).Expected == "9", "collect: expected value");
  expect(dictOp(10, 3, 4).Expected == "22", "Dictionary expected value");
  expect(!checkValue(dictOp(10, 3, 4), true, "21"),
         "wrong Dictionary value is caught");

  // Same seed, same inputs; every serve_small source distinct.
  SmallInputs A(42), B(42);
  bool Same = true;
  for (int I = 0; I < 1000; ++I)
    Same = Same && A.next().Source == B.next().Source;
  expect(Same, "same seed gives the same inputs");
  ComputeInputs C(3);
  unsigned Repeats = 0;
  for (int I = 0; I < 1000; ++I) {
    CheckedOp O = C.next();
    for (const CheckedOp &P : C.pool())
      Repeats += P.Source == O.Source;
  }
  expect(Repeats == 500, "serve_compute repeats exactly half its sources");

  // Percentiles: nearest rank, and the resolvable ladder.
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  expect(percentile(V, 50) == 50 && percentile(V, 90) == 90 &&
             percentile(V, 99) == 99,
         "nearest-rank percentiles of 1..100");
  expect(resolvablePercentile(100) == 90, "100 samples resolve p90");
  expect(resolvablePercentile(199) == 90, "199 samples still stop at p90");
  expect(resolvablePercentile(200) == 95, "200 samples resolve p95");
  expect(resolvablePercentile(1000) == 99, "1000 samples resolve p99");
  expect(resolvablePercentile(999) == 95, "999 samples stop at p95");
  expect(resolvablePercentile(10000) == 99.9, "10000 samples resolve p99.9");
  expect(resolvablePercentile(19) == 0, "19 samples resolve nothing");
  expect(resolvablePercentile(20) == 50, "20 samples resolve the median");
  expect(resolvable(100, 90) && !resolvable(100, 99), "resolvable()");

  if (Failures)
    return 1;
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}

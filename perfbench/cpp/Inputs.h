//===-- perfbench/cpp/Inputs.h - Seeded request sources ---------*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seeded request generators of the serve workloads. Each generated
/// operation carries the value the program must answer, computed here in
/// C++ arithmetic and never by the VM, so a checker can tell a wrong
/// answer from a right one. The same seed always yields the same sequence.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, seedable, and identical on every platform.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  uint64_t between(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }
};

/// One request source and the response value it must produce.
struct CheckedOp {
  std::string Source;
  std::string Expected;
};

/// The output check: an operation passes only with an OK answer carrying
/// exactly the expected value.
inline bool checkValue(const CheckedOp &O, bool Ok, const std::string &Value) {
  return Ok && Value == O.Expected;
}

/// A bijection on [0, 2^Bits) indexed by \p I: distinct indices give
/// distinct values, in a seed-dependent order.
struct Scramble {
  uint64_t Mul, Add, Mask;
  Scramble(Rng &R, unsigned Bits)
      : Mul(R.next() | 1), Add(R.next()), Mask((uint64_t{1} << Bits) - 1) {}
  uint64_t operator()(uint64_t I) const { return (Mul * I + Add) & Mask; }
};

/// serve_small: `3 + 4 * k` with a fresh k per request, so no source ever
/// repeats (2^24 distinct values). Smalltalk binary messages bind left to
/// right, so the answer is (3 + 4) * k.
class SmallInputs {
public:
  explicit SmallInputs(uint64_t Seed) : R(Seed), K(R, 24) {}
  CheckedOp next() {
    uint64_t V = K(I++);
    return {"3 + 4 * " + std::to_string(V), std::to_string((3 + 4) * V)};
  }

private:
  Rng R;
  Scramble K;
  uint64_t I = 0;
};

/// The three compute templates of serve_compute, each costing roughly
/// 100-800 us of interpretation over its size range.
inline CheckedOp injectOp(uint64_t N, uint64_t M) {
  return {"(1 to: " + std::to_string(N) + ") inject: " + std::to_string(M) +
              " into: [:a :b | a + b]",
          std::to_string(M + N * (N + 1) / 2)};
}

inline CheckedOp collectOp(uint64_t N, uint64_t M) {
  uint64_t Digits = 0;
  for (uint64_t I = 1; I <= N; ++I)
    Digits += std::to_string(I * M).size();
  return {"((1 to: " + std::to_string(N) + ") collect: [:i | (i * " +
              std::to_string(M) +
              ") printString]) inject: 0 into: [:a :s | a + s size]",
          std::to_string(Digits)};
}

inline CheckedOp dictOp(uint64_t N, uint64_t M, uint64_t K) {
  return {"| d | d := Dictionary new. 1 to: " + std::to_string(N) +
              " do: [:i | d at: i put: i * " + std::to_string(M) +
              "]. ^(d at: " + std::to_string(K) + ") + d size",
          std::to_string(K * M + N)};
}

/// serve_compute: even requests repeat exactly from a pool of PoolSize
/// sources drawn once per seed; odd requests carry a fresh literal, so
/// exactly half the sources repeat. The template and size of each source
/// follow a fixed cycle (Shapes) and only its literals are seeded, so the
/// work per request is the same for every seed. Pool multipliers lie in
/// [700000, 765536) and fresh ones in [100000, 624288), all six digits,
/// and no fresh multiplier is used twice.
class ComputeInputs {
public:
  static constexpr unsigned PoolSize = 16;

  explicit ComputeInputs(uint64_t Seed)
      : R(Seed), PoolMul(R, 16), FreshMul(R, 19) {
    for (unsigned I = 0; I < PoolSize; ++I)
      Pool.push_back(draw(I, 700000 + PoolMul(I)));
  }

  CheckedOp next() {
    if (I++ % 2 == 0)
      return Pool[R.next() % PoolSize];
    uint64_t F = Fresh++;
    return draw(F % PoolSize, 100000 + FreshMul(F));
  }

  const std::vector<CheckedOp> &pool() const { return Pool; }

private:
  /// Shape \p S of PoolSize: the three templates in turn, each at four
  /// sizes spread over its 100-800 us range.
  CheckedOp draw(unsigned S, uint64_t Mul) {
    unsigned Size = (S / 3) % 4;
    switch (S % 3) {
    case 0:
      return injectOp(std::array<uint64_t, 4>{400, 900, 1500, 2200}[Size],
                      Mul);
    case 1:
      return collectOp(std::array<uint64_t, 4>{15, 35, 60, 90}[Size], Mul);
    default: {
      uint64_t N = std::array<uint64_t, 4>{30, 70, 120, 170}[Size];
      return dictOp(N, Mul, R.between(1, N));
    }
    }
  }

  Rng R;
  Scramble PoolMul, FreshMul;
  std::vector<CheckedOp> Pool;
  uint64_t I = 0;
  uint64_t Fresh = 0;
};

/// serve_recover: the seq'd increment of one writer's counter; it answers
/// the counter's new value.
inline CheckedOp incrementOp(const std::string &Var, uint64_t NewValue) {
  return {"Smalltalk at: " + Var + " put: (Smalltalk at: " + Var + ") + 1",
          std::to_string(NewValue)};
}

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H

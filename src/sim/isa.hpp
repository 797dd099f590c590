#pragma once
/// \file isa.hpp
/// \brief Abstract instruction-stream description consumed by the cost model.
///
/// The VLA layer (src/vla) executes kernels for real and records how many
/// instructions of each class it issued.  The cost model (cost_model.hpp)
/// prices that stream on a MachineSpec under a CodegenFactors profile.
/// This is the boundary between "what the kernel does" and "what it costs".

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace v2d::sim {

/// Instruction classes the cost model distinguishes.  They mirror the op
/// groups that matter on the A64FX: FP arithmetic by kind, contiguous vs
/// gather memory ops, horizontal reductions, and predicate manipulation.
enum class OpClass : std::uint8_t {
  FlopAdd = 0,   ///< fadd / fsub
  FlopMul,       ///< fmul
  FlopFma,       ///< fmla / fmad (counts as 2 flops)
  FlopDiv,       ///< fdiv (long latency, unpipelined on A64FX)
  FlopSqrt,      ///< fsqrt
  FlopCmp,       ///< fcmp / fmax / fmin / fabs
  LoadContig,    ///< ld1 contiguous
  StoreContig,   ///< st1 contiguous
  LoadGather,    ///< ld1 gather (index vector)
  StoreScatter,  ///< st1 scatter
  Reduce,        ///< faddv-style horizontal reduction
  Select,        ///< sel / blend
  Predicate,     ///< whilelt / ptest and friends
  IntOp,         ///< index arithmetic not hidden by addressing modes
  Branch,        ///< loop back-edges
  kCount
};

inline constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::kCount);

const char* op_class_name(OpClass c);

/// How a kernel was compiled/executed.
enum class ExecMode : std::uint8_t {
  Scalar,  ///< no SVE: one lane per instruction
  SVE,     ///< vector-length-agnostic SVE
};

const char* exec_mode_name(ExecMode m);

/// Tally of one kernel invocation (or many, accumulated).
///
/// `instr[c]` counts *instructions* (vector granularity); `lanes[c]` counts
/// the total active lanes across those instructions, so
/// `lanes[c] / instr[c]` is the average predicate density.  Memory traffic
/// is tracked in bytes so the roofline side needs no ISA knowledge.
struct KernelCounts {
  std::array<std::uint64_t, kNumOpClasses> instr{};
  std::array<std::uint64_t, kNumOpClasses> lanes{};
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t elements = 0;  ///< problem elements processed (for reporting)
  std::uint64_t calls = 0;     ///< kernel invocations accumulated

  void record(OpClass c, std::uint64_t active_lanes, std::uint64_t n = 1) {
    const auto i = static_cast<std::size_t>(c);
    instr[i] += n;
    lanes[i] += active_lanes * n;
  }

  std::uint64_t total_instr() const {
    std::uint64_t t = 0;
    for (auto v : instr) t += v;
    return t;
  }

  /// Double-precision flops implied by the recorded stream (FMA = 2).
  std::uint64_t flops() const {
    using enum OpClass;
    auto lane = [&](OpClass c) {
      return lanes[static_cast<std::size_t>(c)];
    };
    return lane(FlopAdd) + lane(FlopMul) + 2 * lane(FlopFma) + lane(FlopDiv) +
           lane(FlopSqrt) + lane(FlopCmp);
  }

  std::uint64_t bytes_moved() const { return bytes_read + bytes_written; }

  KernelCounts& operator+=(const KernelCounts& o) { return add(o, 1); }

  /// Add `times` copies of `o` — exact, since every field is an integer.
  KernelCounts& add(const KernelCounts& o, std::uint64_t times) {
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
      instr[i] += times * o.instr[i];
      lanes[i] += times * o.lanes[i];
    }
    bytes_read += times * o.bytes_read;
    bytes_written += times * o.bytes_written;
    elements += times * o.elements;
    calls += times * o.calls;
    return *this;
  }

  /// Exact equality of every field (the fast-path equivalence suite
  /// compares recordings with it).
  bool operator==(const KernelCounts&) const = default;
};

/// Codegen quality knobs supplied by the compiler model (src/compiler).
///
/// Defined here (not in src/compiler) so the cost model has no dependency
/// on vendor profiles.  `cpi_scale[c]` multiplies the machine's base CPI
/// for class `c` — 1.0 is perfect scheduling, 2.0 means the compiler left
/// half the issue slots empty.  `loop_overhead_cycles` is charged per
/// kernel call (prologue/epilogue, pointer checks).
struct CodegenFactors {
  /// Per-class multiplier on the machine's *vector* CPI (SVE pricing side).
  std::array<double, kNumOpClasses> cpi_scale;
  /// Uniform multiplier on scalar CPI (quality of the compiler's scalar
  /// loop code; applies to the no-SVE pricing side).
  double scalar_cpi_scale = 1.0;
  double loop_overhead_cycles = 8.0;
  /// Fraction of eligible work the compiler actually vectorized (0..1);
  /// the rest is priced at scalar CPI even in ExecMode::SVE.
  double vectorized_fraction = 1.0;
  /// Multiplier on achievable memory bandwidth (prefetch quality etc.).
  double bandwidth_efficiency = 1.0;

  CodegenFactors() { cpi_scale.fill(1.0); }

  double scale(OpClass c) const {
    return cpi_scale[static_cast<std::size_t>(c)];
  }
  void set_scale(OpClass c, double v) {
    cpi_scale[static_cast<std::size_t>(c)] = v;
  }
  void scale_all(double v) {
    for (auto& s : cpi_scale) s *= v;
  }
};

}  // namespace v2d::sim

#include "linalg/kernel_counts.hpp"

namespace v2d::linalg {

namespace {

using sim::KernelCounts;
using sim::OpClass;

/// Builder mirroring the recording a strip-mined interpreter pass makes.
/// S = ceil(n/VL) strips; per strip the loop helper books one whilelt
/// (Predicate over all VL lanes) and one loop_iter (IntOp + Branch over the
/// strip's active lanes, which sum to n across strips).
struct Formula {
  std::uint64_t n;
  unsigned vl;
  std::uint64_t strips;
  KernelCounts c;

  Formula(std::uint64_t n_, unsigned vl_)
      : n(n_), vl(vl_), strips((n_ + vl_ - 1) / vl_) {}

  void op(OpClass cls, std::uint64_t instr, std::uint64_t lanes) {
    const auto i = static_cast<std::size_t>(cls);
    c.instr[i] += instr;
    c.lanes[i] += lanes;
  }

  /// Loop control of strip_mine / the loop part of strip_reduce.
  void loop() {
    op(OpClass::Predicate, strips, strips * vl);
    op(OpClass::IntOp, strips, n);
    op(OpClass::Branch, strips, n);
  }

  /// `k` predicated ops of `cls` per strip (k·S instructions, k·n lanes).
  void per_strip(OpClass cls, std::uint64_t k) {
    op(cls, k * strips, k * n);
  }

  /// `k` contiguous vector loads per strip.
  void loads(std::uint64_t k) {
    per_strip(OpClass::LoadContig, k);
    c.bytes_read += 8 * k * n;
  }

  /// `k` gather loads per strip.
  void gathers(std::uint64_t k) {
    per_strip(OpClass::LoadGather, k);
    c.bytes_read += 8 * k * n;
  }

  /// `k` contiguous vector stores per strip.
  void stores(std::uint64_t k) {
    per_strip(OpClass::StoreContig, k);
    c.bytes_written += 8 * k * n;
  }

  /// `k` dup() broadcasts per kernel call (1 instruction, 1 lane each).
  void dups(std::uint64_t k) { op(OpClass::Select, k, k); }

  /// strip_reduce epilogue: one ptrue + one full-width horizontal reduce.
  void reduce_epilogue() {
    op(OpClass::Predicate, 1, vl);
    op(OpClass::Reduce, 1, vl);
  }
};

}  // namespace

KernelCounts analytic_counts(KernelShape shape, std::uint64_t n, unsigned vl) {
  Formula f(n, vl);
  switch (shape) {
    case KernelShape::Dprod:
      // strip_reduce: dup(0) + per strip {2 ld1, fma_merge} + ptrue/faddv.
      f.dups(1);
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopFma, 1);
      f.reduce_epilogue();
      break;
    case KernelShape::Daxpy:
      f.dups(1);
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopFma, 1);
      f.stores(1);
      break;
    case KernelShape::Dscal:
      f.dups(2);
      f.loop();
      f.loads(1);
      f.per_strip(OpClass::FlopFma, 1);
      f.stores(1);
      break;
    case KernelShape::Ddaxpy:
      f.dups(2);
      f.loop();
      f.loads(3);
      f.per_strip(OpClass::FlopFma, 2);
      f.stores(1);
      break;
    case KernelShape::Xpby:
      f.dups(1);
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopFma, 1);
      f.stores(1);
      break;
    case KernelShape::Copy:
      f.loop();
      f.loads(1);
      f.stores(1);
      break;
    case KernelShape::Fill:
      f.dups(1);
      f.loop();
      f.stores(1);
      break;
    case KernelShape::Sub:
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopAdd, 1);
      f.stores(1);
      break;
    case KernelShape::Hadamard:
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopMul, 1);
      f.stores(1);
      break;
    case KernelShape::StencilRow:
      // 5 coefficient + 5 solution loads, mul + 4 FMAs, one store.
      f.loop();
      f.loads(10);
      f.per_strip(OpClass::FlopMul, 1);
      f.per_strip(OpClass::FlopFma, 4);
      f.stores(1);
      break;
    case KernelShape::CouplingRow:
      f.loop();
      f.loads(3);
      f.per_strip(OpClass::FlopFma, 1);
      f.stores(1);
      break;
    case KernelShape::DiagCorrectRow:
      // dup(ω) + per strip {ld d, ld r, mul, ld x, fma, st}.
      f.dups(1);
      f.loop();
      f.loads(3);
      f.per_strip(OpClass::FlopMul, 1);
      f.per_strip(OpClass::FlopFma, 1);
      f.stores(1);
      break;
    case KernelShape::DiagScaleRow:
      // dup(ω) + per strip {ld d, ld r, mul, mul, st}.
      f.dups(1);
      f.loop();
      f.loads(2);
      f.per_strip(OpClass::FlopMul, 2);
      f.stores(1);
      break;
    case KernelShape::RestrictRow:
      // dup(1/4), dup(3/4) per call; per strip one dup(0) accumulator plus,
      // for each of the 4 fine rows, {4 gathers, mul, 3 fma, dup(w),
      // fma_merge}; then one store.
      f.dups(2);
      f.loop();
      f.op(OpClass::Select, 5 * f.strips, 5 * f.strips);
      f.gathers(16);
      f.per_strip(OpClass::FlopMul, 4);
      f.per_strip(OpClass::FlopFma, 16);
      f.stores(1);
      break;
    case KernelShape::ProlongRow:
      // dup(1/4), dup(3/4) per call; per strip {4 gathers, 2 mul, ld fine,
      // 4 fma, st}.
      f.dups(2);
      f.loop();
      f.gathers(4);
      f.per_strip(OpClass::FlopMul, 2);
      f.loads(1);
      f.per_strip(OpClass::FlopFma, 4);
      f.stores(1);
      break;
  }
  return f.c;
}

}  // namespace v2d::linalg

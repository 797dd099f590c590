#include "compiler/profile.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace v2d::compiler {

const char* kernel_family_name(KernelFamily f) {
  switch (f) {
    case KernelFamily::Matvec: return "MATVEC";
    case KernelFamily::Dprod: return "DPROD";
    case KernelFamily::Daxpy: return "DAXPY";
    case KernelFamily::Dscal: return "DSCAL";
    case KernelFamily::Ddaxpy: return "DDAXPY";
    case KernelFamily::VecMisc: return "VECMISC";
    case KernelFamily::Precond: return "PRECOND";
    case KernelFamily::PrecondBuild: return "PRECOND-BUILD";
    case KernelFamily::Physics: return "PHYSICS";
    case KernelFamily::Hydro: return "HYDRO";
    case KernelFamily::Io: return "IO";
    case KernelFamily::Other: return "OTHER";
    case KernelFamily::kCount: break;
  }
  return "?";
}

CodegenProfile CodegenProfile::without_sve() const {
  CodegenProfile out = *this;
  out.name_ += " (no-SVE)";
  out.mode_ = sim::ExecMode::Scalar;
  return out;
}

CodegenProfile CodegenProfile::with_mpi(MpiStackModel stack,
                                        std::string new_name) const {
  CodegenProfile out = *this;
  out.mpi_ = std::move(stack);
  out.name_ = std::move(new_name);
  return out;
}

namespace {

using sim::CodegenFactors;
using sim::ExecMode;
using sim::OpClass;

// ---------------------------------------------------------------------------
// Calibration constants.
//
// Policy (DESIGN.md §2): machine capability lives in sim::MachineSpec;
// everything below encodes *compiler quality* and is calibrated so that
//   (a) the Cray(-O3+SVE) single-processor Table I entry lands near 181 s,
//   (b) Table II per-kernel SVE/no-SVE ratios land in 0.16–0.31,
//   (c) column ratios GNU:Fujitsu:Cray ≈ 2.0 : 1.39 : 1.0 at P = 1,
//   (d) the MPI stacks reproduce the Table I scaling shape (Cray best at
//       small P, Fujitsu's stack keeps scaling through P = 50, Cray and
//       GNU saturate/regress past P ≈ 25–40).
// Everything else in the reproduction is prediction, not calibration.
// ---------------------------------------------------------------------------

// Ganged-kernel vector-side scheduling quality per family for the Cray
// compiler; chosen to land the Table II ratio bands.  Streaming kernels
// with stores (DAXPY/DSCAL) vectorize a bit less profitably than pure
// reads (the store port is narrower), which the paper's ratios reflect.
struct FamilyTuning {
  KernelFamily family;
  double vec_scale;       // multiplies vector CPIs
  double scalar_scale;    // multiplies scalar CPIs
  double vec_fraction;    // fraction of work actually vectorized
};

void apply(CodegenProfile& p, const FamilyTuning& t) {
  CodegenFactors f = p.factors(t.family);
  f.scale_all(t.vec_scale);
  f.scalar_cpi_scale *= t.scalar_scale;
  f.vectorized_fraction = t.vec_fraction;
  p.set_family(t.family, f);
}

MpiStackModel cray_mpich() {
  // Cray's MPICH on Ookami: excellent latency at small rank counts, but
  // its progress engine cost grows with communicator size — the paper
  // observes Cray regressing beyond ~25 ranks while Fujitsu keeps scaling.
  return MpiStackModel{
      .name = "Cray MPICH",
      .latency_intra_node_s = 0.8e-6,
      .latency_inter_node_s = 1.8e-6,
      .bandwidth_Bps = 12.5e9,
      .allreduce_stage_overhead_s = 0.1e-6,
      .per_rank_overhead_s = 0.44e-6,
  };
}

MpiStackModel fujitsu_mpi() {
  return MpiStackModel{
      .name = "Fujitsu MPI",
      .latency_intra_node_s = 1.0e-6,
      .latency_inter_node_s = 1.2e-6,
      .bandwidth_Bps = 12.5e9,
      .allreduce_stage_overhead_s = 0.05e-6,
      .per_rank_overhead_s = 0.02e-6,
  };
}

MpiStackModel mvapich() {
  // MVAPICH on InfiniBand: lower small-message latency than OpenMPI but a
  // similar progress-engine growth.
  return MpiStackModel{
      .name = "MVAPICH",
      .latency_intra_node_s = 1.0e-6,
      .latency_inter_node_s = 2.0e-6,
      .bandwidth_Bps = 12.5e9,
      .allreduce_stage_overhead_s = 0.2e-6,
      .per_rank_overhead_s = 0.3e-6,
  };
}

MpiStackModel openmpi() {
  return MpiStackModel{
      .name = "OpenMPI",
      .latency_intra_node_s = 1.2e-6,
      .latency_inter_node_s = 2.4e-6,
      .bandwidth_Bps = 12.5e9,
      .allreduce_stage_overhead_s = 0.3e-6,
      .per_rank_overhead_s = 0.2e-6,
  };
}

}  // namespace

CodegenProfile cray_2103() {
  CodegenFactors base;
  base.scalar_cpi_scale = 1.0;
  base.loop_overhead_cycles = 8.0;
  base.vectorized_fraction = 1.0;
  base.bandwidth_efficiency = 0.85;
  CodegenProfile p("Cray 21.03 -O3 +SVE", ExecMode::SVE, base, cray_mpich());

  // Table II calibration (see FamilyTuning comment).
  apply(p, {KernelFamily::Matvec, 1.02, 1.00, 1.00});
  {
    // The stencil sweep is a pure streaming kernel; Cray's software
    // prefetch reaches full L1 bandwidth on it.
    CodegenFactors f = p.factors(KernelFamily::Matvec);
    f.bandwidth_efficiency = 1.0;
    p.set_family(KernelFamily::Matvec, f);
  }
  apply(p, {KernelFamily::Dprod, 1.05, 1.00, 1.00});
  apply(p, {KernelFamily::Daxpy, 1.60, 1.00, 1.00});
  apply(p, {KernelFamily::Dscal, 1.80, 1.00, 1.00});
  apply(p, {KernelFamily::Ddaxpy, 1.38, 1.00, 1.00});
  apply(p, {KernelFamily::VecMisc, 1.60, 1.00, 1.00});
  apply(p, {KernelFamily::Precond, 1.30, 1.00, 0.95});
  apply(p, {KernelFamily::PrecondBuild, 2.00, 1.00, 0.50});
  // Multi-physics remainder: interspersed calls, short loops, branchy
  // coefficient assembly — the compiler vectorizes only part of it.  This
  // is the paper's headline effect (whole-code speedup ≪ kernel speedup).
  apply(p, {KernelFamily::Physics, 2.20, 1.00, 0.35});
  apply(p, {KernelFamily::Hydro, 1.60, 1.00, 0.60});
  apply(p, {KernelFamily::Io, 3.00, 1.00, 0.10});
  apply(p, {KernelFamily::Other, 2.50, 1.00, 0.25});
  return p;
}

CodegenProfile cray_2103_noopt() {
  // No -O3, no SVE: scalar pricing with mediocre scalar scheduling.
  CodegenFactors base;
  base.scalar_cpi_scale = 0.66;
  base.loop_overhead_cycles = 12.0;
  base.vectorized_fraction = 0.0;
  base.bandwidth_efficiency = 0.85;
  return CodegenProfile("Cray 21.03 (no -O3, no SVE)", ExecMode::Scalar, base,
                        cray_mpich());
}

CodegenProfile fujitsu_45() {
  CodegenFactors base;
  base.scalar_cpi_scale = 1.05;
  base.loop_overhead_cycles = 10.0;
  base.vectorized_fraction = 1.0;
  base.bandwidth_efficiency = 0.70;
  CodegenProfile p("Fujitsu 4.5 -Kfast +SVE", ExecMode::SVE, base,
                   fujitsu_mpi());
  // Fujitsu's SVE codegen on its own silicon is good but its software
  // pipelining of short strip-mined loops trails Cray's at small rank
  // counts (Table I: Cray faster below ~25 ranks).
  apply(p, {KernelFamily::Matvec, 1.95, 1.05, 1.00});
  apply(p, {KernelFamily::Dprod, 2.25, 1.05, 1.00});
  apply(p, {KernelFamily::Daxpy, 3.25, 1.05, 1.00});
  apply(p, {KernelFamily::Dscal, 3.75, 1.05, 1.00});
  apply(p, {KernelFamily::Ddaxpy, 2.80, 1.05, 1.00});
  apply(p, {KernelFamily::VecMisc, 2.60, 1.05, 1.00});
  apply(p, {KernelFamily::Precond, 2.10, 1.05, 0.95});
  apply(p, {KernelFamily::PrecondBuild, 2.40, 1.05, 0.50});
  apply(p, {KernelFamily::Physics, 2.60, 1.05, 0.35});
  apply(p, {KernelFamily::Hydro, 2.00, 1.05, 0.60});
  apply(p, {KernelFamily::Io, 3.20, 1.05, 0.10});
  apply(p, {KernelFamily::Other, 2.80, 1.05, 0.25});
  return p;
}

CodegenProfile gnu_11() {
  // GCC 11 on A64FX: SVE auto-vectorization existed but left much on the
  // table (cost model tuned for Neon, no gather/reduction idioms), and its
  // scalar scheduling for the in-order-ish A64FX FP pipes was weak.
  CodegenFactors base;
  base.scalar_cpi_scale = 1.9;
  base.loop_overhead_cycles = 14.0;
  base.vectorized_fraction = 0.55;
  base.bandwidth_efficiency = 0.52;
  CodegenProfile p("GNU 11.1 -O3 +SVE", ExecMode::SVE, base, openmpi());
  apply(p, {KernelFamily::Matvec, 2.30, 1.00, 0.70});
  apply(p, {KernelFamily::Dprod, 2.60, 1.00, 0.60});
  apply(p, {KernelFamily::Daxpy, 3.10, 1.00, 0.80});
  apply(p, {KernelFamily::Dscal, 3.40, 1.00, 0.80});
  apply(p, {KernelFamily::Ddaxpy, 2.90, 1.00, 0.75});
  apply(p, {KernelFamily::VecMisc, 2.80, 1.00, 0.70});
  apply(p, {KernelFamily::Precond, 2.50, 1.00, 0.60});
  apply(p, {KernelFamily::PrecondBuild, 3.00, 1.00, 0.30});
  apply(p, {KernelFamily::Physics, 3.20, 1.00, 0.20});
  apply(p, {KernelFamily::Hydro, 2.60, 1.00, 0.40});
  apply(p, {KernelFamily::Io, 3.40, 1.00, 0.05});
  apply(p, {KernelFamily::Other, 3.20, 1.00, 0.15});
  return p;
}

CodegenProfile clang_future() {
  // The paper's future-work item.  LLVM's SVE support ca. 2022: better
  // than GCC at vector idioms, behind Cray on loop scheduling.
  CodegenFactors base;
  base.scalar_cpi_scale = 1.3;
  base.loop_overhead_cycles = 10.0;
  base.vectorized_fraction = 0.85;
  base.bandwidth_efficiency = 0.75;
  CodegenProfile p("Clang 14 -O3 +SVE (projected)", ExecMode::SVE, base,
                   openmpi());
  apply(p, {KernelFamily::Matvec, 1.60, 1.00, 0.95});
  apply(p, {KernelFamily::Dprod, 1.90, 1.00, 0.90});
  apply(p, {KernelFamily::Daxpy, 2.40, 1.00, 0.95});
  apply(p, {KernelFamily::Dscal, 2.80, 1.00, 0.95});
  apply(p, {KernelFamily::Ddaxpy, 2.10, 1.00, 0.95});
  apply(p, {KernelFamily::VecMisc, 2.00, 1.00, 0.90});
  apply(p, {KernelFamily::Precond, 1.80, 1.00, 0.85});
  apply(p, {KernelFamily::PrecondBuild, 2.40, 1.00, 0.40});
  apply(p, {KernelFamily::Physics, 2.60, 1.00, 0.30});
  apply(p, {KernelFamily::Hydro, 2.10, 1.00, 0.50});
  apply(p, {KernelFamily::Io, 3.20, 1.00, 0.05});
  apply(p, {KernelFamily::Other, 2.90, 1.00, 0.20});
  return p;
}

CodegenProfile gnu_11_mvapich() {
  return gnu_11().with_mpi(mvapich(), "GNU 11.1 -O3 +SVE / MVAPICH");
}

std::vector<CodegenProfile> all_profiles() {
  return {gnu_11(), fujitsu_45(), cray_2103(), cray_2103_noopt(),
          clang_future(), gnu_11_mvapich()};
}

CodegenProfile find_profile(const std::string& short_name) {
  if (short_name == "gnu") return gnu_11();
  if (short_name == "gnu-mvapich") return gnu_11_mvapich();
  if (short_name == "fujitsu") return fujitsu_45();
  if (short_name == "cray") return cray_2103();
  if (short_name == "cray-noopt") return cray_2103_noopt();
  if (short_name == "clang") return clang_future();
  throw Error("unknown compiler profile '" + short_name +
              "' (expected gnu|gnu-mvapich|fujitsu|cray|cray-noopt|clang)");
}

}  // namespace v2d::compiler

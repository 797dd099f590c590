#pragma once
/// \file profile.hpp
/// \brief Compiler codegen profiles — the "which compiler, which flags" axis.
///
/// The paper's Table I varies GNU 11.1 / Fujitsu 4.5 / Cray 21.03 with and
/// without -O3+SVE.  On Ookami those differ in (a) how well each compiler
/// schedules SVE and scalar code per kernel family and (b) which MPI stack
/// it is paired with.  A CodegenProfile captures exactly that: per-family
/// sim::CodegenFactors plus an MPI stack cost model.  Profiles are *pricing*
/// inputs — the numerics never change across profiles.

#include <array>
#include <string>
#include <vector>

#include "sim/isa.hpp"

namespace v2d::compiler {

/// The kernel families V2D distinguishes when instrumenting (matches the
/// paper's Table II rows plus the non-linear-algebra remainder).
enum class KernelFamily : std::uint8_t {
  Matvec = 0,    ///< finite-difference operator application
  Dprod,         ///< dot product
  Daxpy,         ///< a·x + y
  Dscal,         ///< c − d·y
  Ddaxpy,        ///< a·x + b·y + z
  VecMisc,       ///< other vector updates (copies, norms, waxpby)
  Precond,       ///< SPAI application
  PrecondBuild,  ///< SPAI construction
  Physics,       ///< opacities, limiters, coefficient assembly
  Hydro,         ///< hydrodynamics sweeps
  Io,            ///< checkpoint serialization
  Other,
  kCount
};

inline constexpr std::size_t kNumKernelFamilies =
    static_cast<std::size_t>(KernelFamily::kCount);

const char* kernel_family_name(KernelFamily f);

/// Cost parameters of the MPI implementation a compiler was paired with.
struct MpiStackModel {
  std::string name;
  double latency_intra_node_s = 1.0e-6;   ///< pt2pt latency, same node
  double latency_inter_node_s = 1.8e-6;   ///< pt2pt latency, across HDR100
  double bandwidth_Bps = 12.5e9;          ///< HDR100 ≈ 100 Gbit/s per port
  double allreduce_stage_overhead_s = 0;  ///< software cost per tree stage
  /// Software overhead that grows with communicator size (progress-engine
  /// polling, unexpected-message queues).  Charged per collective as
  /// per_rank_overhead_s · P.
  double per_rank_overhead_s = 0.0;
};

/// A complete compiler configuration.
class CodegenProfile {
public:
  /// Every family starts at `defaults`; set_family tunes one.
  CodegenProfile(std::string name, sim::ExecMode mode,
                 sim::CodegenFactors defaults, MpiStackModel mpi)
      : name_(std::move(name)), mode_(mode), mpi_(std::move(mpi)) {
    families_.fill(defaults);
  }

  const std::string& name() const { return name_; }
  sim::ExecMode mode() const { return mode_; }
  const MpiStackModel& mpi() const { return mpi_; }

  const sim::CodegenFactors& factors(KernelFamily f) const {
    return families_[static_cast<std::size_t>(f)];
  }
  void set_family(KernelFamily f, const sim::CodegenFactors& factors) {
    families_[static_cast<std::size_t>(f)] = factors;
  }

  /// A copy of this profile with SVE disabled (scalar pricing), as produced
  /// by dropping the vectorization flags.  Scalar codegen quality is kept.
  CodegenProfile without_sve() const;

  /// A copy of this profile paired with a different MPI implementation
  /// (the paper tested compiler x MPI-stack combinations).
  CodegenProfile with_mpi(MpiStackModel stack, std::string new_name) const;

private:
  std::string name_;
  sim::ExecMode mode_;
  MpiStackModel mpi_;
  std::array<sim::CodegenFactors, kNumKernelFamilies> families_;
};

/// Vendor presets (constants calibrated against the paper's own single-
/// processor Cray column and Table II ratios; see DESIGN.md §2).
CodegenProfile gnu_11();
/// GNU paired with MVAPICH instead of OpenMPI — "some compilers allowed
/// the use of either MVAPICH or OpenMPI" (paper §II-B).  Identical
/// codegen, different MPI stack.
CodegenProfile gnu_11_mvapich();
CodegenProfile fujitsu_45();
CodegenProfile cray_2103();
CodegenProfile cray_2103_noopt();
/// The paper's future-work compiler; modeled on LLVM's SVE maturity ca. 2022.
CodegenProfile clang_future();

/// All presets, in Table I column order (GNU, Fujitsu, Cray, Cray no-opt)
/// followed by extensions.
std::vector<CodegenProfile> all_profiles();

/// Lookup by short name: "gnu", "gnu-mvapich", "fujitsu", "cray",
/// "cray-noopt", "clang".
CodegenProfile find_profile(const std::string& short_name);

}  // namespace v2d::compiler

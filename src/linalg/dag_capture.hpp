#pragma once
/// \file dag_capture.hpp
/// \brief RAII capture of one solver iteration's kernel DAG.
///
/// Under FuseMode::Plan, the solvers construct a DagCapture keyed by their
/// (solver, preconditioner, shape, VL, exec-mode) configuration and call
/// begin_iteration(it) at the top of every hot-loop iteration.  The first
/// time a configuration runs, the capture attaches a DagRecorder to the
/// driving ExecContext for iteration 1 only; at the top of iteration 2 (or
/// at scope exit, whichever comes first) the recording is annotated by the
/// fusion planner and memoized in the Context's DagStore.  Subsequent
/// solves of the same configuration find the key present and record
/// nothing — the capture is as cheap as one map probe, exactly like the
/// KernelCounts memo.
///
/// Capture never touches the priced stream: the recorder only appends
/// (name, operands) tuples on the driving thread, so fields, counts,
/// ledgers and clocks are bit-identical with and without it.

#include <string>
#include <utility>

#include "linalg/exec_context.hpp"
#include "linalg/fusion/planner.hpp"
#include "vla/kernel_dag.hpp"

namespace v2d::linalg {

class DagCapture {
public:
  DagCapture(ExecContext& ctx, std::string key)
      : ctx_(ctx), key_(std::move(key)) {
    // Arm only for the first Plan-mode solve of this configuration, and
    // never nested (an outer capture — e.g. a solver driving MG smoother
    // solves — owns the recording).
    armed_ = ctx_.fused() && ctx_.dag == nullptr &&
             !ctx_.vctx.dag_store().contains(key_);
  }

  DagCapture(const DagCapture&) = delete;
  DagCapture& operator=(const DagCapture&) = delete;

  ~DagCapture() { finish(); }

  /// Call at the top of hot-loop iteration `it` (1-based): recording spans
  /// exactly iteration 1.
  void begin_iteration(int it) {
    if (!armed_) return;
    if (it == 1) {
      ctx_.dag = &recorder_;
    } else if (it == 2) {
      finish();
    }
  }

private:
  void finish() {
    if (!armed_) return;
    armed_ = false;
    if (ctx_.dag != &recorder_) return;  // iteration 1 never started
    ctx_.dag = nullptr;
    vla::KernelDag dag = recorder_.take(key_);
    if (dag.nodes.empty()) return;
    fusion::annotate_dag(dag);
    ctx_.vctx.dag_store().put(std::move(dag));
  }

  ExecContext& ctx_;
  std::string key_;
  vla::DagRecorder recorder_;
  bool armed_ = false;
};

/// The store key for a solver configuration — one capture per distinct
/// (solver, preconditioner, global shape, VL, exec mode).
inline std::string dag_key(const char* solver, const std::string& precond,
                           std::uint64_t global_size, const vla::Context& v) {
  return std::string(solver) + "|" + precond + "|n=" +
         std::to_string(global_size) + "|vl=" + std::to_string(v.arch().bits()) +
         "|" + vla::vla_exec_mode_name(v.exec_mode());
}

}  // namespace v2d::linalg

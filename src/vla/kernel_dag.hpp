#pragma once
/// \file kernel_dag.hpp
/// \brief Lightweight kernel-DAG recorder for the fusion planner.
///
/// During the first solver iteration of a (solver, precond, shape, VL)
/// configuration under FuseMode::Plan, the call sites record every
/// primitive kernel launch — with its operand read/write sets — into a
/// DagRecorder.  The captured KernelDag is a small IR: nodes in program
/// order, operands normalized to stable names (v0, v1, …) in first-seen
/// order, collectives recorded as barrier nodes.  The fusion planner then
/// annotates it (fusion::annotate_dag) with the producer→consumer groups
/// its legality rules admit, and the result is memoized per configuration
/// in the Context's DagStore exactly like the KernelCounts memo:
/// captured once, shared across fork()ed rank contexts and farm sessions.
///
/// Recording happens only on the driving thread (ExecContext::fork clears
/// the recorder pointer), so the captured node order — and therefore the
/// plan dump — is independent of the host-thread count.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace v2d::vla {

/// One recorded primitive kernel launch (or collective barrier).
struct DagNode {
  std::string op;        ///< primitive name ("daxpy", "dot", "barrier:…")
  std::uint64_t n = 0;   ///< global elements the launch covers
  std::vector<std::string> reads;   ///< normalized operand names
  std::vector<std::string> writes;  ///< normalized operand names
  int group = -1;        ///< fusion group index (-1 = not fusable/barrier)
  std::string rule;      ///< legality rule that formed or cut the group
};

/// The captured (and, after annotation, planned) DAG of one solver
/// iteration for one configuration key.
struct KernelDag {
  std::string key;
  std::vector<DagNode> nodes;

  /// Deterministic text form (the --dump-fusion-plan payload): one line
  /// per node with operands, group assignment and rule.
  std::string dump() const;
};

/// Records primitive launches with operand read/write sets.  Operands are
/// identified by address and normalized to v0, v1, … in first-seen order,
/// so the dump is byte-identical across runs regardless of where the
/// vectors happen to be allocated.
class DagRecorder {
public:
  void op(const char* name, std::uint64_t n,
          std::initializer_list<const void*> reads,
          std::initializer_list<const void*> writes);
  void barrier(const char* kind);

  bool empty() const { return nodes_.empty(); }

  /// Move the recording out as a KernelDag labeled `key`; the recorder
  /// resets for reuse.
  KernelDag take(std::string key);

private:
  std::string slot(const void* p);

  std::vector<DagNode> nodes_;
  std::map<const void*, std::string> names_;
};

/// Per-Context memo of captured+annotated iteration DAGs, shared across
/// the fork family (and farm sessions sharing a Context prototype) like
/// the count memo.  Keys carry the full configuration —
/// solver, preconditioner, problem shape, VL and exec mode — so sessions
/// with different configurations never collide, and only FuseMode::Plan
/// runs ever record (mixed-fuse farms cannot cross-contaminate).
class DagStore {
public:
  bool contains(const std::string& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return dags_.count(key) != 0;
  }

  void put(KernelDag dag) {
    std::lock_guard<std::mutex> lk(mu_);
    dags_.emplace(dag.key, std::move(dag));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dags_.size();
  }

  /// Every stored DAG, key-sorted (std::map order), each via dump().
  std::string dump_all() const;

private:
  mutable std::mutex mu_;
  std::map<std::string, KernelDag> dags_;
};

}  // namespace v2d::vla

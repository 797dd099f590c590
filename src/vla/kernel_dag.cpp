#include "vla/kernel_dag.hpp"

#include <sstream>

namespace v2d::vla {

void DagRecorder::op(const char* name, std::uint64_t n,
                     std::initializer_list<const void*> reads,
                     std::initializer_list<const void*> writes) {
  DagNode node;
  node.op = name;
  node.n = n;
  for (const void* p : reads) node.reads.push_back(slot(p));
  for (const void* p : writes) node.writes.push_back(slot(p));
  nodes_.push_back(std::move(node));
}

void DagRecorder::barrier(const char* kind) {
  DagNode node;
  node.op = std::string("barrier:") + kind;
  nodes_.push_back(std::move(node));
}

KernelDag DagRecorder::take(std::string key) {
  KernelDag out;
  out.key = std::move(key);
  out.nodes = std::move(nodes_);
  nodes_.clear();
  names_.clear();
  return out;
}

std::string DagRecorder::slot(const void* p) {
  auto it = names_.find(p);
  if (it != names_.end()) return it->second;
  std::string name = "v";
  name += std::to_string(names_.size());
  names_.emplace(p, name);
  return name;
}

namespace {

void join(std::ostringstream& os, const std::vector<std::string>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ',';
    os << items[i];
  }
}

}  // namespace

std::string KernelDag::dump() const {
  std::ostringstream os;
  os << "dag " << key << ": nodes=" << nodes.size() << "\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const DagNode& nd = nodes[i];
    os << "  n" << i << " " << nd.op;
    if (nd.n > 0) os << " n=" << nd.n;
    if (!nd.reads.empty()) {
      os << " r=[";
      join(os, nd.reads);
      os << "]";
    }
    if (!nd.writes.empty()) {
      os << " w=[";
      join(os, nd.writes);
      os << "]";
    }
    if (nd.group >= 0) os << " group=" << nd.group;
    if (!nd.rule.empty()) os << " rule=" << nd.rule;
    os << "\n";
  }
  return os.str();
}

std::string DagStore::dump_all() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const auto& [key, dag] : dags_) out += dag.dump();
  return out;
}

}  // namespace v2d::vla

#include "linalg/fusion/planner.hpp"

#include <cstdio>
#include <sstream>
#include <vector>

namespace v2d::linalg::fusion {

namespace {

const char* step_kind_name(StepKind k) {
  switch (k) {
    case StepKind::DupScal: return "dup_scal";
    case StepKind::DupAcc: return "dup_acc";
    case StepKind::Load: return "ld";
    case StepKind::Stencil: return "stencil";
    case StepKind::Fma: return "fma";
    case StepKind::Mul: return "mul";
    case StepKind::Sub: return "sub";
    case StepKind::Store: return "st";
    case StepKind::DotAcc: return "dot_acc";
  }
  return "?";
}

void print_step(std::ostringstream& os, const Step& s) {
  os << step_kind_name(s.k);
  switch (s.k) {
    case StepKind::DupScal:
      os << " r" << int(s.dst) << " <- s" << int(s.a);
      break;
    case StepKind::DupAcc:
      os << " a" << int(s.dst) << " <- 0";
      break;
    case StepKind::Load:
      os << " r" << int(s.dst) << " <- v" << int(s.a);
      break;
    case StepKind::Stencil:
      os << " r" << int(s.dst) << " <- v" << int(s.a) << "..v"
         << int(s.a) + 7 << " (tap r" << int(s.b) << ")";
      break;
    case StepKind::Fma:
      os << " r" << int(s.dst) << " <- r" << int(s.a) << "*r" << int(s.b)
         << "+r" << int(s.c);
      break;
    case StepKind::Mul:
      os << " r" << int(s.dst) << " <- r" << int(s.a) << "*r" << int(s.b);
      break;
    case StepKind::Sub:
      os << " r" << int(s.dst) << " <- r" << int(s.a) << "-r" << int(s.b);
      break;
    case StepKind::Store:
      os << " v" << int(s.dst) << " <- r" << int(s.a);
      break;
    case StepKind::DotAcc:
      os << " a" << int(s.dst) << " += r" << int(s.a) << "*r" << int(s.b);
      break;
  }
}

}  // namespace

namespace {

bool is_barrier_op(const std::string& op) {
  return op.rfind("barrier:", 0) == 0;
}
bool is_stencil_op(const std::string& op) { return op == "matvec"; }
bool is_reduction_op(const std::string& op) { return op == "dot"; }

bool contains_name(const std::vector<std::string>& v, const std::string& s) {
  for (const auto& x : v)
    if (x == s) return true;
  return false;
}

}  // namespace

void annotate_dag(vla::KernelDag& dag) {
  int group = -1;
  std::uint64_t group_n = 0;
  std::size_t group_size = 0;
  bool open = false;
  // Operands read by reductions already in the open group: a later write
  // to any of them is the write-after-read-across-a-reduction cut.
  std::vector<std::string> dot_reads;

  for (auto& nd : dag.nodes) {
    if (is_barrier_op(nd.op)) {
      nd.group = -1;
      nd.rule = "barrier";
      open = false;
      continue;
    }
    const bool stencil = is_stencil_op(nd.op);
    const bool reduction = is_reduction_op(nd.op);
    bool war = false;
    if (open) {
      for (const auto& w : nd.writes)
        if (contains_name(dot_reads, w)) war = true;
    }
    const bool join = open && !stencil && !war && nd.n == group_n &&
                      group_size < kMaxNodes;
    if (join) {
      nd.group = group;
      ++group_size;
      nd.rule = reduction ? "reduction-tail" : "elementwise";
    } else {
      ++group;
      nd.group = group;
      nd.rule = stencil ? "stencil-head" : (war ? "war-cut" : "head");
      group_size = 1;
      group_n = nd.n;
      open = true;
      dot_reads.clear();
    }
    if (reduction)
      for (const auto& r : nd.reads) dot_reads.push_back(r);
  }
}

std::string dump_plan(const Chain& c, const FusionPlan& p) {
  std::ostringstream os;
  os << "chain " << c.name << ": nodes=" << int(c.nnodes)
     << " slots=" << int(c.nslots) << " scalars=" << int(c.nscal)
     << " accs=" << int(c.naccs) << "\n";
  for (std::uint8_t k = 0; k < c.nnodes; ++k) {
    const PrimNode& nd = c.node[k];
    os << "  n" << int(k) << " " << prim_name(nd.op);
    if (nd.dst != kNone) os << " v" << int(nd.dst);
    if (nd.acc != kNone) os << " a" << int(nd.acc);
    os << " <-";
    if (nd.src0 != kNone) os << " v" << int(nd.src0);
    if (nd.scal != kNone) os << " s" << int(nd.scal);
    if (nd.src1 != kNone) os << " v" << int(nd.src1);
    if (nd.src2 != kNone) os << " v" << int(nd.src2);
    os << "\n";
  }
  os << "plan " << p.name << ": groups=" << int(p.ngroups) << "\n";
  char sigbuf[19];
  for (std::uint8_t gi = 0; gi < p.ngroups; ++gi) {
    const GroupProgram& g = p.group[gi];
    std::snprintf(sigbuf, sizeof sigbuf, "%016llx",
                  static_cast<unsigned long long>(g.sig));
    os << "  group " << int(gi) << " nodes=[" << int(g.first_node) << ".."
       << int(g.first_node) + int(g.nnodes) - 1 << "] sig=" << sigbuf
       << " regs=" << int(g.nregs) << " accs=" << int(g.naccs) << "\n";
    for (std::uint8_t i = 0; i < g.npre; ++i) {
      os << "    pre  ";
      print_step(os, g.pre[i]);
      os << "\n";
    }
    for (std::uint8_t i = 0; i < g.nsteps; ++i) {
      os << "    body ";
      print_step(os, g.step[i]);
      os << "\n";
    }
    for (std::uint8_t i = 0; i < g.ntails; ++i) {
      const DotTail& t = g.tail[i];
      os << "    tail a" << int(t.acc) << " += dd(v" << int(t.slot_a)
         << "*v" << int(t.slot_b) << ")\n";
    }
  }
  return os.str();
}

}  // namespace v2d::linalg::fusion

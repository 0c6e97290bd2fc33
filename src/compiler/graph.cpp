#include "compiler/graph.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/affine.hpp"
#include "analysis/control.hpp"
#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

using analysis::KernelIndex;
using analysis::StmtEntry;

/// Union-find over statement ids.
class UnionFind {
 public:
  void Ensure(ir::StmtId id) { parent_.try_emplace(id, id); }
  ir::StmtId Find(ir::StmtId id) {
    Ensure(id);
    ir::StmtId root = id;
    while (parent_[root] != root) {
      root = parent_[root];
    }
    while (parent_[id] != root) {
      const ir::StmtId next = parent_[id];
      parent_[id] = root;
      id = next;
    }
    return root;
  }
  void Union(ir::StmtId a, ir::StmtId b) { parent_[Find(a)] = Find(b); }

 private:
  std::map<ir::StmtId, ir::StmtId> parent_;
};

/// Collects the loop-body non-if statements transitively guarded by `stmt`
/// (which must be an if).
void GuardedStmts(const ir::Stmt& if_stmt, std::vector<ir::StmtId>& out) {
  auto walk = [&](const std::vector<ir::Stmt>& body, auto&& self) -> void {
    for (const ir::Stmt& s : body) {
      if (s.kind == ir::StmtKind::kIf) {
        self(s.then_body, self);
        self(s.else_body, self);
      } else {
        out.push_back(s.id);
      }
    }
  };
  walk(if_stmt.then_body, walk);
  walk(if_stmt.else_body, walk);
}

}  // namespace

int StmtComputeOps(const ir::Kernel& kernel, const ir::Stmt& stmt) {
  int ops = 0;
  switch (stmt.kind) {
    case ir::StmtKind::kAssignTemp:
    case ir::StmtKind::kStoreScalar:
      ops = kernel.ComputeOpCount(stmt.value);
      break;
    case ir::StmtKind::kStoreArray:
      ops = kernel.ComputeOpCount(stmt.value) + kernel.ComputeOpCount(stmt.index);
      break;
    case ir::StmtKind::kIf:
      ops = kernel.ComputeOpCount(stmt.value);
      break;
  }
  return ops;
}

int CodeGraph::NodeOf(ir::StmtId stmt) const {
  if (stmt >= 0 && static_cast<std::size_t>(stmt) < node_of_.size() &&
      node_of_[static_cast<std::size_t>(stmt)] >= 0) {
    return node_of_[static_cast<std::size_t>(stmt)];
  }
  throw Error("statement not in code graph: " + std::to_string(stmt));
}

CodeGraph BuildCodeGraph(const KernelIndex& index, const analysis::CostModel& cost) {
  const ir::Kernel& kernel = index.kernel();
  CodeGraph graph;
  UnionFind fuse;

  // Partitionable statements: loop-body non-if statements.
  std::vector<const StmtEntry*> members;
  for (const StmtEntry& entry : index.entries()) {
    if (!entry.in_epilogue && !entry.is_if) {
      members.push_back(&entry);
      fuse.Ensure(entry.id);
    }
  }

  // ---- fusion: loop-carried temporaries ----
  for (const ir::Temp& temp : kernel.temps()) {
    if (!temp.carried) {
      continue;
    }
    ir::StmtId anchor = -1;
    auto touch = [&](ir::StmtId id) {
      const StmtEntry& entry = index.ByStmtId(id);
      if (entry.in_epilogue) {
        return;  // epilogue is primary-only; no fusion effect
      }
      // An if reading a carried temp fuses everything it guards with the
      // carried group (the guarded code needs the value's core context).
      if (entry.is_if) {
        std::vector<ir::StmtId> guarded;
        GuardedStmts(*entry.stmt, guarded);
        for (ir::StmtId g : guarded) {
          if (anchor == -1) {
            anchor = g;
          } else {
            fuse.Union(anchor, g);
          }
        }
        return;
      }
      if (anchor == -1) {
        anchor = id;
      } else {
        fuse.Union(anchor, id);
      }
    };
    for (ir::StmtId id : index.DefsOf(temp.id)) {
      touch(id);
    }
    for (ir::StmtId id : index.UsesOf(temp.id)) {
      touch(id);
    }
  }

  // ---- fusion: memory conflicts ----
  struct Access {
    const StmtEntry* entry;
    analysis::MemAccess access;
  };
  std::map<ir::SymbolId, std::vector<Access>> by_symbol;
  for (const StmtEntry* entry : members) {
    for (const analysis::MemAccess& access : entry->accesses) {
      by_symbol[access.sym].push_back(Access{entry, access});
    }
  }
  for (const auto& [sym, accesses] : by_symbol) {
    for (std::size_t i = 0; i < accesses.size(); ++i) {
      for (std::size_t j = i + 1; j < accesses.size(); ++j) {
        const Access& a = accesses[i];
        const Access& b = accesses[j];
        if (a.entry->id == b.entry->id) {
          continue;  // same statement, same core by definition
        }
        if (!a.access.is_write && !b.access.is_write) {
          continue;  // read-read never conflicts
        }
        bool conflict = true;
        if (a.access.is_scalar) {
          conflict = true;  // fixed address, collides at every distance
        } else {
          switch (analysis::CompareIndices(a.access.index, b.access.index)) {
            case analysis::Overlap::kNever:
              conflict = false;
              break;
            case analysis::Overlap::kSameIterOnly:
              // Same-iteration-only conflicts from mutually exclusive
              // branches can never actually co-occur.
              conflict = !analysis::MutuallyExclusive(a.entry->path, b.entry->path);
              break;
            case analysis::Overlap::kMayConflict:
              conflict = true;
              break;
          }
        }
        if (conflict) {
          fuse.Union(a.entry->id, b.entry->id);
        }
      }
    }
  }

  // ---- build nodes from fusion classes ----
  std::map<ir::StmtId, int> root_to_node;
  for (const StmtEntry* entry : members) {
    const ir::StmtId root = fuse.Find(entry->id);
    auto [it, inserted] = root_to_node.try_emplace(
        root, static_cast<int>(graph.nodes.size()));
    if (inserted) {
      graph.nodes.emplace_back();
      graph.nodes.back().min_line = entry->stmt->source_line;
    }
    GraphNode& node = graph.nodes[static_cast<std::size_t>(it->second)];
    node.stmts.push_back(entry->id);
    node.cost += cost.StmtCost(kernel, *entry->stmt);
    node.min_line = std::min(node.min_line, entry->stmt->source_line);
    node.compute_ops += StmtComputeOps(kernel, *entry->stmt);
    FGPAR_CHECK(entry->id >= 0);
    const auto id = static_cast<std::size_t>(entry->id);
    if (id >= graph.node_of_.size()) {
      graph.node_of_.resize(id + 1, -1);
    }
    graph.node_of_[id] = it->second;
  }

  // ---- edges: temp dataflow + control dependences ----
  std::set<std::pair<ir::StmtId, ir::StmtId>> seen;
  for (const ir::Temp& temp : kernel.temps()) {
    if (temp.carried) {
      continue;  // carried deps are internal to a fused node
    }
    const auto& defs = index.DefsOf(temp.id);
    if (defs.empty()) {
      continue;
    }
    const ir::StmtId def = defs.front();
    const StmtEntry& def_entry = index.ByStmtId(def);
    if (def_entry.in_epilogue) {
      continue;
    }
    for (ir::StmtId use : index.UsesOf(temp.id)) {
      const StmtEntry& use_entry = index.ByStmtId(use);
      if (use_entry.in_epilogue) {
        continue;  // live-out handling, not a loop dependence
      }
      if (use_entry.is_if) {
        // Control dependence: cond producer -> every guarded statement.
        std::vector<ir::StmtId> guarded;
        GuardedStmts(*use_entry.stmt, guarded);
        for (ir::StmtId g : guarded) {
          if (g != def && seen.emplace(def, g).second) {
            graph.edges.push_back(DepEdge{def, g, /*is_control=*/true});
          }
        }
      } else if (use != def && seen.emplace(def, use).second) {
        graph.edges.push_back(DepEdge{def, use, /*is_control=*/false});
        ++graph.data_dep_count;
      }
    }
  }
  return graph;
}

}  // namespace fgpar::compiler

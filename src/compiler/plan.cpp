#include "compiler/plan.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

using analysis::ControlPath;
using analysis::KernelIndex;

/// True if `item` (transitively) contains a consumer of `temp`: a statement
/// reading it or a replicated if conditioned on it.
bool ContainsConsumer(const ir::Kernel& kernel, const PlanItem& item,
                      ir::TempId temp) {
  switch (item.kind) {
    case PlanItem::Kind::kStmt: {
      bool reads = false;
      const ir::Stmt& stmt = *item.stmt;
      auto check_expr = [&](ir::ExprId e) {
        kernel.VisitExpr(e, [&](ir::ExprId id) {
          const ir::ExprNode& node = kernel.expr(id);
          reads |= node.kind == ir::ExprKind::kTempRef && node.temp == temp;
        });
      };
      if (stmt.kind == ir::StmtKind::kStoreArray) {
        check_expr(stmt.index);
      }
      check_expr(stmt.value);
      return reads;
    }
    case PlanItem::Kind::kIf: {
      const ir::ExprNode& cond = kernel.expr(item.stmt->value);
      if (cond.kind == ir::ExprKind::kTempRef && cond.temp == temp) {
        return true;
      }
      for (const PlanItem& sub : item.then_items) {
        if (ContainsConsumer(kernel, sub, temp)) {
          return true;
        }
      }
      for (const PlanItem& sub : item.else_items) {
        if (ContainsConsumer(kernel, sub, temp)) {
          return true;
        }
      }
      return false;
    }
    case PlanItem::Kind::kEnq: case PlanItem::Kind::kDeq:
      return false;
  }
  return false;
}

class PlanBuilder {
 public:
  PlanBuilder(const KernelIndex& index, const CoreAssignment& partition,
              const CommPlan& comm)
      : index_(index), partition_(partition), comm_(comm) {}

  CorePlan Build(int core) {
    core_ = core;
    replicated_.clear();
    const auto it = comm_.replicated_ifs.find(core);
    if (it != comm_.replicated_ifs.end()) {
      replicated_.insert(it->second.begin(), it->second.end());
    }
    CorePlan plan;
    plan.core = core;
    plan.body = BuildBlock(index_.kernel().loop().body);
    InsertEnqueues(plan.body, /*path=*/{});
    InsertDequeues(plan.body, /*path=*/{});
    return plan;
  }

 private:
  /// Structure pass: owned statements plus replicated ifs, program order.
  std::vector<PlanItem> BuildBlock(const std::vector<ir::Stmt>& stmts) {
    std::vector<PlanItem> items;
    for (const ir::Stmt& stmt : stmts) {
      if (stmt.kind == ir::StmtKind::kIf) {
        if (!replicated_.contains(stmt.id)) {
          continue;
        }
        PlanItem item;
        item.kind = PlanItem::Kind::kIf;
        item.stmt = &stmt;
        item.then_items = BuildBlock(stmt.then_body);
        item.else_items = BuildBlock(stmt.else_body);
        items.push_back(std::move(item));
      } else {
        const auto it = partition_.core_of.find(stmt.id);
        if (it != partition_.core_of.end() && it->second == core_) {
          PlanItem item;
          item.kind = PlanItem::Kind::kStmt;
          item.stmt = &stmt;
          items.push_back(std::move(item));
        }
      }
    }
    return items;
  }

  /// Inserts an enqueue right after each owned producer statement, multiple
  /// destinations in ascending core order.
  void InsertEnqueues(std::vector<PlanItem>& items, const ControlPath& path) {
    std::vector<PlanItem> out;
    for (PlanItem& item : items) {
      if (item.kind == PlanItem::Kind::kIf) {
        ControlPath then_path = path;
        then_path.push_back(analysis::PathStep{item.stmt->id, true});
        InsertEnqueues(item.then_items, then_path);
        ControlPath else_path = path;
        else_path.push_back(analysis::PathStep{item.stmt->id, false});
        InsertEnqueues(item.else_items, else_path);
        out.push_back(std::move(item));
        continue;
      }
      const ir::StmtId id =
          item.kind == PlanItem::Kind::kStmt ? item.stmt->id : -1;
      out.push_back(std::move(item));
      if (id < 0) {
        continue;
      }
      std::vector<int> outgoing;
      for (const Transfer& t : comm_.transfers) {
        if (t.src_core == core_ && t.producer_stmt == id) {
          outgoing.push_back(t.id);
        }
      }
      std::sort(outgoing.begin(), outgoing.end(), [&](int a, int b) {
        return comm_.transfers[static_cast<std::size_t>(a)].dst_core <
               comm_.transfers[static_cast<std::size_t>(b)].dst_core;
      });
      for (int t : outgoing) {
        PlanItem enq;
        enq.kind = PlanItem::Kind::kEnq;
        enq.transfer = t;
        out.push_back(std::move(enq));
      }
    }
    items = std::move(out);
  }

  /// Inserts dequeues in each block at the producer path, per source core
  /// and register class, in producer emission order at the suffix minimum
  /// of first-use positions, each no later than a replicated if that
  /// dequeues a later-produced value from the same queue.
  void InsertDequeues(std::vector<PlanItem>& items, const ControlPath& path) {
    // Recurse into replicated ifs first (deeper producer paths).
    for (PlanItem& item : items) {
      if (item.kind == PlanItem::Kind::kIf) {
        ControlPath then_path = path;
        then_path.push_back(analysis::PathStep{item.stmt->id, true});
        InsertDequeues(item.then_items, then_path);
        ControlPath else_path = path;
        else_path.push_back(analysis::PathStep{item.stmt->id, false});
        InsertDequeues(item.else_items, else_path);
      }
    }
    // Transfers into this core whose producer path is exactly `path`,
    // grouped by (source core, register class).
    struct Incoming {
      int transfer;
      ir::StmtId producer;
      std::size_t first_use;
    };
    std::map<std::pair<int, bool>, std::vector<Incoming>> groups;
    for (const Transfer& t : comm_.transfers) {
      if (t.dst_core != core_ || t.path != path) {
        continue;
      }
      std::size_t first_use = items.size();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (ContainsConsumer(index_.kernel(), items[i], t.temp)) {
          first_use = i;
          break;
        }
      }
      FGPAR_CHECK_MSG(first_use < items.size(),
                      "transfer without a consumer in its placement block");
      // A replicated if before that use which dequeues a later-produced
      // value from the same queue bounds the position: the producer
      // enqueued this value first.
      const bool is_fp = t.type == ir::ScalarType::kF64;
      for (std::size_t i = 0; i < first_use; ++i) {
        if (items[i].kind == PlanItem::Kind::kIf &&
            DequeuesLater(items[i], t.src_core, is_fp, t.producer_stmt)) {
          first_use = i;
          break;
        }
      }
      groups[{t.src_core, is_fp}].push_back(
          Incoming{t.id, t.producer_stmt, first_use});
    }
    if (groups.empty()) {
      return;
    }
    // Compute insertion positions: producer order with suffix minima.
    std::vector<std::pair<std::size_t, int>> insertions;  // (before index, id)
    for (auto& [key, incoming] : groups) {
      std::sort(incoming.begin(), incoming.end(),
                [](const Incoming& a, const Incoming& b) {
                  return a.producer < b.producer;
                });
      for (std::size_t i = incoming.size(); i-- > 1;) {
        incoming[i - 1].first_use =
            std::min(incoming[i - 1].first_use, incoming[i].first_use);
      }
      for (const Incoming& in : incoming) {
        insertions.emplace_back(in.first_use, in.transfer);
      }
    }
    // Stable order: by position, then by (src, class, producer) — the group
    // iteration above already yields producer order within a group.
    std::stable_sort(insertions.begin(), insertions.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<PlanItem> out;
    std::size_t next = 0;
    for (std::size_t i = 0; i <= items.size(); ++i) {
      while (next < insertions.size() && insertions[next].first == i) {
        PlanItem deq;
        deq.kind = PlanItem::Kind::kDeq;
        deq.transfer = insertions[next].second;
        out.push_back(std::move(deq));
        ++next;
      }
      if (i < items.size()) {
        out.push_back(std::move(items[i]));
      }
    }
    items = std::move(out);
  }

  /// True if `item` (transitively) dequeues from queue (`src`, `is_fp`) a
  /// transfer whose producer follows `producer`.
  bool DequeuesLater(const PlanItem& item, int src, bool is_fp,
                     ir::StmtId producer) const {
    if (item.kind == PlanItem::Kind::kDeq) {
      const Transfer& t = comm_.transfers[static_cast<std::size_t>(item.transfer)];
      return t.src_core == src && (t.type == ir::ScalarType::kF64) == is_fp &&
             t.producer_stmt > producer;
    }
    const auto later = [&](const PlanItem& sub) {
      return DequeuesLater(sub, src, is_fp, producer);
    };
    return std::any_of(item.then_items.begin(), item.then_items.end(), later) ||
           std::any_of(item.else_items.begin(), item.else_items.end(), later);
  }

  const KernelIndex& index_;
  const CoreAssignment& partition_;
  const CommPlan& comm_;
  int core_ = -1;
  std::set<ir::StmtId> replicated_;
};

}  // namespace

ProgramPlan BuildProgramPlan(const KernelIndex& index,
                             const CoreAssignment& partition, CommPlan comm) {
  ProgramPlan plan;
  plan.comm = std::move(comm);
  PlanBuilder builder(index, partition, plan.comm);
  for (int c = 0; c < static_cast<int>(partition.partitions.size()); ++c) {
    plan.cores.push_back(builder.Build(c));
  }
  return plan;
}

}  // namespace fgpar::compiler

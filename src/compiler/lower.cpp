#include "compiler/lower.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "isa/assembler.hpp"
#include "support/error.hpp"

namespace fgpar::compiler {
namespace {

using isa::Assembler;
using isa::Fpr;
using isa::Gpr;
using isa::Label;

// Fixed general-purpose registers every generated function sets up.
constexpr std::uint8_t kZero = 0;   // always 0
constexpr std::uint8_t kOne = 1;    // always 1
constexpr std::uint8_t kIv = 2;     // induction variable
constexpr std::uint8_t kUpper = 3;  // loop upper bound
constexpr std::uint8_t kFirstDedicatedG = 4;
constexpr std::uint8_t kDriverScratch = 4;  // used only by the driver loop

/// Emits one function's worth of code: register assignment, expression and
/// statement lowering, the loop skeleton, and plan-item walking.
class FnEmitter {
 public:
  FnEmitter(Assembler& a, const ir::Kernel& kernel, const ir::DataLayout& layout)
      : a_(a), k_(kernel), layout_(layout) {}

  /// A value in a register.  Scratch registers must be released; a
  /// last-use read of a locally-allocated temp also carries its release.
  struct R {
    std::uint8_t reg = 0;
    bool scratch = false;
    bool fp = false;
    ir::TempId release_local = -1;  // local temp whose register frees here
  };

  // ---- function prologue pieces ----

  void SetupConstants() {
    a_.LiI(Gpr{kZero}, 0);
    a_.LiI(Gpr{kOne}, 1);
  }

  /// Declares the *pinned* temps (carried values, queue-transferred values,
  /// live-outs, epilogue inputs): they hold one register for the whole
  /// function and are zero/init-initialized.  Must be called before
  /// emission so dedicated registers and the scratch pool don't collide.
  void DedicateTemps(const std::set<ir::TempId>& temps) {
    for (ir::TempId t : temps) {
      const bool fp = k_.temp(t).type == ir::ScalarType::kF64;
      auto& map = fp ? temp_reg_f_ : temp_reg_g_;
      auto& next = fp ? next_f_ : next_g_;
      FGPAR_CHECK_MSG(next < kScratchReserve(fp),
                      "out of dedicated registers for temps in kernel " + k_.name());
      map[t] = next++;
      pinned_.insert(t);
    }
  }

  /// Registers the read counts of locally-allocated temps: a local temp's
  /// register is claimed at its defining assignment and recycled after its
  /// textually last read (every runtime read is re-dominated by a fresh
  /// definition each iteration, so textual lifetime bounds runtime
  /// lifetime).
  void SetLocalReadCounts(const std::map<ir::TempId, int>& reads) {
    local_reads_ = reads;
  }

  void DedicateParams(const std::set<ir::SymbolId>& params) {
    for (ir::SymbolId p : params) {
      const bool fp = k_.symbol(p).type == ir::ScalarType::kF64;
      auto& map = fp ? param_reg_f_ : param_reg_g_;
      auto& next = fp ? next_f_ : next_g_;
      FGPAR_CHECK_MSG(next < kScratchReserve(fp),
                      "out of dedicated registers for params in kernel " + k_.name());
      map[p] = next++;
    }
  }

  /// Primary: loads parameter values from the layout's parameter block.
  void LoadParams() {
    for (const auto& [sym, reg] : param_reg_g_) {
      a_.Comment("param " + k_.symbol(sym).name);
      a_.LdI(Gpr{reg}, Gpr{kZero},
             static_cast<std::int64_t>(layout_.ParamAddressOf(sym)));
    }
    for (const auto& [sym, reg] : param_reg_f_) {
      a_.Comment("param " + k_.symbol(sym).name);
      a_.LdF(Fpr{reg}, Gpr{kZero},
             static_cast<std::int64_t>(layout_.ParamAddressOf(sym)));
    }
  }

  /// Secondary: receives parameter values from the primary's queues, in
  /// ascending symbol-id order per register class (the primary enqueues in
  /// ascending symbol-id order, so each class's FIFO order matches).
  void DeqParams(const std::vector<ir::SymbolId>& args) {
    for (ir::SymbolId sym : args) {
      a_.Comment("arg " + k_.symbol(sym).name);
      if (k_.symbol(sym).type == ir::ScalarType::kF64) {
        a_.DeqF(0, Fpr{param_reg_f_.at(sym)});
      } else {
        a_.DeqI(0, Gpr{param_reg_g_.at(sym)});
      }
    }
  }

  /// Initializes dedicated temp registers: carried temps to their declared
  /// initial value, plain temps to zero (matching the interpreter).
  void InitTemps() {
    for (const auto& [t, reg] : temp_reg_g_) {
      const ir::Temp& temp = k_.temp(t);
      a_.LiI(Gpr{reg}, temp.carried ? temp.init_i : 0);
    }
    for (const auto& [t, reg] : temp_reg_f_) {
      const ir::Temp& temp = k_.temp(t);
      a_.LiF(Fpr{reg}, temp.carried ? temp.init_f : 0.0);
    }
  }

  // ---- the loop skeleton ----

  /// Emits for (iv = lower; iv < upper; ++iv) { body() } as a rotated
  /// loop (guard + bottom test) so steady-state iterations pay exactly one
  /// taken branch.
  void EmitLoop(const std::function<void()>& body) {
    EmitExprInto(k_.loop().lower, kIv, /*fp=*/false);
    EmitExprInto(k_.loop().upper, kUpper, /*fp=*/false);
    Label top = a_.NewLabel();
    Label end = a_.NewLabel();
    R guard = AllocG();
    a_.CltI(Gpr{guard.reg}, Gpr{kIv}, Gpr{kUpper});
    a_.Bz(Gpr{guard.reg}, end);
    Release(guard);
    a_.Bind(top);
    body();
    a_.AddI(Gpr{kIv}, Gpr{kIv}, Gpr{kOne});
    R cond = AllocG();
    a_.CltI(Gpr{cond.reg}, Gpr{kIv}, Gpr{kUpper});
    a_.Bnz(Gpr{cond.reg}, top);
    Release(cond);
    a_.Bind(end);
  }

  // ---- statement / plan-item emission ----

  void EmitStmtList(const std::vector<ir::Stmt>& stmts) {
    for (const ir::Stmt& stmt : stmts) {
      EmitStmt(stmt);
    }
  }

  void EmitStmt(const ir::Stmt& stmt) {
    switch (stmt.kind) {
      case ir::StmtKind::kAssignTemp: {
        a_.Comment(k_.temp(stmt.temp).name + " = ...");
        const bool fp = k_.temp(stmt.temp).type == ir::ScalarType::kF64;
        std::uint8_t target;
        if (pinned_.contains(stmt.temp)) {
          target = fp ? temp_reg_f_.at(stmt.temp) : temp_reg_g_.at(stmt.temp);
        } else if (local_live_.contains(stmt.temp)) {
          // Carried-style re-assignment of an already-live local cannot
          // happen (locals are plain SSA temps); defensive lookup only.
          target = local_live_.at(stmt.temp);
        } else {
          target = ClaimLocal(stmt.temp, fp);
        }
        EmitExprInto(stmt.value, target, fp);
        // A local temp that is never read frees immediately.
        if (!pinned_.contains(stmt.temp)) {
          auto it = local_reads_.find(stmt.temp);
          if (it == local_reads_.end() || it->second == 0) {
            (fp ? local_free_f_ : local_free_g_).push_back(target);
            local_live_.erase(stmt.temp);
          }
        }
        break;
      }
      case ir::StmtKind::kStoreScalar: {
        a_.Comment("store " + k_.symbol(stmt.sym).name);
        R value = EmitExpr(stmt.value);
        const std::int64_t addr =
            static_cast<std::int64_t>(layout_.AddressOf(stmt.sym));
        if (value.fp) {
          a_.StF(Fpr{value.reg}, Gpr{kZero}, addr);
        } else {
          a_.StI(Gpr{value.reg}, Gpr{kZero}, addr);
        }
        Release(value);
        break;
      }
      case ir::StmtKind::kStoreArray: {
        a_.Comment("store " + k_.symbol(stmt.sym).name + "[...]");
        R index = EmitExpr(stmt.index);
        R value = EmitExpr(stmt.value);
        R base = AllocG();
        a_.LiI(Gpr{base.reg},
               static_cast<std::int64_t>(layout_.AddressOf(stmt.sym)));
        if (value.fp) {
          a_.StFX(Fpr{value.reg}, Gpr{base.reg}, Gpr{index.reg});
        } else {
          a_.StIX(Gpr{value.reg}, Gpr{base.reg}, Gpr{index.reg});
        }
        Release(base);
        Release(value);
        Release(index);
        break;
      }
      case ir::StmtKind::kIf:
        EmitIf(stmt, [&] { EmitStmtList(stmt.then_body); },
               [&] { EmitStmtList(stmt.else_body); });
        break;
    }
  }

  void EmitIf(const ir::Stmt& stmt, const std::function<void()>& then_fn,
              const std::function<void()>& else_fn) {
    R cond = EmitExpr(stmt.value);
    Label else_label = a_.NewLabel();
    Label end_label = a_.NewLabel();
    a_.Bz(Gpr{cond.reg}, else_label);
    Release(cond);
    then_fn();
    a_.Jmp(end_label);
    a_.Bind(else_label);
    else_fn();
    a_.Bind(end_label);
  }

  void EmitPlanItems(const std::vector<PlanItem>& items, const CommPlan& comm) {
    for (const PlanItem& item : items) {
      switch (item.kind) {
        case PlanItem::Kind::kStmt:
          EmitStmt(*item.stmt);
          break;
        case PlanItem::Kind::kIf:
          EmitIf(*item.stmt, [&] { EmitPlanItems(item.then_items, comm); },
                 [&] { EmitPlanItems(item.else_items, comm); });
          break;
        case PlanItem::Kind::kEnq: {
          const Transfer& t =
              comm.transfers[static_cast<std::size_t>(item.transfer)];
          a_.Comment("send " + k_.temp(t.temp).name + " -> core " +
                     std::to_string(t.dst_core));
          if (t.type == ir::ScalarType::kF64) {
            a_.EnqF(t.dst_core, Fpr{TempReg(t.temp, true)});
          } else {
            a_.EnqI(t.dst_core, Gpr{TempReg(t.temp, false)});
          }
          break;
        }
        case PlanItem::Kind::kDeq: {
          const Transfer& t =
              comm.transfers[static_cast<std::size_t>(item.transfer)];
          a_.Comment("recv " + k_.temp(t.temp).name + " <- core " +
                     std::to_string(t.src_core));
          if (t.type == ir::ScalarType::kF64) {
            a_.DeqF(t.src_core, Fpr{TempReg(t.temp, true)});
          } else {
            a_.DeqI(t.src_core, Gpr{TempReg(t.temp, false)});
          }
          break;
        }
      }
    }
  }

  // ---- queue helpers for prologue/epilogue traffic ----

  void EnqTempTo(int core, ir::TempId temp) {
    if (k_.temp(temp).type == ir::ScalarType::kF64) {
      a_.EnqF(core, Fpr{temp_reg_f_.at(temp)});
    } else {
      a_.EnqI(core, Gpr{temp_reg_g_.at(temp)});
    }
  }

  void DeqTempFrom(int core, ir::TempId temp) {
    if (k_.temp(temp).type == ir::ScalarType::kF64) {
      a_.DeqF(core, Fpr{temp_reg_f_.at(temp)});
    } else {
      a_.DeqI(core, Gpr{temp_reg_g_.at(temp)});
    }
  }

  void EnqParamTo(int core, ir::SymbolId sym) {
    if (k_.symbol(sym).type == ir::ScalarType::kF64) {
      a_.EnqF(core, Fpr{param_reg_f_.at(sym)});
    } else {
      a_.EnqI(core, Gpr{param_reg_g_.at(sym)});
    }
  }

  Assembler& assembler() { return a_; }

  /// Register of a pinned or currently-live local temp.
  std::uint8_t TempReg(ir::TempId t, bool fp) {
    auto& pinned_map = fp ? temp_reg_f_ : temp_reg_g_;
    const auto it = pinned_map.find(t);
    if (it != pinned_map.end()) {
      return it->second;
    }
    const auto local_it = local_live_.find(t);
    FGPAR_CHECK_MSG(local_it != local_live_.end(),
                    "read of local temp with no live register: " + k_.temp(t).name);
    return local_it->second;
  }

  /// Claims a register for a local temp's defining assignment.
  std::uint8_t ClaimLocal(ir::TempId t, bool fp) {
    FGPAR_CHECK_MSG(!local_live_.contains(t), "local temp redefined");
    auto& pool = fp ? local_free_f_ : local_free_g_;
    std::uint8_t reg;
    if (!pool.empty()) {
      reg = pool.back();
      pool.pop_back();
    } else {
      auto& next = fp ? next_f_ : next_g_;
      FGPAR_CHECK_MSG(next < kScratchReserve(fp),
                      "out of registers for local temps in kernel " + k_.name());
      reg = next++;
    }
    local_live_[t] = reg;
    return reg;
  }

  // ---- expression lowering ----

  /// Evaluates `id` directly into `target` (no extra move for compound
  /// expressions; a single move/load/li for leaves).
  void EmitExprInto(ir::ExprId id, std::uint8_t target, bool fp) {
    const ir::ExprNode& node = k_.expr(id);
    switch (node.kind) {
      case ir::ExprKind::kUnary:
      case ir::ExprKind::kBinary:
      case ir::ExprKind::kSelect:
      case ir::ExprKind::kConstI:
      case ir::ExprKind::kConstF:
      case ir::ExprKind::kScalarRef:
      case ir::ExprKind::kArrayRef: {
        R r = EmitExpr(id, static_cast<int>(target));
        FGPAR_CHECK(r.reg == target);
        return;
      }
      default: {
        // Register-resident leaves need a move (unless already in place).
        R r = EmitExpr(id);
        if (r.reg != target || r.fp != fp) {
          if (fp) {
            a_.MovF(Fpr{target}, Fpr{r.reg});
          } else {
            a_.MovI(Gpr{target}, Gpr{r.reg});
          }
        }
        Release(r);
        return;
      }
    }
  }

  /// Evaluates `id`; if `target` >= 0 the result is produced in that
  /// register (valid only for value-producing node kinds, see EmitExprInto).
  R EmitExpr(ir::ExprId id, int target = -1) {
    const ir::ExprNode& node = k_.expr(id);
    const bool node_fp = node.type == ir::ScalarType::kF64;
    auto dest = [&]() {
      if (target >= 0) {
        return R{static_cast<std::uint8_t>(target), false, node_fp};
      }
      return node_fp ? AllocF() : AllocG();
    };
    switch (node.kind) {
      case ir::ExprKind::kConstI: {
        R r = dest();
        a_.LiI(Gpr{r.reg}, node.const_i);
        return r;
      }
      case ir::ExprKind::kConstF: {
        R r = dest();
        a_.LiF(Fpr{r.reg}, node.const_f);
        return r;
      }
      case ir::ExprKind::kIvRef:
        return R{kIv, false, false};
      case ir::ExprKind::kParamRef:
        if (node_fp) {
          return R{param_reg_f_.at(node.sym), false, true};
        }
        return R{param_reg_g_.at(node.sym), false, false};
      case ir::ExprKind::kTempRef: {
        const std::uint8_t reg = TempReg(node.temp, node_fp);
        ir::TempId release = -1;
        if (!pinned_.contains(node.temp)) {
          auto it = local_reads_.find(node.temp);
          FGPAR_CHECK_MSG(it != local_reads_.end() && it->second > 0,
                          "unaccounted read of local temp " +
                              k_.temp(node.temp).name);
          if (--it->second == 0) {
            release = node.temp;  // recycled by the consuming Release()
          }
        }
        return R{reg, false, node_fp, release};
      }
      case ir::ExprKind::kScalarRef: {
        const std::int64_t addr =
            static_cast<std::int64_t>(layout_.AddressOf(node.sym));
        R r = dest();
        if (node_fp) {
          a_.LdF(Fpr{r.reg}, Gpr{kZero}, addr);
        } else {
          a_.LdI(Gpr{r.reg}, Gpr{kZero}, addr);
        }
        return r;
      }
      case ir::ExprKind::kArrayRef: {
        R index = EmitExpr(node.child[0]);
        R base = AllocG();
        a_.LiI(Gpr{base.reg},
               static_cast<std::int64_t>(layout_.AddressOf(node.sym)));
        R result = dest();
        if (node_fp) {
          a_.LdFX(Fpr{result.reg}, Gpr{base.reg}, Gpr{index.reg});
        } else {
          a_.LdIX(Gpr{result.reg}, Gpr{base.reg}, Gpr{index.reg});
        }
        Release(base);
        Release(index);
        return result;
      }
      case ir::ExprKind::kUnary:
        return EmitUnary(node, target);
      case ir::ExprKind::kBinary:
        return EmitBinary(node, target);
      case ir::ExprKind::kSelect: {
        R cond = EmitExpr(node.child[0]);
        R a = EmitExpr(node.child[1]);
        R b = EmitExpr(node.child[2]);
        Label end = a_.NewLabel();
        R result = dest();
        if (node_fp) {
          a_.MovF(Fpr{result.reg}, Fpr{a.reg});
          a_.Bnz(Gpr{cond.reg}, end);
          a_.MovF(Fpr{result.reg}, Fpr{b.reg});
        } else {
          a_.MovI(Gpr{result.reg}, Gpr{a.reg});
          a_.Bnz(Gpr{cond.reg}, end);
          a_.MovI(Gpr{result.reg}, Gpr{b.reg});
        }
        a_.Bind(end);
        Release(b);
        Release(a);
        Release(cond);
        return result;
      }
    }
    FGPAR_UNREACHABLE("bad ExprKind");
  }

  void Release(R r) {
    if (r.release_local >= 0) {
      const auto it = local_live_.find(r.release_local);
      if (it != local_live_.end() && it->second == r.reg) {
        (r.fp ? local_free_f_ : local_free_g_).push_back(r.reg);
        local_live_.erase(it);
      }
      return;
    }
    if (!r.scratch) {
      return;
    }
    auto& pool = r.fp ? free_f_ : free_g_;
    pool.push_back(r.reg);
  }

 private:
  static std::uint8_t kScratchReserve(bool fp) {
    // Top 12 registers of each file are the scratch pool.
    return fp ? isa::kNumFpr - 12 : isa::kNumGpr - 12;
  }

  R AllocG() {
    if (free_g_.empty()) {
      FGPAR_CHECK_MSG(scratch_g_ < isa::kNumGpr,
                      "out of integer scratch registers in kernel " + k_.name());
      return R{scratch_g_++, true, false};
    }
    const std::uint8_t reg = free_g_.back();
    free_g_.pop_back();
    return R{reg, true, false};
  }

  R AllocF() {
    if (free_f_.empty()) {
      FGPAR_CHECK_MSG(scratch_f_ < isa::kNumFpr,
                      "out of fp scratch registers in kernel " + k_.name());
      return R{scratch_f_++, true, true};
    }
    const std::uint8_t reg = free_f_.back();
    free_f_.pop_back();
    return R{reg, true, true};
  }

  R EmitUnary(const ir::ExprNode& node, int target = -1) {
    auto dest_g = [&]() {
      return target >= 0 ? R{static_cast<std::uint8_t>(target), false, false}
                         : AllocG();
    };
    auto dest_f = [&]() {
      return target >= 0 ? R{static_cast<std::uint8_t>(target), false, true}
                         : AllocF();
    };
    R operand = EmitExpr(node.child[0]);
    switch (node.un) {
      case ir::UnOp::kNeg:
        if (node.type == ir::ScalarType::kF64) {
          R r = dest_f();
          a_.NegF(Fpr{r.reg}, Fpr{operand.reg});
          Release(operand);
          return r;
        } else {
          R r = dest_g();
          a_.SubI(Gpr{r.reg}, Gpr{kZero}, Gpr{operand.reg});
          Release(operand);
          return r;
        }
      case ir::UnOp::kAbs:
        if (node.type == ir::ScalarType::kF64) {
          R r = dest_f();
          a_.AbsF(Fpr{r.reg}, Fpr{operand.reg});
          Release(operand);
          return r;
        } else {
          R neg = AllocG();
          a_.SubI(Gpr{neg.reg}, Gpr{kZero}, Gpr{operand.reg});
          R r = dest_g();
          a_.MaxI(Gpr{r.reg}, Gpr{operand.reg}, Gpr{neg.reg});
          Release(neg);
          Release(operand);
          return r;
        }
      case ir::UnOp::kSqrt: {
        R r = dest_f();
        a_.SqrtF(Fpr{r.reg}, Fpr{operand.reg});
        Release(operand);
        return r;
      }
      case ir::UnOp::kNot: {
        R r = dest_g();
        a_.CeqI(Gpr{r.reg}, Gpr{operand.reg}, Gpr{kZero});
        Release(operand);
        return r;
      }
      case ir::UnOp::kI2F: {
        R r = dest_f();
        a_.ItoF(Fpr{r.reg}, Gpr{operand.reg});
        Release(operand);
        return r;
      }
      case ir::UnOp::kF2I: {
        R r = dest_g();
        a_.FtoI(Gpr{r.reg}, Fpr{operand.reg});
        Release(operand);
        return r;
      }
    }
    FGPAR_UNREACHABLE("bad UnOp");
  }

  R EmitBinary(const ir::ExprNode& node, int target = -1) {
    R lhs = EmitExpr(node.child[0]);
    R rhs = EmitExpr(node.child[1]);
    const bool operands_fp = lhs.fp;
    auto rg = [&](auto emit) {
      R r = target >= 0 ? R{static_cast<std::uint8_t>(target), false, false}
                        : AllocG();
      emit(r.reg);
      Release(rhs);
      Release(lhs);
      return r;
    };
    auto rf = [&](auto emit) {
      R r = target >= 0 ? R{static_cast<std::uint8_t>(target), false, true}
                        : AllocF();
      emit(r.reg);
      Release(rhs);
      Release(lhs);
      return r;
    };
    const std::uint8_t a = lhs.reg;
    const std::uint8_t b = rhs.reg;
    if (!operands_fp) {
      switch (node.bin) {
        case ir::BinOp::kAdd: return rg([&](std::uint8_t d) { a_.AddI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kSub: return rg([&](std::uint8_t d) { a_.SubI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kMul: return rg([&](std::uint8_t d) { a_.MulI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kDiv: return rg([&](std::uint8_t d) { a_.DivI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kRem: return rg([&](std::uint8_t d) { a_.RemI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kMin: return rg([&](std::uint8_t d) { a_.MinI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kMax: return rg([&](std::uint8_t d) { a_.MaxI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kAnd: return rg([&](std::uint8_t d) { a_.AndI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kOr: return rg([&](std::uint8_t d) { a_.OrI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kXor: return rg([&](std::uint8_t d) { a_.XorI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kShl: return rg([&](std::uint8_t d) { a_.ShlI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kShr: return rg([&](std::uint8_t d) { a_.ShrI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kEq: return rg([&](std::uint8_t d) { a_.CeqI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kNe: return rg([&](std::uint8_t d) { a_.CneI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kLt: return rg([&](std::uint8_t d) { a_.CltI(Gpr{d}, Gpr{a}, Gpr{b}); });
        case ir::BinOp::kLe: return rg([&](std::uint8_t d) { a_.CleI(Gpr{d}, Gpr{a}, Gpr{b}); });
      }
    } else {
      switch (node.bin) {
        case ir::BinOp::kAdd: return rf([&](std::uint8_t d) { a_.AddF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kSub: return rf([&](std::uint8_t d) { a_.SubF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kMul: return rf([&](std::uint8_t d) { a_.MulF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kDiv: return rf([&](std::uint8_t d) { a_.DivF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kMin: return rf([&](std::uint8_t d) { a_.MinF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kMax: return rf([&](std::uint8_t d) { a_.MaxF(Fpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kEq: return rg([&](std::uint8_t d) { a_.CeqF(Gpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kLt: return rg([&](std::uint8_t d) { a_.CltF(Gpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kLe: return rg([&](std::uint8_t d) { a_.CleF(Gpr{d}, Fpr{a}, Fpr{b}); });
        case ir::BinOp::kNe: {
          R r = rg([&](std::uint8_t d) { a_.CeqF(Gpr{d}, Fpr{a}, Fpr{b}); });
          a_.XorI(Gpr{r.reg}, Gpr{r.reg}, Gpr{kOne});
          return r;
        }
        default:
          FGPAR_UNREACHABLE("int-only operator on f64 operands");
      }
    }
    FGPAR_UNREACHABLE("bad BinOp");
  }

  Assembler& a_;
  const ir::Kernel& k_;
  const ir::DataLayout& layout_;
  std::map<ir::TempId, std::uint8_t> temp_reg_g_;
  std::map<ir::TempId, std::uint8_t> temp_reg_f_;
  std::map<ir::SymbolId, std::uint8_t> param_reg_g_;
  std::map<ir::SymbolId, std::uint8_t> param_reg_f_;
  std::uint8_t next_g_ = kFirstDedicatedG;
  std::uint8_t next_f_ = 0;
  std::uint8_t scratch_g_ = kScratchReserve(false);
  std::uint8_t scratch_f_ = kScratchReserve(true);
  std::vector<std::uint8_t> free_g_;
  std::vector<std::uint8_t> free_f_;
  std::set<ir::TempId> pinned_;
  std::map<ir::TempId, int> local_reads_;
  std::map<ir::TempId, std::uint8_t> local_live_;
  std::vector<std::uint8_t> local_free_g_;
  std::vector<std::uint8_t> local_free_f_;
};

// ---- referenced-entity collection ----

void CollectFromExpr(const ir::Kernel& k, ir::ExprId expr,
                     std::set<ir::TempId>& temps, std::set<ir::SymbolId>& params) {
  k.VisitExpr(expr, [&](ir::ExprId e) {
    const ir::ExprNode& node = k.expr(e);
    if (node.kind == ir::ExprKind::kTempRef) {
      temps.insert(node.temp);
    } else if (node.kind == ir::ExprKind::kParamRef) {
      params.insert(node.sym);
    }
  });
}

void CollectFromStmt(const ir::Kernel& k, const ir::Stmt& stmt,
                     std::set<ir::TempId>& temps, std::set<ir::SymbolId>& params) {
  switch (stmt.kind) {
    case ir::StmtKind::kAssignTemp:
      temps.insert(stmt.temp);
      CollectFromExpr(k, stmt.value, temps, params);
      break;
    case ir::StmtKind::kStoreScalar:
      CollectFromExpr(k, stmt.value, temps, params);
      break;
    case ir::StmtKind::kStoreArray:
      CollectFromExpr(k, stmt.index, temps, params);
      CollectFromExpr(k, stmt.value, temps, params);
      break;
    case ir::StmtKind::kIf:
      CollectFromExpr(k, stmt.value, temps, params);
      for (const ir::Stmt& s : stmt.then_body) {
        CollectFromStmt(k, s, temps, params);
      }
      for (const ir::Stmt& s : stmt.else_body) {
        CollectFromStmt(k, s, temps, params);
      }
      break;
  }
}

/// Counts TempRef occurrences exactly as emission will perform them.
void CountReadsExpr(const ir::Kernel& k, ir::ExprId expr,
                    std::map<ir::TempId, int>& reads) {
  k.VisitExpr(expr, [&](ir::ExprId e) {
    const ir::ExprNode& node = k.expr(e);
    if (node.kind == ir::ExprKind::kTempRef) {
      ++reads[node.temp];
    }
  });
}

void CountReadsStmt(const ir::Kernel& k, const ir::Stmt& stmt,
                    std::map<ir::TempId, int>& reads) {
  switch (stmt.kind) {
    case ir::StmtKind::kAssignTemp:
    case ir::StmtKind::kStoreScalar:
      CountReadsExpr(k, stmt.value, reads);
      break;
    case ir::StmtKind::kStoreArray:
      CountReadsExpr(k, stmt.index, reads);
      CountReadsExpr(k, stmt.value, reads);
      break;
    case ir::StmtKind::kIf:
      CountReadsExpr(k, stmt.value, reads);
      for (const ir::Stmt& sub : stmt.then_body) {
        CountReadsStmt(k, sub, reads);
      }
      for (const ir::Stmt& sub : stmt.else_body) {
        CountReadsStmt(k, sub, reads);
      }
      break;
  }
}

void CountReadsItems(const ir::Kernel& k, const std::vector<PlanItem>& items,
                     std::map<ir::TempId, int>& reads) {
  for (const PlanItem& item : items) {
    switch (item.kind) {
      case PlanItem::Kind::kStmt:
        CountReadsStmt(k, *item.stmt, reads);
        break;
      case PlanItem::Kind::kIf:
        CountReadsExpr(k, item.stmt->value, reads);
        CountReadsItems(k, item.then_items, reads);
        CountReadsItems(k, item.else_items, reads);
        break;
      case PlanItem::Kind::kEnq:
      case PlanItem::Kind::kDeq:
        break;  // queue ops address pinned registers directly
    }
  }
}

void CollectFromItems(const ir::Kernel& k, const std::vector<PlanItem>& items,
                      const CommPlan& comm, std::set<ir::TempId>& temps,
                      std::set<ir::SymbolId>& params) {
  for (const PlanItem& item : items) {
    switch (item.kind) {
      case PlanItem::Kind::kStmt:
        CollectFromStmt(k, *item.stmt, temps, params);
        break;
      case PlanItem::Kind::kIf:
        CollectFromExpr(k, item.stmt->value, temps, params);
        CollectFromItems(k, item.then_items, comm, temps, params);
        CollectFromItems(k, item.else_items, comm, temps, params);
        break;
      case PlanItem::Kind::kEnq:
      case PlanItem::Kind::kDeq:
        temps.insert(
            comm.transfers[static_cast<std::size_t>(item.transfer)].temp);
        break;
    }
  }
}

}  // namespace

isa::Program LowerSequential(const ir::Kernel& kernel, const ir::DataLayout& layout) {
  std::set<ir::TempId> temps;
  std::set<ir::SymbolId> params;
  for (const ir::Stmt& stmt : kernel.loop().body) {
    CollectFromStmt(kernel, stmt, temps, params);
  }
  for (const ir::Stmt& stmt : kernel.epilogue()) {
    CollectFromStmt(kernel, stmt, temps, params);
  }
  CollectFromExpr(kernel, kernel.loop().lower, temps, params);
  CollectFromExpr(kernel, kernel.loop().upper, temps, params);

  std::map<ir::TempId, int> reads;
  for (const ir::Stmt& stmt : kernel.loop().body) {
    CountReadsStmt(kernel, stmt, reads);
  }
  std::set<ir::TempId> pinned;
  for (ir::TempId t : temps) {
    if (kernel.temp(t).carried) {
      pinned.insert(t);
    }
  }
  // Epilogue inputs must survive the loop and be defined on zero trips.
  {
    std::map<ir::TempId, int> epilogue_reads;
    for (const ir::Stmt& stmt : kernel.epilogue()) {
      CountReadsStmt(kernel, stmt, epilogue_reads);
      CountReadsStmt(kernel, stmt, reads);
    }
    for (const auto& [t, count] : epilogue_reads) {
      (void)count;
      pinned.insert(t);
    }
  }

  Assembler asm2;
  isa::Label main = asm2.NewNamedLabel("main");
  asm2.Bind(main);
  FnEmitter emitter(asm2, kernel, layout);
  emitter.DedicateParams(params);
  emitter.DedicateTemps(pinned);
  emitter.SetLocalReadCounts(reads);
  emitter.SetupConstants();
  emitter.LoadParams();
  emitter.InitTemps();
  emitter.EmitLoop([&] { emitter.EmitStmtList(kernel.loop().body); });
  emitter.EmitStmtList(kernel.epilogue());
  emitter.assembler().Halt();
  return asm2.Finish();
}

isa::Program LowerParallel(const ir::Kernel& kernel, const ir::DataLayout& layout,
                           const ProgramPlan& plan) {
  const int cores = static_cast<int>(plan.cores.size());
  FGPAR_CHECK_MSG(cores >= 1, "plan has no cores");
  Assembler a;
  isa::Label main = a.NewNamedLabel("main");
  isa::Label driver = a.NewNamedLabel("driver");
  std::vector<isa::Label> fn_labels;
  for (int c = 1; c < cores; ++c) {
    std::string name = "F";
    name += std::to_string(c);
    fn_labels.push_back(a.NewNamedLabel(name));
  }

  // ---- primary core ----
  a.Bind(main);
  {
    FnEmitter emitter(a, kernel, layout);
    std::set<ir::TempId> temps;
    std::set<ir::SymbolId> params;
    CollectFromItems(kernel, plan.cores[0].body, plan.comm, temps, params);
    for (const ir::Stmt& stmt : kernel.epilogue()) {
      CollectFromStmt(kernel, stmt, temps, params);
    }
    CollectFromExpr(kernel, kernel.loop().lower, temps, params);
    CollectFromExpr(kernel, kernel.loop().upper, temps, params);
    for (const LiveOut& lo : plan.comm.live_outs) {
      temps.insert(lo.temp);
    }
    // The primary also holds (and forwards) every secondary's arguments.
    for (const auto& [core, args] : plan.comm.args) {
      params.insert(args.begin(), args.end());
    }
    std::map<ir::TempId, int> reads;
    CountReadsItems(kernel, plan.cores[0].body, reads);
    std::set<ir::TempId> pinned;
    for (ir::TempId t : temps) {
      if (kernel.temp(t).carried) {
        pinned.insert(t);
      }
    }
    for (const Transfer& t : plan.comm.transfers) {
      if (t.src_core == 0 || t.dst_core == 0) {
        pinned.insert(t.temp);
      }
    }
    for (const LiveOut& lo : plan.comm.live_outs) {
      pinned.insert(lo.temp);
    }
    {
      std::map<ir::TempId, int> epilogue_reads;
      for (const ir::Stmt& stmt : kernel.epilogue()) {
        CountReadsStmt(kernel, stmt, epilogue_reads);
        CountReadsStmt(kernel, stmt, reads);
      }
      for (const auto& [t, count] : epilogue_reads) {
        (void)count;
        pinned.insert(t);
      }
    }
    emitter.DedicateParams(params);
    emitter.DedicateTemps(pinned);
    emitter.SetLocalReadCounts(reads);
    emitter.SetupConstants();
    emitter.LoadParams();
    emitter.InitTemps();

    // Dispatch: function pointer, then arguments (Section III-G).
    for (int c = 1; c < cores; ++c) {
      a.Comment("dispatch F" + std::to_string(c) + " to core " + std::to_string(c));
      // r63 is the top of the scratch pool; it is only ever live within a
      // single expression, so it is free between statements.
      a.LiLabel(Gpr{63}, fn_labels[static_cast<std::size_t>(c - 1)]);
      a.EnqI(c, Gpr{63});
      const auto it = plan.comm.args.find(c);
      if (it != plan.comm.args.end()) {
        for (ir::SymbolId sym : it->second) {
          emitter.EnqParamTo(c, sym);
        }
      }
    }

    emitter.EmitLoop([&] { emitter.EmitPlanItems(plan.cores[0].body, plan.comm); });

    // Collect live-outs, then completion tokens (Figure 9's "Enque(#P, ...)").
    for (const LiveOut& lo : plan.comm.live_outs) {
      a.Comment("live-out " + kernel.temp(lo.temp).name);
      emitter.DeqTempFrom(lo.src_core, lo.temp);
    }
    for (int c = 1; c < cores; ++c) {
      a.Comment("completion token from core " + std::to_string(c));
      a.DeqI(c, Gpr{63});
    }

    emitter.EmitStmtList(kernel.epilogue());

    for (int c = 1; c < cores; ++c) {
      a.Comment("terminate core " + std::to_string(c));
      a.EnqI(c, Gpr{0});  // kZero still holds 0
    }
    a.Halt();
  }

  // ---- shared secondary driver (Section III-G) ----
  a.Bind(driver);
  {
    isa::Label halt = a.NewLabel();
    isa::Label top = a.NewLabel();
    a.Bind(top);
    a.Comment("driver: wait for work from primary");
    a.DeqI(0, Gpr{kDriverScratch});
    a.Bz(Gpr{kDriverScratch}, halt);
    a.CallR(Gpr{kDriverScratch});
    a.Jmp(top);
    a.Bind(halt);
    a.Halt();
  }

  // ---- outlined functions ----
  for (int c = 1; c < cores; ++c) {
    a.Bind(fn_labels[static_cast<std::size_t>(c - 1)]);
    FnEmitter emitter(a, kernel, layout);
    std::set<ir::TempId> temps;
    std::set<ir::SymbolId> params;
    CollectFromItems(kernel, plan.cores[static_cast<std::size_t>(c)].body,
                     plan.comm, temps, params);
    CollectFromExpr(kernel, kernel.loop().lower, temps, params);
    CollectFromExpr(kernel, kernel.loop().upper, temps, params);
    for (const LiveOut& lo : plan.comm.live_outs) {
      if (lo.src_core == c) {
        temps.insert(lo.temp);
      }
    }
    std::map<ir::TempId, int> reads;
    CountReadsItems(kernel, plan.cores[static_cast<std::size_t>(c)].body, reads);
    std::set<ir::TempId> pinned;
    for (ir::TempId t : temps) {
      if (kernel.temp(t).carried) {
        pinned.insert(t);
      }
    }
    for (const Transfer& t : plan.comm.transfers) {
      if (t.src_core == c || t.dst_core == c) {
        pinned.insert(t.temp);
      }
    }
    for (const LiveOut& lo : plan.comm.live_outs) {
      if (lo.src_core == c) {
        pinned.insert(lo.temp);
      }
    }
    emitter.DedicateParams(params);
    emitter.DedicateTemps(pinned);
    emitter.SetLocalReadCounts(reads);
    emitter.SetupConstants();
    const auto args_it = plan.comm.args.find(c);
    if (args_it != plan.comm.args.end()) {
      emitter.DeqParams(args_it->second);
    }
    emitter.InitTemps();
    emitter.EmitLoop(
        [&] { emitter.EmitPlanItems(plan.cores[static_cast<std::size_t>(c)].body,
                                    plan.comm); });
    for (const LiveOut& lo : plan.comm.live_outs) {
      if (lo.src_core == c) {
        a.Comment("live-out " + kernel.temp(lo.temp).name + " -> primary");
        emitter.EnqTempTo(0, lo.temp);
      }
    }
    a.Comment("completion token -> primary");
    a.LiI(Gpr{63}, 1);
    a.EnqI(0, Gpr{63});
    a.Ret();
  }

  return a.Finish();
}

}  // namespace fgpar::compiler

#include "ir/printer.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/str.hpp"

namespace fgpar::ir {
namespace {

std::string Indent(int depth) { return std::string(static_cast<std::size_t>(depth) * 2, ' '); }

}  // namespace

std::string PrintExpr(const Kernel& k, ExprId id) {
  const ExprNode& node = k.expr(id);
  switch (node.kind) {
    case ExprKind::kConstI:
      return std::to_string(node.const_i);
    case ExprKind::kConstF: {
      std::ostringstream os;
      os << node.const_f;
      std::string s = os.str();
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ExprKind::kIvRef:
      return k.loop().iv_name;
    case ExprKind::kParamRef:
    case ExprKind::kScalarRef:
      return k.symbol(node.sym).name;
    case ExprKind::kArrayRef:
      return k.symbol(node.sym).name + "[" + PrintExpr(k, node.child[0]) + "]";
    case ExprKind::kTempRef:
      return k.temp(node.temp).name;
    case ExprKind::kUnary:
      switch (node.un) {
        case UnOp::kNeg:
          return "(-" + PrintExpr(k, node.child[0]) + ")";
        case UnOp::kNot:
          return "(!" + PrintExpr(k, node.child[0]) + ")";
        case UnOp::kI2F:  // printed in the language's cast spelling so the
          return "f64(" + PrintExpr(k, node.child[0]) + ")";
        case UnOp::kF2I:  // printed kernel re-parses (see printer tests)
          return "i64(" + PrintExpr(k, node.child[0]) + ")";
        default:
          return std::string(UnOpName(node.un)) + "(" +
                 PrintExpr(k, node.child[0]) + ")";
      }
    case ExprKind::kBinary: {
      if (node.bin == BinOp::kMin || node.bin == BinOp::kMax) {
        return std::string(BinOpName(node.bin)) + "(" + PrintExpr(k, node.child[0]) +
               ", " + PrintExpr(k, node.child[1]) + ")";
      }
      std::string text = "(";
      text += PrintExpr(k, node.child[0]);
      text += ' ';
      text += BinOpName(node.bin);
      text += ' ';
      text += PrintExpr(k, node.child[1]);
      text += ')';
      return text;
    }
    case ExprKind::kSelect:
      return "select(" + PrintExpr(k, node.child[0]) + ", " +
             PrintExpr(k, node.child[1]) + ", " + PrintExpr(k, node.child[2]) + ")";
  }
  FGPAR_UNREACHABLE("bad ExprKind");
}

std::string PrintStmts(const Kernel& k, const std::vector<Stmt>& stmts, int indent) {
  std::ostringstream os;
  for (const Stmt& stmt : stmts) {
    os << Indent(indent);
    switch (stmt.kind) {
      case StmtKind::kAssignTemp: {
        // Plain temps are single-assignment: their one assignment is also
        // their declaration, so print it in the kernel language's defining
        // form — this keeps PrintKernel output re-parseable.
        const Temp& temp = k.temp(stmt.temp);
        if (!temp.carried) {
          os << TypeName(temp.type) << ' ';
        }
        os << temp.name << " = " << PrintExpr(k, stmt.value) << ";";
        break;
      }
      case StmtKind::kStoreScalar:
        os << k.symbol(stmt.sym).name << " = " << PrintExpr(k, stmt.value) << ";";
        break;
      case StmtKind::kStoreArray:
        os << k.symbol(stmt.sym).name << "[" << PrintExpr(k, stmt.index)
           << "] = " << PrintExpr(k, stmt.value) << ";";
        break;
      case StmtKind::kIf:
        os << (stmt.speculation_safe ? "@speculate " : "") << "if ("
           << PrintExpr(k, stmt.value) << ") {\n"
           << PrintStmts(k, stmt.then_body, indent + 1) << Indent(indent) << "}";
        if (!stmt.else_body.empty()) {
          os << " else {\n"
             << PrintStmts(k, stmt.else_body, indent + 1) << Indent(indent) << "}";
        }
        break;
    }
    os << "   # line " << stmt.source_line << ", s" << stmt.id << "\n";
  }
  return os.str();
}

std::string PrintKernel(const Kernel& k) {
  std::ostringstream os;
  os << "kernel " << k.name() << " {\n";
  for (const Symbol& sym : k.symbols()) {
    os << "  ";
    switch (sym.kind) {
      case SymbolKind::kParam:
        os << "param " << TypeName(sym.type) << " " << sym.name << ";";
        break;
      case SymbolKind::kScalar:
        os << "scalar " << TypeName(sym.type) << " " << sym.name << ";";
        break;
      case SymbolKind::kArray:
        os << "array " << TypeName(sym.type) << " " << sym.name << "["
           << sym.array_size << "];";
        break;
    }
    os << "\n";
  }
  for (const Temp& t : k.temps()) {
    if (t.carried) {
      os << "  carried " << TypeName(t.type) << " " << t.name << " = "
         << (t.type == ScalarType::kI64 ? std::to_string(t.init_i)
                                        : FormatFixed(t.init_f, 6))
         << ";\n";
    }
  }
  os << "  loop " << k.loop().iv_name << " = " << PrintExpr(k, k.loop().lower)
     << " .. " << PrintExpr(k, k.loop().upper) << " {\n"
     << PrintStmts(k, k.loop().body, 2) << "  }\n";
  if (!k.epilogue().empty()) {
    os << "  after {\n" << PrintStmts(k, k.epilogue(), 2) << "  }\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace fgpar::ir

#include "harness/random_kernel.hpp"

#include <bit>
#include <sstream>

#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "support/rng.hpp"

namespace fgpar::harness {
namespace {

using ir::ArrayHandle;
using ir::KernelBuilder;
using ir::ScalarHandle;
using ir::ScalarType;
using ir::TempHandle;
using ir::Val;

constexpr std::int64_t kArraySize = 48;

class Generator {
 public:
  Generator(std::uint64_t seed, bool with_conditionals, bool with_reduction)
      : rng_(seed),
        with_conditionals_(with_conditionals),
        with_reduction_(with_reduction),
        kb_("random_" + std::to_string(seed)) {}

  ir::Kernel Build() {
    scale_ = kb_.ParamF64("scale");
    n_ = kb_.ParamI64("n");
    a_ = kb_.ArrayF64("a", kArraySize);
    b_ = kb_.ArrayF64("b", kArraySize);
    out_ = kb_.ArrayF64("out", kArraySize);
    out2_ = kb_.ArrayF64("out2", kArraySize);
    idx_ = kb_.ArrayI64("idx", kArraySize);
    result_ = kb_.ScalarF64("result");
    TempHandle sum{};
    if (with_reduction_) {
      sum = kb_.DeclCarriedF64("sum", 0.0);
    }

    kb_.StartLoop("i", kb_.ConstI(2), n_);

    // A handful of top-level temporary definitions.
    const int num_temps = static_cast<int>(rng_.NextInt(2, 6));
    for (int t = 0; t < num_temps; ++t) {
      std::string name = "t";
      name += std::to_string(t);
      TempHandle temp = kb_.DeclTemp(name, ScalarType::kF64);
      kb_.Assign(temp, RandomF64Expr(3));
      temps_.push_back(temp);
    }

    // Unconditional store.
    kb_.Store(out_, kb_.Iv(), RandomF64Expr(2));

    // Optional conditional store with both arms.
    if (with_conditionals_ && rng_.NextBool(0.8)) {
      Val cond = RandomCond();
      const bool speculate = rng_.NextBool(0.4);
      kb_.If(
          cond, [&] { kb_.Store(out2_, kb_.Iv(), RandomF64Expr(2)); },
          [&] { kb_.Store(out2_, kb_.Iv(), RandomF64Expr(2)); }, speculate);
    } else {
      kb_.Store(out2_, kb_.Iv(), RandomF64Expr(2));
    }

    if (with_reduction_) {
      kb_.Assign(sum, kb_.Read(sum) + ReadSomeTemp());
    }

    kb_.EndLoop();
    if (with_reduction_) {
      kb_.StoreScalar(result_, kb_.Read(sum) * scale_);
    } else {
      kb_.StoreScalar(result_, kb_.ConstF(1.0));
    }
    return kb_.Finish();
  }

 private:
  Val RandomIndex() {
    switch (rng_.NextBelow(4)) {
      case 0:
        return kb_.Iv();
      case 1:
        return kb_.Iv() + kb_.ConstI(rng_.NextInt(-2, 2));
      case 2:
        return kb_.Load(idx_, kb_.Iv());  // gather
      default:
        return kb_.Iv() - kb_.ConstI(rng_.NextInt(0, 2));
    }
  }

  Val ReadSomeTemp() {
    if (temps_.empty()) {
      return kb_.ConstF(rng_.NextDouble(0.5, 2.0));
    }
    return kb_.Read(temps_[rng_.NextBelow(temps_.size())]);
  }

  Val RandomF64Leaf() {
    switch (rng_.NextBelow(5)) {
      case 0:
        return kb_.Load(a_, RandomIndex());
      case 1:
        return kb_.Load(b_, RandomIndex());
      case 2:
        return scale_;
      case 3:
        return kb_.ConstF(rng_.NextDouble(0.25, 4.0));
      default:
        return ReadSomeTemp();
    }
  }

  Val RandomF64Expr(int depth) {
    if (depth <= 0 || rng_.NextBool(0.25)) {
      return RandomF64Leaf();
    }
    switch (rng_.NextBelow(8)) {
      case 0:
        return RandomF64Expr(depth - 1) + RandomF64Expr(depth - 1);
      case 1:
        return RandomF64Expr(depth - 1) - RandomF64Expr(depth - 1);
      case 2:
        return RandomF64Expr(depth - 1) * RandomF64Expr(depth - 1);
      case 3:
        // Division with a denominator bounded away from zero.
        return RandomF64Expr(depth - 1) /
               (kb_.Abs(RandomF64Expr(depth - 1)) + kb_.ConstF(1.0));
      case 4:
        return kb_.Sqrt(kb_.Abs(RandomF64Expr(depth - 1)));
      case 5:
        return kb_.Min(RandomF64Expr(depth - 1), RandomF64Expr(depth - 1));
      case 6:
        return kb_.Max(RandomF64Expr(depth - 1), RandomF64Expr(depth - 1));
      default:
        return -RandomF64Expr(depth - 1);
    }
  }

  Val RandomCond() {
    switch (rng_.NextBelow(3)) {
      case 0:
        return (kb_.Iv() % kb_.ConstI(rng_.NextInt(2, 5))) == kb_.ConstI(0);
      case 1:
        return kb_.Load(idx_, kb_.Iv()) < kb_.ConstI(rng_.NextInt(8, 40));
      default:
        return RandomF64Leaf() < RandomF64Leaf();
    }
  }

  Rng rng_;
  bool with_conditionals_;
  bool with_reduction_;
  KernelBuilder kb_;
  Val scale_;
  Val n_;
  ArrayHandle a_, b_, out_, out2_, idx_;
  ScalarHandle result_;
  std::vector<TempHandle> temps_;
};

}  // namespace

RandomKernelCase GenerateRandomKernel(std::uint64_t seed, bool with_conditionals,
                                      bool with_reduction) {
  Generator generator(seed, with_conditionals, with_reduction);
  RandomKernelCase out{generator.Build(), nullptr};
  // The workload is a property of the generated case, so its data derives
  // from the case seed, not the run seed.
  out.init = [seed](std::uint64_t /*run_seed*/, const ir::Kernel& kernel,
                    const ir::DataLayout& layout, ir::ParamEnv& params,
                    std::vector<std::uint64_t>& memory) {
    Rng rng(seed ^ 0xDA7A0123);
    for (const ir::Symbol& sym : kernel.symbols()) {
      switch (sym.kind) {
        case ir::SymbolKind::kParam:
          if (sym.type == ir::ScalarType::kF64) {
            params.SetF64(sym.id, rng.NextDouble(0.5, 2.0));
          } else {
            params.SetI64(sym.id, kArraySize - 2);  // loop upper bound
          }
          break;
        case ir::SymbolKind::kArray: {
          const std::uint64_t base = layout.AddressOf(sym.id);
          for (std::int64_t i = 0; i < sym.array_size; ++i) {
            if (sym.type == ir::ScalarType::kF64) {
              memory[base + static_cast<std::uint64_t>(i)] =
                  std::bit_cast<std::uint64_t>(rng.NextDouble(0.25, 4.0));
            } else {
              // Index arrays hold safe in-range subscripts.
              memory[base + static_cast<std::uint64_t>(i)] =
                  static_cast<std::uint64_t>(rng.NextInt(0, kArraySize - 1));
            }
          }
          break;
        }
        case ir::SymbolKind::kScalar:
          break;  // outputs start at zero
      }
    }
  };
  return out;
}

ir::Kernel GenerateWideKernel(std::uint64_t seed, int stmts) {
  constexpr int kInputs = 8;
  Rng rng(seed);
  std::ostringstream os;
  os << "kernel wide {\n  param i64 n;\n";
  for (int a = 0; a < kInputs; ++a) {
    os << "  array f64 a" << a << "[1024];\n";
  }
  for (int s = 0; s < stmts; ++s) {
    os << "  array f64 o" << s << "[1024];\n";
  }
  os << "  loop i = 2 .. n {\n";
  for (int s = 0; s < stmts; ++s) {
    os << "    f64 t" << s << " = ";
    const std::int64_t terms = rng.NextInt(2, 4);
    for (std::int64_t t = 0; t < terms; ++t) {
      if (t > 0) {
        os << (rng.NextBool() ? " + " : " * ");
      }
      os << "a" << rng.NextInt(0, kInputs - 1) << "[i+" << rng.NextInt(0, 2) << "]";
    }
    if (s > 0 && rng.NextBool(0.4)) {
      os << " - t" << rng.NextInt(0, s - 1);
    }
    os << ";\n    o" << s << "[i] = t" << s << " * " << s + 1 << ".5;\n";
  }
  os << "  }\n}\n";
  return frontend::ParseKernel(os.str());
}

}  // namespace fgpar::harness

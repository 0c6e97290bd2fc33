// pipeline_lammps: the Figure 2 example — a lammps loop body executing in
// a pipelined fashion across 3 cores.
//
// Uses the kernel language frontend, compiles for 1..4 cores, and shows how
// the loop's dependent statement chain pipelines across cores: each core
// runs every iteration of *its* fibers, with queue transfers decoupling the
// stages so different cores can be several iterations apart (bounded by the
// queue capacity).
#include <cstdio>

#include "frontend/parser.hpp"
#include "harness/runner.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace {

constexpr const char* kLoop = R"(
# A lammps-style pair loop: gathered neighbor coordinates, a distance
# chain, a spline evaluation, and dependent force terms (Figure 2 shape).
kernel lammps_pipeline {
  param i64 n;
  param f64 rdr;
  array i64 jlist[1024];
  array f64 xt[1024];
  array f64 yt[1024];
  array f64 zt[1024];
  array f64 c0[1024];
  array f64 c1[1024];
  array f64 c2[1024];
  array f64 fout[1024];
  array f64 eout[1024];
  loop i = 0 .. n {
    i64 j = jlist[i];
    f64 dx = xt[j];
    f64 dy = yt[j];
    f64 dz = zt[j];
    f64 rsq = dx*dx + dy*dy + dz*dz;
    f64 r = sqrt(rsq);
    f64 p = r * rdr;
    i64 m = i64(p);
    f64 t = p - f64(m);
    f64 phi = (c2[m]*t + c1[m])*t + c0[m];
    f64 fpair = phi / (r + 0.1);
    fout[i] = fpair * dx;
    eout[i] = phi * 0.5 + fpair * r;
  }
}
)";

}  // namespace

int main() {
  using namespace fgpar;

  ir::Kernel kernel = frontend::ParseKernel(kLoop);
  harness::WorkloadInit init = [](std::uint64_t /*seed*/, const ir::Kernel& k,
                                  const ir::DataLayout& layout,
                                  ir::ParamEnv& params,
                                  std::vector<std::uint64_t>& memory) {
    Rng rng(7);
    for (const ir::Symbol& sym : k.symbols()) {
      if (sym.kind == ir::SymbolKind::kParam) {
        if (sym.type == ir::ScalarType::kI64) {
          params.SetI64(sym.id, 600);
        } else {
          params.SetF64(sym.id, 1.5);
        }
      } else if (sym.kind == ir::SymbolKind::kArray) {
        for (std::int64_t j = 0; j < sym.array_size; ++j) {
          const std::uint64_t addr =
              layout.AddressOf(sym.id) + static_cast<std::uint64_t>(j);
          if (sym.type == ir::ScalarType::kF64) {
            memory[addr] = std::bit_cast<std::uint64_t>(rng.NextDouble(0.5, 2.0));
          } else {
            memory[addr] = static_cast<std::uint64_t>(rng.NextInt(0, 1023));
          }
        }
      }
    }
  };

  harness::KernelRunner runner(kernel, init);
  std::printf("Pipelined execution of a lammps loop (Figure 2 of the paper)\n\n");
  std::printf("%6s  %12s  %8s  %10s  %8s\n", "cores", "cycles", "speedup",
              "transfers", "queues");

  for (int cores : {2, 3, 4}) {
    harness::RunConfig config;
    config.compile.num_cores = cores;
    const harness::KernelRun run = runner.Run(config);
    if (cores == 2) {
      // Every run measures (and verifies) the same sequential baseline.
      std::printf("%6d  %12s  %8s  %10s  %8s\n", 1,
                  FormatWithCommas(static_cast<long long>(run.seq_cycles)).c_str(),
                  "1.00", "-", "-");
    }
    std::printf("%6d  %12s  %8s  %10s  %8d\n", cores,
                FormatWithCommas(static_cast<long long>(run.par_cycles)).c_str(),
                FormatFixed(run.speedup, 2).c_str(),
                FormatWithCommas(static_cast<long long>(run.par_queue_transfers))
                    .c_str(),
                run.queues_used);
  }
  std::printf("\nEvery configuration verified bit-exactly against the "
              "reference interpreter.\n");
  return 0;
}

/// With-loop engine microbenchmark: the compiled segment engine against the
/// interpreted per-element reference, on the same generators (the
/// `Context::compiled` ablation axis — both modes run identical With
/// objects, single-threaded, so the ratio isolates the engine).
///
/// Five measurements:
///  * `dense_genarray`   — 1024x1024 rank-2 genarray from a coordinate
///    kernel body: the paper's bread-and-butter dense with-loop. GATED.
///  * `modarray_addnumber` — sudoku::add_number on a 25x25 board (15625-cell
///    options cube, the paper's four-generator modarray). GATED.
///  * `fold_sum`         — dense rank-2 fold through the same kernel.
///  * `fused_chain`      — genarray→map→zip_with→fold in one segment pass
///    vs the unfused interpreted pipeline (intermediates and all).
///  * `generic_stencil`  — a 512x512 Jacobi modarray written in the paper's
///    generic form, a `gen` body over `const Index&` with five bounds-checked
///    selections per cell: the body path every box in the stencil workload
///    takes.
///
/// Emits BENCH_withloop.json with elements/sec per mode and the in-binary
/// `withloop_compiled_speedup` ratio on compiled rows; the acceptance bar
/// for the two gated cases is >= 3x, enforced here and (against the
/// committed baseline) by tools/bench_diff.py.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "sacpp/ops.hpp"
#include "sacpp/with_loop.hpp"
#include "sudoku/rules.hpp"

using sac::Array;
using sac::Context;
using sac::Shape;
using sac::With;

namespace {

constexpr double kMinSeconds = 0.15;
constexpr int kRuns = 5;

/// Best-of-kRuns elements/sec for \p fn, each run looping until
/// kMinSeconds have elapsed. \p elems is the element count one fn() call
/// processes. The clock is read once per batch of calls so timing overhead
/// stays out of the measurement (one fn() can be well under a microsecond).
template <class Fn>
double best_eps(std::int64_t elems, const Fn& fn) {
  constexpr int kBatch = 64;
  double best = 0;
  for (int r = 0; r < kRuns; ++r) {
    std::int64_t calls = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double secs = 0;
    do {
      for (int b = 0; b < kBatch; ++b) {
        fn();
      }
      calls += kBatch;
      secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
    } while (secs < kMinSeconds);
    best = std::max(best, static_cast<double>(elems * calls) / secs);
  }
  return best;
}

// --------------------------------------------------------- dense genarray

constexpr std::int64_t kN = 1024;

double dense_genarray_eps(bool compiled, std::int64_t& sink) {
  const Context ctx{1, 1024, compiled};
  const auto w = With<std::int64_t>().gen_kernel(
      {0, 0}, {kN, kN},
      [](std::int64_t i, std::int64_t j) { return i * 3 + j; });
  return best_eps(kN * kN, [&] {
    const auto a = w.genarray(Shape{kN, kN}, 0, ctx);
    sink += a.linear(kN);
  });
}

// ----------------------------------------------------- addNumber modarray

double addnumber_eps(bool compiled, std::int64_t& sink) {
  // 25x25 board (n=5, the old suite's largest): a 15625-cell options cube
  // per add_number call. add_number uses the process default context;
  // save/restore around the measurement.
  const int N = 25;
  Context& ctx = sac::default_context();
  const Context saved = ctx;
  ctx = Context{1, 1024, compiled};
  sudoku::BoardArray board(Shape{N, N}, 0);
  sudoku::OptsArray opts = sudoku::initial_opts(N);
  int k = 0;
  const double eps = best_eps(static_cast<std::int64_t>(N) * N * N, [&] {
    auto [b, o] =
        sudoku::add_number(k % N, (k / N) % N, 1 + (k % N), std::move(board),
                           std::move(opts));
    board = std::move(b);
    opts = std::move(o);
    ++k;
    sink += opts.linear(0) ? 1 : 0;
  });
  ctx = saved;
  return eps;
}

// ------------------------------------------------------------------ fold

double fold_sum_eps(bool compiled, std::int64_t& sink) {
  const Context ctx{1, 1024, compiled};
  const auto w = With<std::int64_t>().gen_kernel(
      {0, 0}, {kN, kN},
      [](std::int64_t i, std::int64_t j) { return i ^ j; });
  return best_eps(kN * kN, [&] {
    sink += w.fold([](std::int64_t a, std::int64_t b) { return a + b; }, 0, ctx);
  });
}

// ----------------------------------------------------------- fused chain

double fused_chain_eps(bool compiled, std::int64_t& sink) {
  const Context ctx{1, 1024, compiled};
  const Array<std::int64_t> other(Shape{kN, kN}, 7);
  const auto chain =
      With<std::int64_t>()
          .gen_kernel({0, 0}, {kN, kN},
                      [](std::int64_t i, std::int64_t j) { return i + j; })
          .lazy_genarray(Shape{kN, kN}, 0)
          .map([](std::int64_t v) { return v * 2 + 1; })
          .zip_with(other, [](std::int64_t v, std::int64_t o) { return v - o; });
  return best_eps(kN * kN, [&] {
    sink += chain.fold([](std::int64_t a, std::int64_t b) { return a + b; }, 0,
                       ctx);
  });
}

// ------------------------------------------------------- generic stencil

constexpr std::int64_t kSide = 512;

double generic_stencil_eps(bool compiled, std::int64_t& sink) {
  const Context ctx{1, 1024, compiled};
  Array<double> g(Shape{kSide, kSide}, 0.0);
  for (std::int64_t i = 0; i < g.element_count(); ++i) {
    g.set_linear(i, static_cast<double>(i % 101));
  }
  const auto w = With<double>().gen(
      {1, 1}, {kSide - 1, kSide - 1}, [&g](const sac::Index& iv) {
        const auto i = iv[0];
        const auto j = iv[1];
        const double centre = g[{i, j}];
        const double around =
            g[{i - 1, j}] + g[{i + 1, j}] + g[{i, j - 1}] + g[{i, j + 1}];
        return centre + 0.5 * (around / 4.0 - centre);
      });
  return best_eps((kSide - 2) * (kSide - 2), [&] {
    const auto next = w.modarray(g, ctx);
    sink += static_cast<std::int64_t>(next.linear(kSide + 1));
  });
}

void emit(std::vector<benchjson::Row>& rows, const std::string& bench,
          const char* mode, std::int64_t elems, double eps, double speedup) {
  benchjson::Row r;
  r.set("bench", bench)
      .set("mode", std::string(mode))
      .set("threads", static_cast<std::int64_t>(1))
      .set("elements", elems)
      .set("elements_per_sec", eps);
  if (speedup > 0) {
    r.set("withloop_compiled_speedup", speedup);
  }
  rows.push_back(std::move(r));
}

}  // namespace

int main() {
  std::int64_t sink = 0;

  struct Case {
    const char* name;
    double (*run)(bool, std::int64_t&);
    std::int64_t elems;
    bool gated;
  };
  const Case cases[] = {
      {"withloop_dense_genarray", dense_genarray_eps, kN * kN, true},
      {"withloop_modarray_addnumber", addnumber_eps, 25 * 25 * 25, true},
      {"withloop_fold_sum", fold_sum_eps, kN * kN, false},
      {"withloop_fused_chain", fused_chain_eps, kN * kN, false},
      {"withloop_generic_stencil", generic_stencil_eps, (kSide - 2) * (kSide - 2),
       false},
  };

  std::vector<benchjson::Row> rows;
  bool ok = true;
  for (const Case& c : cases) {
    c.run(true, sink);  // warmup (pools, allocator, branch predictors)
    const double interp = c.run(false, sink);
    const double comp = c.run(true, sink);
    const double speedup = interp > 0 ? comp / interp : 0;
    std::printf("%-28s interpreted %12.0f elems/sec\n", c.name, interp);
    std::printf("%-28s compiled    %12.0f elems/sec\n", c.name, comp);
    std::printf("%-28s speedup     %12.2fx %s\n", c.name, speedup,
                !c.gated           ? "(informational)"
                : speedup >= 3.0 ? "(>= 3x: OK)"
                                 : "(< 3x: REGRESSION)");
    emit(rows, c.name, "interpreted", c.elems, interp, 0);
    emit(rows, c.name, "compiled", c.elems, comp, speedup);
    if (c.gated && speedup < 3.0) {
      ok = false;
    }
  }

  benchjson::write("withloop", rows);
  std::printf("wrote BENCH_withloop.json (sink %lld)\n",
              static_cast<long long>(sink));
  // Fail CI when either gated case falls under the in-binary 3x bar; the
  // drift check against the committed baseline is the bench_diff gate on
  // withloop_compiled_speedup.
  return ok ? 0 : 1;
}

// Microbenchmarks (google-benchmark) of the individual map operations —
// the per-operation costs behind Listing 1 vs. Listing 2 and Figure 3.
//
// Naming: <Op>/<scheme>/<map_size>. The update benchmarks measure the
// per-edge cost (AFL: one access; BigMap: predictable branch + two
// accesses); the scan benchmarks show flat cost growing with map size
// while two-level cost tracks the used-key count. The map-level scan
// benchmarks dispatch through the process-default kernel (BIGMAP_KERNEL).
//
// BM_TrimPassFlat/map:<size>/fused:<0|1> times one exec of AFL's trim
// loop on the flat map, the target's updates included: the separate
// reset + classify + hash passes against the fused classify_hash_clear.
//
// Per-kernel families (BM_Kernel<Op>/<kernel>/<len>) are registered at
// startup for every kernel this CPU supports and operate on raw buffers
// of `len` bytes — `len` is exactly BigMap's used region, so the scalar
// vs. vector gap on a 2 MB used region is measured directly, not
// asserted. BM_KernelCompareUpdate is a pure steady-state scan;
// BM_KernelClassify / BM_KernelClassifyCompare restore the trace from a
// pristine copy each iteration (classification is not idempotent), so
// those numbers include one 2 MB memcpy per iteration for every kernel
// alike.
//
// BM_KernelClassifyHashClear/<kernel>/<len> is AFL's fused trim pass
// (classify + hash + clear) alone: the restore runs outside the timed
// region.
//
// BM_KernelCollectNonzero/<kernel>/<len> is the sparse collect that
// top_rated scoring runs once per added entry; BM_UpdateScoresFlat/<map>
// is that whole score update on AFL's flat map.
//
// Interpreter families (BM_Interpret{Untraced,Traced}/<profile>[/<map>])
// time the target substrate per executed block over a profile's first
// seeds; the `sec_per_block` counter is the figure to read (e.g. "19.6n"
// is 19.6 ns/block). Untraced runs a no-op callback with no synthetic work,
// so only block dispatch and operand reads are timed. Traced times the
// execute stage of Executor::run on the two-level map (edge key + map
// update per block, default work_per_block), as a campaign runs it.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/flat_map.h"
#include "core/kernels/kernels.h"
#include "core/two_level_map.h"
#include "core/virgin.h"
#include "fuzzer/executor.h"
#include "fuzzer/queue.h"
#include "instrumentation/metrics.h"
#include "target/interpreter.h"
#include "target/suite.h"
#include "util/alloc.h"
#include "util/rng.h"
#include "util/timing.h"

namespace bigmap {
namespace {

MapOptions opts(usize size) {
  MapOptions o;
  o.map_size = size;
  o.huge_pages = true;
  return o;
}

std::vector<u32> make_keys(usize count, usize map_size, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> keys(count);
  for (auto& k : keys) {
    k = static_cast<u32>(rng.next()) & static_cast<u32>(map_size - 1);
  }
  return keys;
}

void BM_UpdateFlat(benchmark::State& state) {
  const usize map_size = static_cast<usize>(state.range(0));
  FlatCoverageMap map(opts(map_size));
  auto keys = make_keys(4096, map_size, 1);
  for (auto _ : state) {
    for (u32 k : keys) map.update(k);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(keys.size()));
}
BENCHMARK(BM_UpdateFlat)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

void BM_UpdateTwoLevel(benchmark::State& state) {
  const usize map_size = static_cast<usize>(state.range(0));
  TwoLevelCoverageMap map(opts(map_size));
  auto keys = make_keys(4096, map_size, 1);
  for (auto _ : state) {
    for (u32 k : keys) map.update(k);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(keys.size()));
}
BENCHMARK(BM_UpdateTwoLevel)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

template <class Map>
void scan_bench(benchmark::State& state, usize used_keys,
                void (*op)(Map&, VirginMap&)) {
  const usize map_size = static_cast<usize>(state.range(0));
  Map map(opts(map_size));
  VirginMap virgin(Map::kScheme == MapScheme::kTwoLevel ? map_size
                                                        : map_size);
  auto keys = make_keys(used_keys, map_size, 2);
  for (u32 k : keys) map.update(k);
  for (auto _ : state) {
    op(map, virgin);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(map.scan_cost_bytes()));
}

void BM_ResetFlat(benchmark::State& state) {
  scan_bench<FlatCoverageMap>(state, 20000,
                              [](FlatCoverageMap& m, VirginMap&) {
                                m.reset();
                              });
}
BENCHMARK(BM_ResetFlat)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

void BM_ResetTwoLevel(benchmark::State& state) {
  scan_bench<TwoLevelCoverageMap>(state, 20000,
                                  [](TwoLevelCoverageMap& m, VirginMap&) {
                                    m.reset();
                                  });
}
BENCHMARK(BM_ResetTwoLevel)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

void BM_ClassifyCompareFlat(benchmark::State& state) {
  scan_bench<FlatCoverageMap>(state, 20000,
                              [](FlatCoverageMap& m, VirginMap& v) {
                                m.classify_and_compare(v);
                              });
}
BENCHMARK(BM_ClassifyCompareFlat)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

void BM_ClassifyCompareTwoLevel(benchmark::State& state) {
  scan_bench<TwoLevelCoverageMap>(
      state, 20000, [](TwoLevelCoverageMap& m, VirginMap& v) {
        m.classify_and_compare(v);
      });
}
BENCHMARK(BM_ClassifyCompareTwoLevel)
    ->Arg(1 << 16)
    ->Arg(2 << 20)
    ->Arg(8 << 20);

void BM_HashFlat(benchmark::State& state) {
  scan_bench<FlatCoverageMap>(state, 20000,
                              [](FlatCoverageMap& m, VirginMap&) {
                                benchmark::DoNotOptimize(m.hash());
                              });
}
BENCHMARK(BM_HashFlat)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

void BM_HashTwoLevel(benchmark::State& state) {
  scan_bench<TwoLevelCoverageMap>(state, 20000,
                                  [](TwoLevelCoverageMap& m, VirginMap&) {
                                    benchmark::DoNotOptimize(m.hash());
                                  });
}
BENCHMARK(BM_HashTwoLevel)->Arg(1 << 16)->Arg(2 << 20)->Arg(8 << 20);

// The flat trim pass of one exec, the target's 3,000 updates included:
// fused=0 is reset + updates + classify + hash, fused=1 is updates +
// classify_hash_clear, which leaves the map zero so no reset is needed.
void BM_TrimPassFlat(benchmark::State& state) {
  const usize map_size = static_cast<usize>(state.range(0));
  const bool fused = state.range(1) != 0;
  FlatCoverageMap map(opts(map_size));
  const auto keys = make_keys(3000, map_size, 3);
  for (auto _ : state) {
    if (!fused) map.reset();
    for (u32 k : keys) map.update(k);
    if (fused) {
      benchmark::DoNotOptimize(map.classify_hash_clear());
    } else {
      map.classify();
      benchmark::DoNotOptimize(map.hash());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(map.scan_cost_bytes()));
}
BENCHMARK(BM_TrimPassFlat)
    ->ArgsProduct({{1 << 16, 2 << 20, 8 << 20}, {0, 1}})
    ->ArgNames({"map", "fused"});

// --- per-kernel raw-buffer families --------------------------------------

// Every kernel-row buffer is a page-aligned mapping of its own, so a
// row's timing never depends on where earlier frees left the heap (a
// std::vector's address and alignment move with glibc's dynamic mmap
// threshold).
PageBuffer filled(usize len, u8 value) {
  PageBuffer b = PageBuffer::plain(len);
  std::memset(b.data(), value, len);
  return b;
}

// A realistic used region: ~2% of positions hold a random raw hit count
// (sparse bitmaps are the steady state; the zero-skip fast paths matter).
PageBuffer make_trace(usize len, u64 seed) {
  Xoshiro256 rng(seed);
  PageBuffer t = PageBuffer::plain(len);
  const usize hits = len / 50;
  for (usize i = 0; i < hits; ++i) {
    t[rng.below(static_cast<u32>(len))] =
        static_cast<u8>(1 + (rng.next() % 255));
  }
  return t;
}

// One AFL update_bitmap_score over a whole flat map with the ~2% trace:
// a queue whose first entry already won every position scores a slower
// second entry, so each iteration collects and contests every position
// and wins none — the steady state once coverage settles.
void BM_UpdateScoresFlat(benchmark::State& state) {
  const usize len = static_cast<usize>(state.range(0));
  const PageBuffer trace = make_trace(len, 17);
  SeedQueue queue(len);
  queue.update_scores(queue.add(Input(4), 10, 0, 0), trace.span());
  const usize slower = queue.add(Input(8), 10, 0, 0);
  for (auto _ : state) {
    queue.update_scores(slower, trace.span());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<i64>(len));
}
BENCHMARK(BM_UpdateScoresFlat)->Arg(2 << 20);

void register_kernel_benches() {
  using kernels::KernelOps;
  static const std::vector<i64> kLens = {1 << 16, 2 << 20};

  for (const KernelOps* k : kernels::runtime_kernels()) {
    const std::string suffix = std::string("/") + k->name;

    benchmark::RegisterBenchmark(
        ("BM_KernelReset" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          PageBuffer buf = filled(len, 1);
          for (auto _ : state) {
            k->reset(buf.data(), len);
            benchmark::ClobberMemory();
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]});

    benchmark::RegisterBenchmark(
        ("BM_KernelClassify" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer pristine = make_trace(len, 11);
          PageBuffer trace = PageBuffer::plain(len);
          for (auto _ : state) {
            std::memcpy(trace.data(), pristine.data(), len);
            k->classify(trace.data(), len);
            benchmark::ClobberMemory();
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]});

    benchmark::RegisterBenchmark(
        ("BM_KernelCompareUpdate" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          PageBuffer trace = make_trace(len, 12);
          k->classify(trace.data(), len);
          PageBuffer virgin = filled(len, 0xFF);
          // Steady state: first compare consumes the new bits; the timed
          // iterations scan a stable virgin map, like a fuzzer that finds
          // nothing new.
          k->compare_update(trace.data(), virgin.data(), len);
          for (auto _ : state) {
            benchmark::DoNotOptimize(
                k->compare_update(trace.data(), virgin.data(), len));
            benchmark::ClobberMemory();
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]});

    benchmark::RegisterBenchmark(
        ("BM_KernelClassifyCompare" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer pristine = make_trace(len, 13);
          PageBuffer trace = PageBuffer::plain(len);
          PageBuffer virgin = filled(len, 0xFF);
          std::memcpy(trace.data(), pristine.data(), len);
          k->classify_compare(trace.data(), virgin.data(), len);
          for (auto _ : state) {
            std::memcpy(trace.data(), pristine.data(), len);
            benchmark::DoNotOptimize(
                k->classify_compare(trace.data(), virgin.data(), len));
            benchmark::ClobberMemory();
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]});

    benchmark::RegisterBenchmark(
        ("BM_KernelHash" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer trace = make_trace(len, 14);
          for (auto _ : state) {
            benchmark::DoNotOptimize(k->hash(trace.data(), len));
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]})
        ->Args({8 << 20});

    // The trim pass leaves the buffer zero, so each iteration restores the
    // trace first; only the classify_hash_clear call is timed.
    benchmark::RegisterBenchmark(
        ("BM_KernelClassifyHashClear" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer pristine = make_trace(len, 18);
          PageBuffer trace = PageBuffer::plain(len);
          for (auto _ : state) {
            std::memcpy(trace.data(), pristine.data(), len);
            const u64 t0 = monotonic_ns();
            benchmark::DoNotOptimize(k->classify_hash_clear(trace.data(), len));
            const u64 t1 = monotonic_ns();
            benchmark::ClobberMemory();
            state.SetIterationTime(static_cast<double>(t1 - t0) * 1e-9);
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->UseManualTime()
        ->Args({kLens[0]})
        ->Args({kLens[1]})
        ->Args({8 << 20});

    benchmark::RegisterBenchmark(
        ("BM_KernelCollectNonzero" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer trace = make_trace(len, 16);
          PageBuffer out = PageBuffer::plain(len * sizeof(u32));
          for (auto _ : state) {
            benchmark::DoNotOptimize(k->collect_nonzero(
                trace.data(), len, reinterpret_cast<u32*>(out.data())));
            benchmark::ClobberMemory();
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]})
        ->Args({8 << 20});

    benchmark::RegisterBenchmark(
        ("BM_KernelCountNonzero" + suffix).c_str(),
        [k](benchmark::State& state) {
          const usize len = static_cast<usize>(state.range(0));
          const PageBuffer trace = make_trace(len, 15);
          for (auto _ : state) {
            benchmark::DoNotOptimize(k->count_ne(trace.data(), len, 0));
          }
          state.SetBytesProcessed(state.iterations() *
                                  static_cast<i64>(len));
        })
        ->Args({kLens[0]})
        ->Args({kLens[1]});
  }
}

// --- interpreter families ------------------------------------------------

constexpr u64 kInterpBudget = 1u << 16;  // CampaignConfig::step_budget
constexpr usize kInterpSeeds = 16;

struct InterpTarget {
  GeneratedTarget target;
  std::vector<std::vector<u8>> seeds;
};

InterpTarget make_interp_target(const char* name) {
  const BenchmarkInfo& info = *find_benchmark(name);
  InterpTarget t{build_benchmark(info), {}};
  t.seeds = benchmark_seeds(t.target, info);
  if (t.seeds.size() > kInterpSeeds) t.seeds.resize(kInterpSeeds);
  return t;
}

void set_block_time(benchmark::State& state, u64 blocks) {
  state.counters["sec_per_block"] = benchmark::Counter(
      static_cast<double>(blocks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void register_interpreter_benches() {
  for (const char* name : {"zlib", "proj4", "gvn"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_InterpretUntraced/") + name).c_str(),
        [name](benchmark::State& state) {
          const InterpTarget t = make_interp_target(name);
          Interpreter interp(kInterpBudget, /*work_per_block=*/0);
          u64 blocks = 0;
          for (auto _ : state) {
            for (const auto& seed : t.seeds) {
              const ExecResult r =
                  interp.run(t.target.program, seed, [](u32) {});
              benchmark::DoNotOptimize(r);
              blocks += r.steps;
            }
          }
          set_block_time(state, blocks);
        });

    benchmark::RegisterBenchmark(
        (std::string("BM_InterpretTraced/") + name).c_str(),
        [name](benchmark::State& state) {
          const InterpTarget t = make_interp_target(name);
          const Program& prog = t.target.program;
          const MapOptions o = opts(static_cast<usize>(state.range(0)));
          const BlockIdTable ids(prog.blocks.size(), o.map_size, 1);
          Executor<TwoLevelCoverageMap, EdgeMetric> ex(prog, o, ids,
                                                       kInterpBudget);
          OpTimeBreakdown timing;
          u64 blocks = 0;
          for (auto _ : state) {
            u64 exec_ns = 0;
            for (const auto& seed : t.seeds) {
              const auto out = ex.run(seed, timing);
              exec_ns += out.exec_ns;
              blocks += out.exec.steps;
            }
            state.SetIterationTime(static_cast<double>(exec_ns) * 1e-9);
          }
          set_block_time(state, blocks);
        })
        ->UseManualTime()
        ->Arg(1 << 16)
        ->Arg(2 << 20)
        ->Arg(8 << 20);
  }
}

}  // namespace
}  // namespace bigmap

// Custom main instead of BENCHMARK_MAIN(): translates the repo-wide
// `--json <path>` / BIGMAP_BENCH_JSON convention into google-benchmark's
// own JSON reporter flags, so CI collects BENCH_micro.json with the same
// one switch it uses for the table benches. All other arguments pass
// through to the benchmark library untouched.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  const char* json_path = std::getenv("BIGMAP_BENCH_JSON");
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
      args.erase(args.begin() + i, args.begin() + i + 2);
      break;
    }
  }
  if (json_path != nullptr) {
    out_flag = std::string("--benchmark_out=") + json_path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  bigmap::register_kernel_benches();
  bigmap::register_interpreter_benches();
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

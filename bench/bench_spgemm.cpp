/// SPGEMM — per-place adjacency computation A = x·xᵀ (paper §IV).
///
/// Microbenchmarks of the three equivalent kernels (sparse column outer
/// products — the paper's math —, pairwise interval intersection, and the
/// local-coordinate accumulate that batches each place's pair-hours before
/// touching the global map) across place profiles: a household (tiny,
/// always-on), a classroom (30 persons, school hours), a workplace
/// (hundreds, business hours) and a congregate hub (thousands, mixed
/// hours). The crossover explains why the pipeline defaults to the
/// local-coordinate kernel.
///
/// Beyond the google-benchmark tables, the binary writes
/// BENCH_spgemm.json (min-of-N seconds per shape and kernel, speedups,
/// edges/sec) into resultsDir(), and `--smoke` runs a quick perf gate:
/// the local-coordinate kernel must beat SpGEMM by >= 1.5x on the
/// hub-heavy shape, else the exit code is nonzero.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/util/rng.hpp"
#include "chisimnet/util/timer.hpp"

namespace {

using namespace chisimnet;

/// A place visited by `persons` persons, each present for `hoursEach`
/// uniformly placed hours of a week.
sparse::CollocationMatrix makePlace(std::size_t persons, unsigned hoursEach,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<table::Event> events;
  for (std::size_t p = 0; p < persons; ++p) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(168 - hoursEach));
    events.push_back(table::Event{start,
                                  static_cast<table::Hour>(start + hoursEach),
                                  static_cast<table::PersonId>(p), 0, 1});
  }
  return sparse::CollocationMatrix(1, events, 0, 168);
}

void runMethod(benchmark::State& state, std::size_t persons, unsigned hours,
               sparse::AdjacencyMethod method) {
  const sparse::CollocationMatrix matrix = makePlace(persons, hours, 42);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    sparse::SymmetricAdjacency adjacency;
    adjacency.addCollocation(matrix, method);
    benchmark::DoNotOptimize(adjacency);
    edges = adjacency.edgeCount();
  }
  state.counters["nnz"] = static_cast<double>(matrix.nnz());
  state.counters["edges"] = static_cast<double>(edges);
}

void BM_SpGemm_Household(benchmark::State& state) {
  runMethod(state, 4, 120, sparse::AdjacencyMethod::kSpGemm);
}
void BM_Intersect_Household(benchmark::State& state) {
  runMethod(state, 4, 120, sparse::AdjacencyMethod::kIntervalIntersection);
}
void BM_Local_Household(benchmark::State& state) {
  runMethod(state, 4, 120, sparse::AdjacencyMethod::kLocalAccumulate);
}
void BM_SpGemm_Classroom(benchmark::State& state) {
  runMethod(state, 30, 30, sparse::AdjacencyMethod::kSpGemm);
}
void BM_Intersect_Classroom(benchmark::State& state) {
  runMethod(state, 30, 30, sparse::AdjacencyMethod::kIntervalIntersection);
}
void BM_Local_Classroom(benchmark::State& state) {
  runMethod(state, 30, 30, sparse::AdjacencyMethod::kLocalAccumulate);
}
void BM_SpGemm_Workplace(benchmark::State& state) {
  runMethod(state, 300, 40, sparse::AdjacencyMethod::kSpGemm);
}
void BM_Intersect_Workplace(benchmark::State& state) {
  runMethod(state, 300, 40, sparse::AdjacencyMethod::kIntervalIntersection);
}
void BM_Local_Workplace(benchmark::State& state) {
  runMethod(state, 300, 40, sparse::AdjacencyMethod::kLocalAccumulate);
}
void BM_SpGemm_CongregateHub(benchmark::State& state) {
  runMethod(state, 2000, 30, sparse::AdjacencyMethod::kSpGemm);
}
void BM_Intersect_CongregateHub(benchmark::State& state) {
  runMethod(state, 2000, 30, sparse::AdjacencyMethod::kIntervalIntersection);
}
void BM_Local_CongregateHub(benchmark::State& state) {
  runMethod(state, 2000, 30, sparse::AdjacencyMethod::kLocalAccumulate);
}
// A shop: many distinct visitors but only a couple present at a time. Most
// visitor pairs never overlap, so the pairwise-intersection kernel wastes
// O(p^2) empty intersections while the matrix kernels only touch
// co-present pairs. The local kernel's dense/hash crossover picks the hash
// path here (p²/2 pair slots vastly exceed the actual pair-hours).
void BM_SpGemm_Shop(benchmark::State& state) {
  runMethod(state, 3000, 1, sparse::AdjacencyMethod::kSpGemm);
}
void BM_Intersect_Shop(benchmark::State& state) {
  runMethod(state, 3000, 1, sparse::AdjacencyMethod::kIntervalIntersection);
}
void BM_Local_Shop(benchmark::State& state) {
  runMethod(state, 3000, 1, sparse::AdjacencyMethod::kLocalAccumulate);
}

BENCHMARK(BM_SpGemm_Household);
BENCHMARK(BM_Intersect_Household);
BENCHMARK(BM_Local_Household);
BENCHMARK(BM_SpGemm_Classroom);
BENCHMARK(BM_Intersect_Classroom);
BENCHMARK(BM_Local_Classroom);
BENCHMARK(BM_SpGemm_Workplace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Intersect_Workplace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_Workplace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpGemm_CongregateHub)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Intersect_CongregateHub)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_CongregateHub)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpGemm_Shop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Intersect_Shop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_Shop)->Unit(benchmark::kMillisecond);

/// Merge (reduction) cost: summing worker adjacencies at the root.
void BM_AdjacencyMerge(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  sparse::SymmetricAdjacency a;
  sparse::SymmetricAdjacency b;
  for (std::size_t i = 0; i < entries; ++i) {
    a.add(static_cast<std::uint32_t>(rng.uniformBelow(100000)),
          static_cast<std::uint32_t>(100000 + rng.uniformBelow(100000)), 1);
    b.add(static_cast<std::uint32_t>(rng.uniformBelow(100000)),
          static_cast<std::uint32_t>(100000 + rng.uniformBelow(100000)), 1);
  }
  for (auto _ : state) {
    sparse::SymmetricAdjacency sum;
    sum.merge(a);
    sum.merge(b);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries) * 2);
}
BENCHMARK(BM_AdjacencyMerge)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// ---- JSON dump and --smoke perf gate -------------------------------------

struct Shape {
  const char* name;
  std::size_t persons;
  unsigned hours;
};

constexpr Shape kShapes[] = {
    {"household", 4, 120},       {"classroom", 30, 30},
    {"workplace", 300, 40},      {"congregate_hub", 2000, 30},
    {"shop", 3000, 1},
};

const char* methodSlug(sparse::AdjacencyMethod method) {
  switch (method) {
    case sparse::AdjacencyMethod::kSpGemm:
      return "spgemm";
    case sparse::AdjacencyMethod::kIntervalIntersection:
      return "intersect";
    case sparse::AdjacencyMethod::kLocalAccumulate:
      return "local";
  }
  return "unknown";
}

/// Min-of-N wall time of one kernel on one place; min filters scheduler
/// noise on the shared CI machines this gate runs on.
double minSeconds(const sparse::CollocationMatrix& matrix,
                  sparse::AdjacencyMethod method, int repeats,
                  std::uint64_t* edgesOut = nullptr) {
  double best = 1e300;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    util::WallTimer timer;
    sparse::SymmetricAdjacency adjacency;
    adjacency.addCollocation(matrix, method);
    best = std::min(best, timer.seconds());
    if (edgesOut != nullptr) {
      *edgesOut = adjacency.edgeCount();
    }
  }
  return best;
}

/// Times every (shape, kernel) pair, writes BENCH_spgemm.json, and returns
/// the local-vs-spgemm speedup on the hub-heavy shape (the gated number).
double dumpJson(int repeats) {
  using chisimnet::bench::JsonReport;
  JsonReport json("spgemm");
  json.put("bench", "spgemm");
  json.put("repeats", repeats);
  double hubSpeedup = 0.0;
  for (const Shape& shape : kShapes) {
    const sparse::CollocationMatrix matrix =
        makePlace(shape.persons, shape.hours, 42);
    const std::string prefix = shape.name;
    double bySlug[3] = {0.0, 0.0, 0.0};
    std::uint64_t edges = 0;
    int slot = 0;
    for (const auto method : {sparse::AdjacencyMethod::kSpGemm,
                              sparse::AdjacencyMethod::kIntervalIntersection,
                              sparse::AdjacencyMethod::kLocalAccumulate}) {
      const double seconds = minSeconds(matrix, method, repeats, &edges);
      bySlug[slot++] = seconds;
      json.put(prefix + "_" + methodSlug(method) + "_seconds", seconds);
    }
    const double speedup = bySlug[0] / std::max(bySlug[2], 1e-12);
    json.put(prefix + "_edges", edges);
    json.put(prefix + "_local_edges_per_sec",
             static_cast<double>(edges) / std::max(bySlug[2], 1e-12));
    json.put(prefix + "_local_vs_spgemm_speedup", speedup);
    if (std::string(shape.name) == "congregate_hub") {
      hubSpeedup = speedup;
    }
    std::cout << "  " << prefix << ": spgemm "
              << chisimnet::bench::fmt(bySlug[0] * 1e3, 3) << " ms, local "
              << chisimnet::bench::fmt(bySlug[2] * 1e3, 3) << " ms ("
              << chisimnet::bench::fmt(speedup, 2) << "x)\n";
  }
  json.put("congregate_hub_gate_threshold", 1.5);
  json.put("congregate_hub_gate_speedup", hubSpeedup);
  const auto path = json.write();
  std::cout << "wrote " << path.string() << "\n";
  return hubSpeedup;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  std::cout << (smoke ? "perf smoke (min-of-3):\n"
                      : "\nkernel comparison (min-of-5):\n");
  const double hubSpeedup = dumpJson(smoke ? 3 : 5);
  const bool pass = hubSpeedup >= 1.5;
  std::cout << "gate: local >= 1.5x spgemm on congregate hub: measured "
            << chisimnet::bench::fmt(hubSpeedup, 2) << "x -> "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

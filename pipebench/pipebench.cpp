/// pipebench: times the chisimnet pipeline end to end and per layer.
///
/// One process, one workload, one seed. pipebench links the library and
/// wraps each call into a module's public functions in a span (name,
/// start, end, parent, run id) kept in memory; nothing inside src/ is
/// instrumented. Untraced iterations give the end-to-end numbers; with
/// --trace 1 one more iteration records spans and gives the per-layer
/// numbers, a Chrome trace and a self-time aggregate.
///
/// Workloads (README.md gives the rationale and the layer -> metric map):
///   pipeline-100k  generate -> runModel -> synthesizeAdjacency -> save ->
///                  release -> load -> build -> fits -> components
///   analysis-10k   load -> build -> fits -> components -> clustering ->
///                  louvain over a CADJ built in setup
///   spill-mp-100k  synthesizeToFile on the mp backend, process transport,
///                  64 MiB budget, 4 reduce shards, logs built in setup
///
/// Usage (normally through run.py, which builds this binary first):
///   pipebench --workload NAME --seed N --seconds S --trace 0|1
///                    --work DIR --trace-dir DIR
///                    [--commit SHA] [--source-digest HEX]
/// The last stdout line is the JSON result
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chisimnet/chisimnet.hpp"

#ifndef __OPTIMIZE__
#error "pipebench must be built with optimisation (Release or RelWithDebInfo)"
#endif

namespace {

using namespace chisimnet;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kMinIterations = 2;
constexpr unsigned kWorkers = 4;
constexpr int kRanks = 4;
constexpr double kCoverageFloor = 0.95;

// ---------------------------------------------------------------- process

double seconds(const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; }

/// CPU seconds of this process plus its reaped children (mp workers).
double cpuSeconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

/// Returns freed heap to the OS and resets this process's peak-RSS
/// watermark (Linux clear_refs "5"), so the peak read after an iteration
/// belongs to that iteration, not to setup or an earlier iteration.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// VmHWM of a process, in MiB (0 when it cannot be read).
double peakRssMib(const std::string& pid = "self") {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Summed peak RSS of this process's live children (the mp workers).
double childrenPeakRssMib() {
  double total = 0.0;
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    std::ifstream children(task.path() / "children");
    std::string pid;
    while (children >> pid) {
      total += peakRssMib(pid);
    }
  }
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.next();
}

// ---------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  int parent = -1;     ///< index into the span list, -1 for a root
  int run = 0;         ///< iteration id
};

/// In-memory span recorder. Disabled, open/close only return -1.
class Tracer {
 public:
  bool enabled = false;
  int run = 0;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int open(const std::string& name) {
    if (!enabled) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0.0, parent, run});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Adds a closed span recorded elsewhere (a forked iteration).
  void append(SpanRecord span) { spans_.push_back(std::move(span)); }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// kCheck steps (output checks) and kExtra steps (traced-only baselines)
/// count toward no phase and are excluded from an iteration's wall.
enum Phase { kSimulate, kSynthesize, kAnalyze, kCheck, kExtra, kPhaseCount };

/// One timed iteration of a workload's chain. Every step is timed (wall and
/// process CPU) whether or not spans are recorded; check steps are excluded
/// from the iteration's wall and CPU.
class Chain {
 public:
  explicit Chain(Tracer& tracer) : tracer_(tracer) {}

  void step(const std::string& name, Phase phase,
            const std::function<void()>& body) {
    const int span = tracer_.open(name);
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    body();
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double cpu = cpuSeconds() - cpu0;
    tracer_.close(span);
    wallOf[name] += wall;
    cpuOf[name] += cpu;
    phaseWall[phase] += wall;
    phaseCpu[phase] += cpu;
  }

  /// Records an output check; a false condition fails the iteration.
  void expect(bool condition, const std::string& what) {
    if (!condition) {
      failures.push_back(what);
    }
  }

  std::map<std::string, double> wallOf;
  std::map<std::string, double> cpuOf;
  std::map<std::string, double> values;  ///< counters and ratios
  double phaseWall[kPhaseCount] = {};
  double phaseCpu[kPhaseCount] = {};
  std::vector<std::string> failures;

 private:
  Tracer& tracer_;
};

// -------------------------------------------------------------- workloads

/// The city is a fixed input of each workload, as the census-derived
/// population is in the paper; --seed drives what runs on it (the agents'
/// schedules, hence the logs and the network, and the check samples).
/// Varying the city too made the 10k network's triangle work swing by
/// +-12% between seeds.
pop::PopulationConfig populationConfig(std::uint32_t persons) {
  pop::PopulationConfig config;
  config.personCount = persons;
  config.seed = 20170517;
  return config;
}

abm::ModelConfig modelConfig(const fs::path& logs, std::uint64_t seed) {
  abm::ModelConfig config;
  config.logDirectory = logs;
  config.rankCount = kRanks;
  config.weeks = 1;
  config.scheduleSeed = mixSeed(seed, 2);
  return config;
}

net::SynthesisConfig sharedSynthesisConfig(unsigned workers) {
  net::SynthesisConfig config;
  config.windowStart = 0;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = workers;
  return config;
}

/// Builds a CADJ with the shared backend, in memory, as `chisim synthesize`
/// does by default.
void writeReferenceNetwork(const fs::path& logs, const fs::path& cadj) {
  net::NetworkSynthesizer synthesizer(sharedSynthesisConfig(kWorkers));
  const auto adjacency =
      synthesizer.synthesizeAdjacency(elog::listLogFiles(logs));
  sparse::saveAdjacency(adjacency, cadj);
}

void recordSynthesis(Chain& chain, const net::SynthesisReport& report,
                     double outsideSeconds) {
  auto& v = chain.values;
  v["net.edges"] = static_cast<double>(report.edges);
  v["net.partition_imbalance"] = report.partitionImbalance;
  v["net.stage_load_s"] = report.loadSeconds;
  v["net.stage_subset_s"] = report.subsetSeconds;
  v["net.stage_collocation_s"] = report.collocationSeconds;
  v["net.stage_partition_s"] = report.partitionSeconds;
  v["net.stage_adjacency_s"] = report.adjacencySeconds;
  v["net.stage_reduce_s"] = report.reduceSeconds;
  v["net.unstaged_s"] = outsideSeconds - report.totalSeconds;
  v["elog.load_exposed_s"] = report.loadExposedSeconds;
  v["sparse.kernel_updates"] =
      static_cast<double>(report.kernelPairHourUpdates);
  v["sparse.global_emits"] = static_cast<double>(report.kernelGlobalEmits);
  v["sparse.emit_ratio"] =
      report.kernelPairHourUpdates == 0
          ? 0.0
          : static_cast<double>(report.kernelGlobalEmits) /
                static_cast<double>(report.kernelPairHourUpdates);
  v["sparse.spill_runs"] = static_cast<double>(report.spillRunsWritten);
  v["sparse.spill_mib"] = static_cast<double>(report.spilledBytes) / kMiB;
  v["sparse.spill_compactions"] = static_cast<double>(report.spillCompactions);
  v["sparse.peak_accumulator_mib"] =
      static_cast<double>(report.peakAccumulatorBytes) / kMiB;
  v["sparse.merge_cpu_s"] = report.mergeSeconds;
  v["sparse.merge_critical_s"] = report.mergeCriticalSeconds;
  v["runtime.scattered_mib"] =
      static_cast<double>(report.bytesScattered) / kMiB;
  v["runtime.returned_mib"] = static_cast<double>(report.bytesReturned) / kMiB;
  v["runtime.command_retries"] = static_cast<double>(report.commandRetries);
  v["runtime.workers_respawned"] = static_cast<double>(report.workersRespawned);
  v["runtime.ranks_lost"] = static_cast<double>(report.ranksLost);
}

/// load -> build -> release -> fits -> components, shared by the pipeline
/// and analysis workloads. Returns the graph for further analysis.
using EdgesAndWeight = std::pair<std::uint64_t, std::uint64_t>;

graph::Graph analyzeNetwork(Chain& chain, const fs::path& cadj,
                            std::optional<EdgesAndWeight> expected) {
  std::vector<sparse::AdjacencyTriplet> triplets;
  chain.step("sparse.load", kAnalyze,
             [&] { triplets = sparse::loadTriplets(cadj); });
  chain.values["sparse.load_mib_per_s"] =
      static_cast<double>(fs::file_size(cadj)) / kMiB /
      chain.wallOf["sparse.load"];
  graph::Graph network;
  chain.step("graph.build", kAnalyze,
             [&] { network = graph::Graph::fromTriplets(triplets); });
  std::uint64_t tripletWeight = 0;
  const std::uint64_t tripletCount = triplets.size();
  chain.step("check.triplets", kCheck, [&] {
    for (const auto& t : triplets) {
      tripletWeight += t.weight;
    }
    if (expected) {
      chain.expect(tripletCount == expected->first,
                   "reloaded triplet count differs from the in-memory "
                   "adjacency");
      chain.expect(tripletWeight == expected->second,
                   "reloaded total weight differs from the in-memory "
                   "adjacency");
    }
    chain.expect(network.edgeCount() == tripletCount,
                 "graph edge count differs from the triplet count");
    chain.expect(network.totalWeight() == tripletWeight,
                 "graph total weight differs from the triplet weight");
  });
  chain.step("sparse.release", kAnalyze, [&] {
    triplets.clear();
    triplets.shrink_to_fit();
  });

  std::vector<std::uint64_t> degrees;
  chain.step("stats.fit", kAnalyze, [&] {
    degrees = graph::degreeSequence(network);
    const auto distribution = stats::frequencyDistribution(degrees);
    const auto powerLaw = stats::fitPowerLaw(distribution);
    const auto truncated = stats::fitTruncatedPowerLaw(distribution);
    const auto exponential = stats::fitExponential(distribution);
    chain.expect(std::isfinite(powerLaw.alpha) &&
                     std::isfinite(truncated.alpha) &&
                     std::isfinite(exponential.cutoff),
                 "degree fit is not finite");
  });
  graph::Components components;
  chain.step("graph.components", kAnalyze,
             [&] { components = graph::connectedComponents(network); });
  chain.step("check.degrees", kCheck, [&] {
    std::uint64_t degreeSum = 0;
    for (std::uint64_t d : degrees) {
      degreeSum += d;
    }
    chain.expect(degreeSum == 2 * network.edgeCount(),
                 "degree sum differs from 2 * edges");
    std::uint64_t covered = 0;
    for (std::uint64_t size : components.sizes) {
      covered += size;
    }
    chain.expect(covered == network.vertexCount() &&
                     components.componentOf.size() == network.vertexCount(),
                 "components do not partition the vertices");
  });
  return network;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (files under the work directory) and warms up.
  virtual void setup() = 0;
  /// Set-ups per run; setup_s is their median. A cheap set-up is repeated
  /// five times: with three, one slow set-up swayed the median
  /// (pipeline-100k read 0.35-1.48 s over ten seeds).
  virtual int setupRepeats() const { return 5; }
  /// One timed iteration.
  virtual void iterate(Chain& chain) = 0;
  /// Extra traced-only measurements after the traced iteration.
  virtual void traceExtras(Chain&) {}
  /// Removes what an iteration left on disk (outside the timing); the
  /// benchmark calls it after the iteration and any traced extras.
  virtual void cleanup() {}
};

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(fs::path work, std::uint64_t seed)
      : work_(std::move(work)), seed_(seed) {}

  void setup() override {
    // The first runModel after start-up is ~3x slower than later ones
    // (1.0 s against 0.33 s); pay that here, on the workload's population.
    const fs::path warm = work_ / "warm_logs";
    fs::remove_all(warm);
    const auto population =
        pop::SyntheticPopulation::generate(populationConfig(kPersons));
    abm::runModel(population, modelConfig(warm, seed_));
    fs::remove_all(warm);
  }

  void iterate(Chain& chain) override {
    const fs::path logs = work_ / "logs";
    const fs::path cadj = work_ / "net.cadj";

    std::optional<pop::SyntheticPopulation> population;
    chain.step("pop.generate", kSimulate, [&] {
      population.emplace(
          pop::SyntheticPopulation::generate(populationConfig(kPersons)));
    });
    abm::ModelStats stats;
    chain.step("abm.run", kSimulate, [&] {
      stats = abm::runModel(*population, modelConfig(logs, seed_));
    });
    chain.step("pop.free", kSimulate, [&] { population.reset(); });
    chain.values["abm.events"] = static_cast<double>(stats.eventsLogged);
    chain.values["abm.log_mib"] = static_cast<double>(stats.logBytes) / kMiB;
    chain.values["abm.events_per_s"] =
        static_cast<double>(stats.eventsLogged) / chain.wallOf["abm.run"];
    chain.expect(stats.eventsLogged > 0, "simulation logged no events");

    std::optional<sparse::SymmetricAdjacency> adjacency;
    net::SynthesisReport report;
    chain.step("net.synthesize", kSynthesize, [&] {
      net::NetworkSynthesizer synthesizer(sharedSynthesisConfig(kWorkers));
      adjacency.emplace(
          synthesizer.synthesizeAdjacency(elog::listLogFiles(logs)));
      report = synthesizer.report();
    });
    recordSynthesis(chain, report, chain.wallOf["net.synthesize"]);
    chain.step("sparse.save", kSynthesize,
               [&] { sparse::saveAdjacency(*adjacency, cadj); });
    chain.values["sparse.save_mib_per_s"] =
        static_cast<double>(fs::file_size(cadj)) / kMiB /
        chain.wallOf["sparse.save"];
    std::pair<std::uint64_t, std::uint64_t> inMemory{0, 0};
    chain.step("check.adjacency", kCheck, [&] {
      const auto triplets = adjacency->toTriplets();
      inMemory.first = triplets.size();
      for (const auto& t : triplets) {
        inMemory.second += t.weight;
      }
      chain.expect(inMemory.first == report.edges,
                   "adjacency edge count differs from the report");
    });
    chain.step("sparse.free", kSynthesize, [&] { adjacency.reset(); });

    graph::Graph network = analyzeNetwork(chain, cadj, inMemory);
    chain.step("graph.free", kAnalyze, [&] { network = graph::Graph(); });
  }

  void traceExtras(Chain& chain) override {
    // Single-worker baseline of the same synthesis, for the speedup that
    // the reduce work is judged against.
    const fs::path logs = work_ / "logs";
    std::uint64_t edges = 0;
    chain.step("net.synthesize_w1", kExtra, [&] {
      net::NetworkSynthesizer synthesizer(sharedSynthesisConfig(1));
      edges = synthesizer.synthesizeAdjacency(elog::listLogFiles(logs))
                  .edgeCount();
    });
    chain.expect(edges == static_cast<std::uint64_t>(chain.values["net.edges"]),
                 "1-worker synthesis edge count differs from 4 workers");
  }

  void cleanup() override {
    fs::remove_all(work_ / "logs");
    fs::remove(work_ / "net.cadj");
  }

 private:
  static constexpr std::uint32_t kPersons = 100'000;
  fs::path work_;
  std::uint64_t seed_;
};

class AnalysisWorkload final : public Workload {
 public:
  AnalysisWorkload(fs::path work, std::uint64_t seed)
      : work_(std::move(work)), seed_(seed) {}

  void setup() override {
    const fs::path logs = work_ / "setup_logs";
    fs::remove_all(logs);
    const auto population =
        pop::SyntheticPopulation::generate(populationConfig(kPersons));
    abm::runModel(population, modelConfig(logs, seed_));
    writeReferenceNetwork(logs, cadj());
    fs::remove_all(logs);
  }

  void iterate(Chain& chain) override {
    graph::Graph network = analyzeNetwork(chain, cadj(), std::nullopt);

    std::vector<double> coefficients;
    chain.step("graph.clustering", kAnalyze, [&] {
      coefficients = graph::localClusteringCoefficients(network);
    });
    // The seed `chisim analyze --communities` uses by default.
    util::Rng louvainRng(1);
    graph::CommunityAssignment communities;
    chain.step("graph.louvain", kAnalyze,
               [&] { communities = graph::louvain(network, louvainRng); });

    chain.step("check.triangles", kCheck,
               [&] { checkTriangles(chain, network, coefficients); });
    chain.step("check.modularity", kCheck, [&] {
      const double q = graph::modularity(network, communities.communityOf);
      chain.expect(q == communities.modularity,
                   "modularity of the Louvain labels differs from the "
                   "modularity Louvain reports");
    });

    double wedges = 0.0;
    double cornerTriangles = 0.0;
    for (graph::Vertex v = 0; v < network.vertexCount(); ++v) {
      const double d = static_cast<double>(network.degree(v));
      const double pairs = d * (d - 1.0) / 2.0;
      wedges += pairs;
      cornerTriangles += std::round(coefficients[v] * pairs);
    }
    chain.values["graph.wedges"] = wedges;
    chain.values["graph.triangles"] = std::round(cornerTriangles / 3.0);
    chain.values["graph.louvain_communities"] = communities.communityCount;
    chain.values["graph.modularity"] = communities.modularity;
    chain.step("graph.free", kAnalyze, [&] { network = graph::Graph(); });
  }

 private:
  static constexpr std::uint32_t kPersons = 10'000;
  static constexpr int kSampledVertices = 256;

  fs::path cadj() const { return work_ / "analysis.cadj"; }

  /// Brute-force triangle counts by hash-set intersection at a seeded
  /// sample of vertices; the library's coefficient must equal the one
  /// computed from that count, bit for bit.
  void checkTriangles(Chain& chain, const graph::Graph& network,
                      const std::vector<double>& coefficients) const {
    chain.expect(coefficients.size() == network.vertexCount(),
                 "one clustering coefficient per vertex");
    if (network.vertexCount() == 0 ||
        coefficients.size() != network.vertexCount()) {
      return;
    }
    util::Rng rng(mixSeed(seed_, 4));
    for (int sample = 0; sample < kSampledVertices; ++sample) {
      const auto v = static_cast<graph::Vertex>(
          rng.uniformBelow(network.vertexCount()));
      const auto around = network.neighbors(v);
      const std::unordered_set<graph::Vertex> adjacent(around.begin(),
                                                       around.end());
      std::uint64_t closedPairs = 0;  // each triangle at v seen from both ends
      for (graph::Vertex u : around) {
        for (graph::Vertex w : network.neighbors(u)) {
          closedPairs += adjacent.count(w);
        }
      }
      const std::uint64_t degree = network.degree(v);
      double expected = 0.0;
      if (degree >= 2) {
        const double triples = static_cast<double>(degree) *
                               static_cast<double>(degree - 1) / 2.0;
        expected = static_cast<double>(closedPairs) / 2.0 / triples;
      }
      if (coefficients[v] != expected) {
        chain.expect(false, "clustering coefficient of vertex " +
                                std::to_string(v) +
                                " differs from the brute-force triangle count");
        return;
      }
    }
  }

  fs::path work_;
  std::uint64_t seed_;
};

class SpillWorkload final : public Workload {
 public:
  SpillWorkload(fs::path work, std::uint64_t seed)
      : work_(std::move(work)), seed_(seed) {}

  void setup() override {
    fs::remove_all(logs());
    const auto population =
        pop::SyntheticPopulation::generate(populationConfig(kPersons));
    abm::runModel(population, modelConfig(logs(), seed_));
    writeReferenceNetwork(logs(), reference());
  }

  void iterate(Chain& chain) override {
    net::SynthesisConfig config = sharedSynthesisConfig(kWorkers);
    config.backend = net::SynthesisBackend::kMessagePassing;
    config.transport = net::MpTransport::kProcess;
    config.memoryBudgetBytes = std::uint64_t{64} << 20;
    config.reduceShards = 4;
    config.spillDir = work_ / "spill";

    std::optional<net::NetworkSynthesizer> synthesizer;
    std::uint64_t edges = 0;
    chain.step("net.synthesize", kSynthesize, [&] {
      synthesizer.emplace(config);
      edges = synthesizer->synthesizeToFile(elog::listLogFiles(logs()),
                                            output());
    });
    const net::SynthesisReport report = synthesizer->report();
    recordSynthesis(chain, report, chain.wallOf["net.synthesize"]);
    chain.values["runtime.worker_peak_rss_mib"] = childrenPeakRssMib();
    // Stops the worker processes and reaps them, so their CPU reaches
    // RUSAGE_CHILDREN. (Their peak RSS was read above, while they lived.)
    chain.step("runtime.shutdown", kSynthesize, [&] { synthesizer.reset(); });

    chain.step("check.identity", kCheck, [&] {
      chain.expect(edges == report.edges, "edge count differs from the report");
      chain.expect(sameBytes(output(), reference()),
                   "spilled mp CADJ differs from the shared in-memory "
                   "reference");
      chain.expect(report.commandRetries == 0 && report.workersRespawned == 0 &&
                       report.ranksLost == 0,
                   "worker retries, respawns or lost ranks in a clean run");
      chain.expect(report.spillRunsWritten > 0, "the budget caused no spill");
    });
  }

  void cleanup() override {
    fs::remove(output());
    fs::remove_all(work_ / "spill");
  }

  /// An ~8 s set-up whose three runs already agree within a few percent.
  int setupRepeats() const override { return 3; }

 private:
  static constexpr std::uint32_t kPersons = 100'000;

  fs::path logs() const { return work_ / "logs"; }
  fs::path reference() const { return work_ / "reference.cadj"; }
  fs::path output() const { return work_ / "spill.cadj"; }

  static bool sameBytes(const fs::path& a, const fs::path& b) {
    if (fs::file_size(a) != fs::file_size(b)) {
      return false;
    }
    std::ifstream fa(a, std::ios::binary);
    std::ifstream fb(b, std::ios::binary);
    std::vector<char> ba(1 << 20);
    std::vector<char> bb(1 << 20);
    while (fa && fb) {
      fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
      fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
      if (fa.gcount() != fb.gcount() ||
          !std::equal(ba.begin(), ba.begin() + fa.gcount(), bb.begin())) {
        return false;
      }
    }
    return true;
  }

  fs::path work_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------- metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"simulate_s", "s"},
    {"synthesize_s", "s"},
    {"analyze_s", "s"},
    {"fail_frac", "ratio"},
    {"pop.generate_s", "s"},
    {"abm.run_s", "s"},
    {"abm.run_cpu_s", "s"},
    {"abm.events", "count"},
    {"abm.events_per_s", "1/s"},
    {"abm.log_mib", "MiB"},
    {"net.synthesize_s", "s"},
    {"net.synthesize_cpu_s", "s"},
    {"net.edges", "count"},
    {"net.partition_imbalance", "ratio"},
    {"net.stage_load_s", "s"},
    {"net.stage_subset_s", "s"},
    {"net.stage_collocation_s", "s"},
    {"net.stage_partition_s", "s"},
    {"net.stage_adjacency_s", "s"},
    {"net.stage_reduce_s", "s"},
    {"net.unstaged_s", "s"},
    {"net.synthesize_w1_s", "s"},
    {"net.speedup_w4", "ratio"},
    {"elog.load_exposed_s", "s"},
    {"sparse.kernel_updates", "count"},
    {"sparse.global_emits", "count"},
    {"sparse.emit_ratio", "ratio"},
    {"sparse.save_s", "s"},
    {"sparse.save_mib_per_s", "MiB/s"},
    {"sparse.free_s", "s"},
    {"sparse.load_s", "s"},
    {"sparse.load_mib_per_s", "MiB/s"},
    {"sparse.spill_runs", "count"},
    {"sparse.spill_mib", "MiB"},
    {"sparse.spill_compactions", "count"},
    {"sparse.peak_accumulator_mib", "MiB"},
    {"sparse.merge_cpu_s", "s"},
    {"sparse.merge_critical_s", "s"},
    {"runtime.scattered_mib", "MiB"},
    {"runtime.returned_mib", "MiB"},
    {"runtime.command_retries", "count"},
    {"runtime.workers_respawned", "count"},
    {"runtime.ranks_lost", "count"},
    {"runtime.shutdown_s", "s"},
    {"runtime.worker_peak_rss_mib", "MiB"},
    {"graph.build_s", "s"},
    {"graph.components_s", "s"},
    {"graph.clustering_s", "s"},
    {"graph.clustering_cpu_s", "s"},
    {"graph.wedges", "count"},
    {"graph.triangles", "count"},
    {"graph.louvain_s", "s"},
    {"graph.louvain_communities", "count"},
    {"graph.modularity", "ratio"},
    {"stats.fit_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.span_coverage", "ratio"},
    {"trace.uncovered_s", "s"},
};

/// Per-layer values of one (traced) iteration, keyed by kPerLayer names.
std::map<std::string, double> perLayerValues(Chain& chain) {
  std::map<std::string, double> out = chain.values;
  const auto wall = [&](const char* name) {
    const auto it = chain.wallOf.find(name);
    return it == chain.wallOf.end() ? 0.0 : it->second;
  };
  const auto cpu = [&](const char* name) {
    const auto it = chain.cpuOf.find(name);
    return it == chain.cpuOf.end() ? 0.0 : it->second;
  };
  out["simulate_s"] = chain.phaseWall[kSimulate];
  out["synthesize_s"] = chain.phaseWall[kSynthesize];
  out["analyze_s"] = chain.phaseWall[kAnalyze];
  out["pop.generate_s"] = wall("pop.generate");
  out["abm.run_s"] = wall("abm.run");
  out["abm.run_cpu_s"] = cpu("abm.run");
  out["net.synthesize_s"] = wall("net.synthesize");
  // On mp the workers' CPU is only counted once they are reaped.
  out["net.synthesize_cpu_s"] = cpu("net.synthesize") + cpu("runtime.shutdown");
  out["runtime.shutdown_s"] = wall("runtime.shutdown");
  out["sparse.save_s"] = wall("sparse.save");
  out["sparse.free_s"] = wall("sparse.free");
  out["sparse.load_s"] = wall("sparse.load");
  out["graph.build_s"] = wall("graph.build");
  out["graph.components_s"] = wall("graph.components");
  out["graph.clustering_s"] = wall("graph.clustering");
  out["graph.clustering_cpu_s"] = cpu("graph.clustering");
  out["graph.louvain_s"] = wall("graph.louvain");
  out["stats.fit_s"] = wall("stats.fit");
  const double w1 = wall("net.synthesize_w1");
  out["net.synthesize_w1_s"] = w1;
  const double w4 = out["net.synthesize_s"];
  out["net.speedup_w4"] = w1 > 0.0 && w4 > 0.0 ? w1 / w4 : 0.0;
  return out;
}

// ------------------------------------------------------------------ trace

struct SpanAggregate {
  std::uint64_t calls = 0;
  double total = 0.0;
  double self = 0.0;
};

/// Self time of every span: its duration minus what its children cover.
std::map<std::string, SpanAggregate> aggregate(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> childCover(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      childCover[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
    }
  }
  std::map<std::string, SpanAggregate> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanAggregate& a = out[spans[i].name];
    a.calls += 1;
    a.total += spans[i].end - spans[i].start;
    a.self += spans[i].end - spans[i].start - childCover[i];
  }
  return out;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void writeChromeTrace(const std::vector<SpanRecord>& spans,
                      const fs::path& path) {
  std::ofstream out(path);
  out << std::setprecision(17) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "  {\"name\": " << jsonString(s.name)
        << ", \"cat\": \"pipebench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << s.start * 1e6
        << ", \"dur\": " << (s.end - s.start) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
}

// ------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;
  fs::path traceDir;
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
};

Options parseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work") {
      options.work = value;
    } else if (key == "--trace-dir") {
      options.traceDir = value;
    } else if (key == "--commit") {
      options.commit = value;
    } else if (key == "--source-digest") {
      options.sourceDigest = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1) {
    throw std::invalid_argument("options come in --key value pairs");
  }
  if (options.workload.empty() || options.work.empty() ||
      options.traceDir.empty() || options.seconds <= 0) {
    throw std::invalid_argument(
        "--workload, --work, --trace-dir and --seconds > 0 are required");
  }
  return options;
}

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "pipeline-100k") {
    return std::make_unique<PipelineWorkload>(options.work, options.seed);
  }
  if (options.workload == "analysis-10k") {
    return std::make_unique<AnalysisWorkload>(options.work, options.seed);
  }
  if (options.workload == "spill-mp-100k") {
    return std::make_unique<SpillWorkload>(options.work, options.seed);
  }
  throw std::invalid_argument("unknown workload " + options.workload);
}

struct IterationResult {
  double wall = 0.0;  ///< chain wall without check steps
  double cpu = 0.0;
  double peakRss = 0.0;
  bool ok = false;  ///< set by the parent from the iteration's failures
};

/// The iteration itself, in the forked child: the chain under a root span,
/// then (traced runs) the extras outside it. A throw counts as a failure.
IterationResult iterateInChild(Workload& workload, Tracer& tracer, Chain& chain,
                               bool withExtras) {
  IterationResult result;
  resetPeakRss();
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  const int root = tracer.open("chain");
  try {
    workload.iterate(chain);
  } catch (const std::exception& error) {
    chain.failures.push_back(std::string("threw: ") + error.what());
  }
  tracer.close(root);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  result.wall = wall - chain.phaseWall[kCheck];
  result.cpu = cpuSeconds() - cpu0 - chain.phaseCpu[kCheck];
  result.peakRss = peakRssMib() + chain.values["runtime.worker_peak_rss_mib"];
  if (withExtras && chain.failures.empty()) {
    try {
      workload.traceExtras(chain);
    } catch (const std::exception& error) {
      chain.failures.push_back(std::string("threw: ") + error.what());
    }
  }
  return result;
}

/// Child -> parent record of one iteration, one item per line.
std::string encodeIteration(const IterationResult& result, const Chain& chain,
                            const std::vector<SpanRecord>& spans,
                            std::size_t firstSpan) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "R " << result.wall << " " << result.cpu << " " << result.peakRss
      << "\n";
  for (const auto& [name, value] : chain.wallOf) {
    out << "W " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : chain.cpuOf) {
    out << "C " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : chain.values) {
    out << "V " << name << " " << value << "\n";
  }
  for (int p = 0; p < kPhaseCount; ++p) {
    out << "P " << p << " " << chain.phaseWall[p] << " " << chain.phaseCpu[p]
        << "\n";
  }
  for (std::size_t i = firstSpan; i < spans.size(); ++i) {
    out << "S " << spans[i].start << " " << spans[i].end << " "
        << spans[i].parent << " " << spans[i].run << " " << spans[i].name
        << "\n";
  }
  for (const std::string& failure : chain.failures) {
    std::string line = failure;
    std::replace(line.begin(), line.end(), '\n', ' ');
    out << "F " << line << "\n";
  }
  return out.str();
}

bool decodeIteration(const std::string& text, IterationResult& result,
                     Chain& chain, Tracer& tracer) {
  std::istringstream in(text);
  std::string line;
  bool sawResult = false;
  while (std::getline(in, line)) {
    std::istringstream item(line);
    std::string tag;
    item >> tag;
    if (tag == "R") {
      item >> result.wall >> result.cpu >> result.peakRss;
      sawResult = true;
    } else if (tag == "W" || tag == "C" || tag == "V") {
      std::string name;
      double value = 0.0;
      item >> name >> value;
      auto& into = tag == "W" ? chain.wallOf
                   : tag == "C" ? chain.cpuOf
                                : chain.values;
      into[name] = value;
    } else if (tag == "P") {
      int p = 0;
      item >> p;
      item >> chain.phaseWall[p] >> chain.phaseCpu[p];
    } else if (tag == "S") {
      SpanRecord span;
      item >> span.start >> span.end >> span.parent >> span.run >> span.name;
      tracer.append(std::move(span));
    } else if (tag == "F") {
      chain.failures.push_back(line.substr(2));
    }
  }
  return sawResult;
}

/// Runs `body` in a forked child and returns what it wrote, or nothing when
/// the child died or exited non-zero. The pipebench process itself never runs
/// the library: set-ups and iterations all run in children of it, so each
/// starts from the same small heap, as a fresh `chisim` command does, and
/// none inherits another's allocator state. (With set-up in that process,
/// the resident heap an analysis-10k iteration inherited varied from 76 to
/// 116 MiB between seeds, and its peak RSS with it.)
std::optional<std::string> runForked(const std::function<std::string()>& body) {
  std::cout.flush();
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string record = body();
    std::size_t written = 0;
    while (written < record.size()) {
      const ssize_t n =
          write(fds[1], record.data() + written, record.size() - written);
      if (n <= 0) {
        _exit(1);
      }
      written += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string record;
  char buffer[1 << 16];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof buffer)) > 0) {
    record.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return record;
}

/// One timed iteration, forked; a crash of the child counts as a failure.
IterationResult runIteration(Workload& workload, Tracer& tracer, Chain& chain,
                             bool withExtras) {
  const std::size_t firstSpan = tracer.spans().size();
  const auto record = runForked([&] {
    const IterationResult result =
        iterateInChild(workload, tracer, chain, withExtras);
    return encodeIteration(result, chain, tracer.spans(), firstSpan);
  });
  IterationResult result;
  if (!record || !decodeIteration(*record, result, chain, tracer)) {
    chain.failures.push_back("iteration process died");
  }
  result.ok = chain.failures.empty();
  for (const std::string& failure : chain.failures) {
    std::cout << "FAILED: " << failure << "\n";
  }
  return result;
}

/// One set-up, forked; returns its wall seconds. A failed set-up ends the
/// run without a result.
double runSetup(Workload& workload) {
  const auto t0 = Clock::now();
  const auto error = runForked([&]() -> std::string {
    try {
      workload.setup();
      return "";
    } catch (const std::exception& e) {
      return e.what();
    }
  });
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (!error || !error->empty()) {
    throw std::runtime_error("set-up failed: " +
                             error.value_or("process died"));
  }
  return wall;
}

std::string formatValue(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  const std::string text = out.str();
  return std::isfinite(value) ? text : "0";
}

struct SpanCoverage {
  double share = 0.0;      ///< child-span wall / chain wall
  double uncovered = 0.0;  ///< chain wall no child span covers, seconds
};

/// Prints the span table with its (uncovered) row, writes the Chrome trace
/// and the self-time aggregate, and returns the chain's span coverage.
SpanCoverage reportSpans(const Options& options,
                         const std::vector<SpanRecord>& spans, long nproc) {
  const auto totals = aggregate(spans);
  double rootWall = 0.0;
  double childWall = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.parent < 0 && span.name == "chain") {
      rootWall += span.end - span.start;
    } else if (span.parent >= 0 &&
               spans[static_cast<std::size_t>(span.parent)].parent < 0) {
      childWall += span.end - span.start;
    }
  }
  const SpanCoverage cover{rootWall > 0.0 ? childWall / rootWall : 0.0,
                           rootWall - childWall};

  std::cout << "span                          calls     total_s      self_s"
               "   share\n";
  const auto row = [&](const std::string& name, const std::string& calls,
                       double total, double self) {
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(7) << calls << std::setw(12) << total
              << std::setw(12) << self
              << std::setw(7) << std::setprecision(1)
              << 100.0 * total / std::max(rootWall, 1e-9) << "%"
              << std::setprecision(3) << "\n";
  };
  for (const auto& [name, a] : totals) {
    row(name, std::to_string(a.calls), a.total, a.self);
  }
  row("(uncovered)", "", cover.uncovered, cover.uncovered);

  fs::create_directories(options.traceDir);
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  writeChromeTrace(spans, options.traceDir / (stem + ".trace.json"));
  std::ofstream agg(options.traceDir / (stem + ".aggregate.json"));
  agg << std::setprecision(17)
      << "{\"workload\": " << jsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"nproc\": " << nproc
      << ", \"compiler\": " << jsonString(PIPEBENCH_COMPILER)
      << ", \"build_type\": " << jsonString(PIPEBENCH_BUILD_TYPE)
      << ", \"commit\": " << jsonString(options.commit)
      << ", \"source_digest\": " << jsonString(options.sourceDigest)
      << ", \"span_coverage\": " << cover.share << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, a] : totals) {
    agg << (first ? "" : ", ") << jsonString(name)
        << ": {\"calls\": " << a.calls
        << ", \"total_s\": " << a.total << ", \"self_s\": " << a.self << "}";
    first = false;
  }
  agg << "}}\n";
  std::cout << "trace: "
            << (options.traceDir / (stem + ".trace.json")).string() << "\n";
  return cover;
}

int runBenchmark(const Options& options) {
  fs::remove_all(options.work);
  fs::create_directories(options.work);
  const auto workload = makeWorkload(options);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::cout << "pipebench " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << "\nhost: nproc=" << nproc << " compiler=" << PIPEBENCH_COMPILER
            << " build=" << PIPEBENCH_BUILD_TYPE << " commit=" << options.commit
            << " source=" << options.sourceDigest << "\n";

  std::vector<double> setupTimes;
  for (int i = 0; i < workload->setupRepeats(); ++i) {
    setupTimes.push_back(runSetup(*workload));
  }

  Tracer tracer;
  std::vector<IterationResult> untraced;
  int attempted = 0;
  int failed = 0;
  // Iterate until --seconds have passed, and at least kMinIterations times.
  const auto loopStart = Clock::now();
  while (untraced.size() < kMinIterations ||
         std::chrono::duration<double>(Clock::now() - loopStart).count() <
             options.seconds) {
    Chain chain(tracer);
    tracer.run = attempted;
    untraced.push_back(runIteration(*workload, tracer, chain, false));
    workload->cleanup();
    ++attempted;
    failed += untraced.back().ok ? 0 : 1;
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss;
  for (const IterationResult& r : untraced) {
    walls.push_back(r.wall);
    cpus.push_back(r.cpu);
    rss.push_back(r.peakRss);
  }
  std::map<std::string, double> metrics = {
      {"wall_s", median(walls)},
      {"cpu_s", median(cpus)},
      {"peak_rss_mib", median(rss)},
      {"setup_s", median(setupTimes)},
  };

  std::cout << std::fixed << std::setprecision(3);
  std::cout << "setup_s runs:";
  for (double t : setupTimes) {
    std::cout << " " << t;
  }
  std::cout << "\niterations: " << untraced.size() << "\n";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::cout << "  #" << i << " wall " << untraced[i].wall << " s, cpu "
              << untraced[i].cpu << " s, peak " << untraced[i].peakRss
              << " MiB" << (untraced[i].ok ? "" : "  FAILED") << "\n";
  }

  bool correct = failed == 0;
  const MetricSpec* specs = kEndToEnd;
  std::size_t specCount = std::size(kEndToEnd);
  if (options.trace) {
    tracer.enabled = true;
    tracer.run = attempted;
    Chain chain(tracer);
    const IterationResult traced = runIteration(*workload, tracer, chain, true);
    ++attempted;
    failed += traced.ok ? 0 : 1;
    workload->cleanup();

    const SpanCoverage cover = reportSpans(options, tracer.spans(), nproc);
    std::map<std::string, double> layer = perLayerValues(chain);
    layer["trace.overhead_s"] = traced.wall - metrics["wall_s"];
    layer["trace.span_coverage"] = cover.share;
    layer["trace.uncovered_s"] = cover.uncovered;
    layer["fail_frac"] = static_cast<double>(failed) / attempted;
    std::cout << "traced iteration: wall " << traced.wall
              << " s (untraced median " << metrics["wall_s"] << " s)\n";
    if (cover.share < kCoverageFloor) {
      std::cout << "FAILED: spans cover " << 100.0 * cover.share
                << "% of the chain wall (floor " << 100.0 * kCoverageFloor
                << "%)\n";
      correct = false;
    }
    correct = correct && failed == 0;

    metrics = std::move(layer);
    specs = kPerLayer;
    specCount = std::size(kPerLayer);
  }

  std::cout << std::setprecision(6);
  for (std::size_t i = 0; i < specCount; ++i) {
    std::cout << std::left << std::setw(30) << specs[i].name << std::right
              << std::setw(18) << metrics[specs[i].name] << " " << specs[i].unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < specCount; ++i) {
    std::cout << (i == 0 ? "" : ", ") << jsonString(specs[i].name)
              << ": {\"value\": " << formatValue(metrics[specs[i].name])
              << ", \"unit\": " << jsonString(specs[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  fs::remove_all(options.work);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The mp process transport re-executes this binary for its worker ranks.
  if (const auto workerExit = net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  try {
    return runBenchmark(parseOptions(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "pipebench: " << error.what() << "\n";
    return 1;
  }
}

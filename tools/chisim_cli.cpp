/// chisim — command-line driver for the chisimnet pipeline.
///
/// Subcommands mirror the paper's workflow:
///   simulate    generate a synthetic population and run the distributed
///               ABM, writing per-rank CLG5 logs (optionally with the SEIR
///               disease layer and its CLX5 logs)
///   info        inventory of a log directory (files, entries, time range)
///   synthesize  logs -> sparse collocation adjacency (CADJ file)
///   analyze     CADJ -> degree distribution, fits, clustering, components,
///               communities
///   ego         CADJ -> radius-k ego network around a person, exported as
///               SVG + GraphML
///
/// Example session:
///   chisim simulate   --persons 20000 --weeks 1 --ranks 4 --logs /tmp/run
///   chisim info       --logs /tmp/run
///   chisim synthesize --logs /tmp/run --window-end 168 --out /tmp/net.cadj
///   chisim analyze    --net /tmp/net.cadj --communities
///   chisim ego        --net /tmp/net.cadj --person 42 --radius 2
///                     --out /tmp/ego

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chisimnet/chisimnet.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/socket_transport.hpp"

namespace {

using namespace chisimnet;

/// Minimal --key value argument parser.
class Args {
 public:
  Args(int argc, char** argv, int firstArg) {
    for (int i = firstArg; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got: " + key);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.contains(key); }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string requireStr(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    return it->second;
  }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    std::uint64_t value = 0;
    const auto& text = it->second;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument("--" + key + " expects an integer, got: " +
                                  text);
    }
    return value;
  }

  /// Byte size with an optional K/M/G (KiB/MiB/GiB) suffix, e.g.
  /// --memory-budget 256M.
  std::uint64_t bytes(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    std::string text = it->second;
    std::uint64_t multiplier = 1;
    if (!text.empty()) {
      switch (text.back()) {
        case 'K': case 'k': multiplier = std::uint64_t{1} << 10; break;
        case 'M': case 'm': multiplier = std::uint64_t{1} << 20; break;
        case 'G': case 'g': multiplier = std::uint64_t{1} << 30; break;
        default: break;
      }
      if (multiplier != 1) {
        text.pop_back();
      }
    }
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument(
          "--" + key + " expects a byte size like 4096, 256M or 12G, got: " +
          it->second);
    }
    return value * multiplier;
  }

  double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    return std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

int cmdSimulate(const Args& args) {
  pop::PopulationConfig popConfig;
  popConfig.personCount = static_cast<std::uint32_t>(args.u64("persons", 20000));
  popConfig.seed = args.u64("seed", 20170517);
  const auto population = pop::SyntheticPopulation::generate(popConfig);
  std::cout << "population: " << population.persons().size() << " persons, "
            << population.places().size() << " places\n";

  abm::ModelConfig config;
  config.logDirectory = args.requireStr("logs");
  config.rankCount = static_cast<int>(args.u64("ranks", 4));
  config.weeks = static_cast<std::uint32_t>(args.u64("weeks", 1));
  config.scheduleSeed = args.u64("schedule-seed", 7);
  config.logCacheEntries = args.u64("cache", elog::kDefaultCacheEntries);
  if (args.str("partition", "neighborhood") == "round-robin") {
    config.strategy = abm::PartitionStrategy::kRoundRobin;
  }
  if (args.has("compress")) {
    config.logCompression = elog::LogCompression::kPacked;
  }
  const std::string core = args.str("abm-core", "event");
  if (core == "hourly") {
    config.core = abm::ModelCore::kHourly;
  } else if (core == "event") {
    config.core = abm::ModelCore::kEventDriven;
  } else {
    std::cerr << "unknown --abm-core '" << core << "' (hourly|event)\n";
    return 2;
  }
  config.checkpointDir = args.str("checkpoint-dir", "");
  config.checkpointEveryHours =
      static_cast<std::uint32_t>(args.u64("sim-checkpoint-hours", 0));
  config.resume = args.has("resume");

  // SIGTERM/SIGINT become a graceful checkpoint-and-exit only when there
  // is a checkpoint directory to write to; otherwise the default
  // dispositions (terminate) stay in place.
  std::optional<abm::ScopedShutdownHandler> shutdownHandler;
  if (!config.checkpointDir.empty()) {
    abm::clearShutdownRequest();
    shutdownHandler.emplace();
  }

  abm::ModelStats stats;
  if (args.has("disease")) {
    abm::DiseaseConfig disease;
    disease.beta = args.real("beta", 0.002);
    disease.seedCount = static_cast<std::uint32_t>(args.u64("seeds", 5));
    disease.seed = args.u64("disease-seed", 99);
    abm::DiseaseStats epidemic;
    stats = abm::runModel(population, config, disease, epidemic);
    std::cout << "epidemic: " << epidemic.seeded << " seeds, "
              << epidemic.infections << " transmissions, attack rate "
              << 100.0 * epidemic.attackRate() << "%, peak "
              << epidemic.peakInfectious << " @h" << epidemic.peakHour << "\n";
  } else {
    stats = abm::runModel(population, config);
  }
  std::cout << "simulated " << stats.simulatedHours << " h ("
            << stats.hoursActive << " active, " << core << " core) on "
            << config.rankCount << " ranks in " << stats.wallSeconds << " s; "
            << stats.eventsLogged << " events ("
            << stats.logBytes / 1024 / 1024 << " MiB), migration "
            << 100.0 * stats.migrationFraction() << "%\n";
  if (stats.checkpointsWritten > 0 || stats.resumed) {
    std::cout << "checkpoint: " << stats.checkpointsWritten << " written to "
              << config.checkpointDir.string();
    if (stats.resumed) {
      std::cout << ", resumed at h" << stats.hoursReplayed << " ("
                << stats.hoursReplayed << " h already on disk)";
    }
    std::cout << "\n";
  }
  if (stats.interrupted) {
    std::cout << "interrupted: checkpointed and stopped on a shutdown "
                 "signal; rerun with --resume to continue\n";
    return 3;
  }
  return 0;
}

int cmdInfo(const Args& args) {
  const auto files = elog::listLogFiles(args.requireStr("logs"));
  if (files.empty()) {
    std::cout << "no CLG5 files found\n";
    return 1;
  }
  std::uint64_t totalEntries = 0;
  for (const auto& file : files) {
    elog::ChunkedLogReader reader(file);
    table::Hour minStart = ~0u;
    table::Hour maxEnd = 0;
    for (const elog::ChunkInfo& chunk : reader.chunks()) {
      minStart = std::min(minStart, chunk.minStart);
      maxEnd = std::max(maxEnd, chunk.maxEnd);
    }
    std::cout << file.filename().string() << ": " << reader.totalEntries()
              << " entries in " << reader.chunks().size() << " chunks, ";
    if (reader.chunks().empty()) {
      std::cout << "empty, ";
    } else {
      std::cout << "hours [" << minStart << ", " << maxEnd << "), ";
    }
    std::cout << std::filesystem::file_size(file) / 1024 << " KiB\n";
    totalEntries += reader.totalEntries();
  }
  std::cout << "total: " << files.size() << " files, " << totalEntries
            << " entries, " << elog::totalFileBytes(files) / 1024 / 1024
            << " MiB\n";
  return 0;
}

int cmdSynthesize(const Args& args) {
  const auto files = elog::listLogFiles(args.requireStr("logs"));
  if (files.empty()) {
    std::cerr << "no CLG5 files found\n";
    return 1;
  }
  net::SynthesisConfig config;
  config.windowStart = static_cast<table::Hour>(args.u64("window-start", 0));
  config.windowEnd = static_cast<table::Hour>(args.u64("window-end", 168));
  config.workers = static_cast<unsigned>(args.u64("workers", 4));
  config.filesPerBatch = args.u64("batch", 0);
  config.balancedPartition = !args.has("no-balance");
  config.prefetch = !args.has("no-prefetch");
  config.prefetchDepth = args.u64("prefetch-depth", 2);
  config.decodeWorkers = static_cast<unsigned>(args.u64("decode-workers", 0));
  // On by default (see EXPERIMENTS.md); --occupancy-weight is still
  // accepted so existing invocations keep working.
  config.occupancyWeight = !args.has("nnz-weight");
  const std::string backend = args.str("backend", "shared");
  if (backend == "mp") {
    config.backend = net::SynthesisBackend::kMessagePassing;
  } else if (backend != "shared") {
    throw std::invalid_argument("--backend expects shared or mp, got: " +
                                backend);
  }
  const std::string policy = args.str("fault-policy", "failfast");
  if (policy == "degrade") {
    config.faultPolicy = net::FaultPolicy::kDegrade;
  } else if (policy != "failfast") {
    throw std::invalid_argument(
        "--fault-policy expects failfast or degrade, got: " + policy);
  }
  config.maxQuarantinedFiles = args.u64("max-quarantined-files", 0);
  config.commandTimeoutMs = args.u64("command-timeout-ms", 0);
  const std::string transport = args.str("transport", "inproc");
  if (transport == "process") {
    config.transport = net::MpTransport::kProcess;
  } else if (transport == "tcp") {
    config.transport = net::MpTransport::kTcp;
  } else if (transport != "inproc") {
    throw std::invalid_argument(
        "--transport expects inproc, process or tcp, got: " + transport);
  }
  config.maxRespawns = static_cast<int>(args.u64("max-respawns", 1));
  config.heartbeatMs = args.u64("heartbeat-ms", 250);
  config.connectTimeoutMs = args.u64("connect-timeout-ms", 5000);
  config.connectRetries = static_cast<int>(args.u64("connect-retries", 5));
  config.reconnectGraceMs = args.u64("reconnect-grace-ms", 3000);
  config.tcpListen = args.str("tcp-listen", "");
  config.tcpJob = args.str("tcp-job", "");
  config.checkpointDir = args.str("checkpoint-dir", "");
  config.resume = args.has("resume");
  config.memoryBudgetBytes = args.bytes("memory-budget", 0);
  config.spillDir = args.str("spill-dir", "");
  config.reduceShards = static_cast<unsigned>(args.u64("reduce-shards", 0));
  const std::string out = args.requireStr("out");
  net::NetworkSynthesizer synthesizer(config);
  std::uint64_t edges = 0;
  if (config.memoryBudgetBytes > 0) {
    // Bounded-memory path: the accumulator spills sorted runs and the
    // final k-way merge streams straight into the CADJ file, so the
    // result never has to be resident.
    edges = synthesizer.synthesizeToFile(files, out);
  } else {
    const auto adjacency = synthesizer.synthesizeAdjacency(files);
    edges = adjacency.edgeCount();
    sparse::saveAdjacency(adjacency, out, config.workers);
  }
  const auto& report = synthesizer.report();
  std::cout << "synthesized " << edges << " edges from "
            << report.logEntriesLoaded << " entries / "
            << report.placesProcessed << " places in "
            << report.totalSeconds << " s (" << net::backendName(report.backend)
            << " backend, partition imbalance " << report.partitionImbalance
            << ")\n";
  std::cout << "stages: load " << report.loadSeconds << " s, subset "
            << report.subsetSeconds << " s, collocation "
            << report.collocationSeconds << " s, partition "
            << report.partitionSeconds << " s, adjacency "
            << report.adjacencySeconds << " s, reduce "
            << report.reduceSeconds << " s";
  if (report.memoryBudgetBytes > 0) {
    std::cout << " (" << report.spillCompactions
              << " intermediate merge passes)";
  }
  std::cout << "; stage-5 busy imbalance " << report.adjacencyBusyImbalance
            << "\n";
  if (report.backend == net::SynthesisBackend::kMessagePassing) {
    std::cout << "comm: scattered " << report.bytesScattered / 1024
              << " KiB to ranks, returned " << report.bytesReturned / 1024
              << " KiB (" << net::mpTransportName(config.transport)
              << " transport)\n";
  }
  std::cout << "kernel: " << report.kernelDensePlaces << " dense / "
            << report.kernelHashPlaces << " hash places, "
            << report.kernelPairHourUpdates << " local updates -> "
            << report.kernelGlobalEmits << " global emits\n";
  if (config.memoryBudgetBytes == 0) {
    std::cout << "reduce: ";
    if (report.backend == net::SynthesisBackend::kMessagePassing) {
      std::cout << "root fold of the ranks' sorted runs";
    } else {
      std::cout << "shard fold on " << config.workers << " threads";
    }
    std::cout << " -> " << report.reduceShardCount << " row-range shards, "
              << report.reduceSeconds << " s\n";
  }
  std::cout << "load: " << report.loadSeconds << " s total, "
            << report.loadExposedSeconds << " s exposed on the compute path";
  if (report.prefetchEnabled) {
    std::cout << " (prefetch hid " << report.loadOverlappedSeconds
              << " s; buffer mean/peak " << report.prefetchMeanOccupancy << "/"
              << report.prefetchPeakOccupancy << ")";
  }
  std::cout << "\n";
  if (report.resumed) {
    std::cout << "resumed from checkpoint: skipped "
              << report.filesSkippedByResume << " already-consumed files";
    if (report.inflightRestored) {
      std::cout << " (in-flight batch restored, re-decode skipped)";
    }
    std::cout << "\n";
  }
  if (report.checkpointsWritten > 0) {
    std::cout << "checkpoints: " << report.checkpointsWritten << " written to "
              << config.checkpointDir.string() << "\n";
  }
  if (!report.quarantined.empty()) {
    std::cout << "quarantined " << report.quarantined.size()
              << " input files (output excludes them):\n";
    for (const elog::QuarantinedFile& entry : report.quarantined) {
      std::cout << "  " << entry.file.string() << " @" << entry.byteOffset
                << ": " << entry.reason << "\n";
    }
  }
  if (report.commandRetries > 0 || report.ranksLost > 0 ||
      report.workersRespawned > 0 || report.workersReconnected > 0) {
    std::cout << "recovery: " << report.commandRetries
              << " command retries, " << report.workersRespawned
              << " workers respawned, " << report.workersReconnected
              << " workers reconnected, " << report.ranksLost
              << " ranks lost (work reassigned to survivors)\n";
  }
  if (report.memoryBudgetBytes > 0) {
    std::cout << "spill: budget " << report.memoryBudgetBytes / 1024 / 1024
              << " MiB, peak accumulator "
              << report.peakAccumulatorBytes / 1024 / 1024
              << " MiB, stage-5 transient "
              << report.peakStage5Bytes / 1024 / 1024 << " MiB, "
              << report.spillRunsWritten << " runs ("
              << report.spilledBytes / 1024 / 1024 << " MiB, "
              << report.spilledTriplets << " triplets)\n";
    std::cout << "merge: " << report.reduceShardsUsed << " owners, "
              << report.mergeSegmentsWritten << " segments ("
              << report.mergeSegmentsReused << " reused, "
              << report.spillRunsSplit << " runs split), "
              << report.spillCompactions << " intermediate passes, peak "
              << report.peakMergeReaderBytes / 1024
              << " KiB of open run readers per owner, "
              << report.mergeSeconds << " s merge CPU, critical path "
              << report.mergeCriticalSeconds << " s\n";
  }
  std::cout << "wrote " << out << " ("
            << std::filesystem::file_size(out) / 1024 / 1024 << " MiB)\n";
  return 0;
}

int cmdAnalyze(const Args& args) {
  // --workers spreads the CADJ decode, the graph build, the clustering
  // kernel and Louvain's modularity and aggregation; the printed output is
  // the same for every value.
  const auto workers = static_cast<unsigned>(
      args.u64("workers", std::thread::hardware_concurrency()));
  const auto triplets = sparse::loadTriplets(args.requireStr("net"), workers);
  const graph::Graph network = graph::Graph::fromTriplets(triplets, workers);
  std::cout << "network: " << network.vertexCount() << " vertices, "
            << network.edgeCount() << " edges, mean degree "
            << graph::meanDegree(network) << ", total weight "
            << network.totalWeight() << " person-hours\n";

  const auto degrees = graph::degreeSequence(network);
  const auto distribution = stats::frequencyDistribution(degrees);
  const auto powerLaw = stats::fitPowerLaw(distribution);
  const auto truncated = stats::fitTruncatedPowerLaw(distribution);
  const auto exponential = stats::fitExponential(distribution);
  std::cout << "degree fits (log-SSE): power-law alpha=" << powerLaw.alpha
            << " (" << powerLaw.sseLog << "), truncated alpha="
            << truncated.alpha << " kc=" << truncated.cutoff << " ("
            << truncated.sseLog << "), exponential kc=" << exponential.cutoff
            << " (" << exponential.sseLog << ")\n";

  const auto components = graph::connectedComponents(network);
  std::cout << "components: " << components.count() << ", giant "
            << components.giantSize() << " vertices\n";

  if (args.has("clustering")) {
    const auto coefficients =
        graph::localClusteringCoefficients(network, workers);
    std::uint64_t atOne = 0;
    for (double c : coefficients) {
      atOne += c >= 0.999 ? 1 : 0;
    }
    std::cout << "clustering: mean " << stats::mean(coefficients) << ", "
              << atOne << " vertices at 1.0\n";
  }
  if (args.has("communities")) {
    util::Rng rng(args.u64("seed", 1));
    const auto assignment = graph::louvain(network, rng, 10, workers);
    std::cout << "louvain: " << assignment.communityCount
              << " communities, modularity " << assignment.modularity << "\n";
  }
  if (args.has("degrees-out")) {
    std::ofstream out(args.requireStr("degrees-out"));
    out << "degree\tcount\tfraction\n";
    for (const auto& point : distribution) {
      out << point.value << '\t' << point.count << '\t' << point.fraction
          << '\n';
    }
    std::cout << "wrote degree distribution to "
              << args.requireStr("degrees-out") << "\n";
  }
  return 0;
}

int cmdExport(const Args& args) {
  const auto files = elog::listLogFiles(args.requireStr("logs"));
  if (files.empty()) {
    std::cerr << "no CLG5 files found\n";
    return 1;
  }
  const auto windowStart =
      static_cast<table::Hour>(args.u64("window-start", 0));
  const auto windowEnd =
      static_cast<table::Hour>(args.u64("window-end", 0xFFFFFFFFull));
  table::EventTable events = elog::loadEvents(files, windowStart, windowEnd);
  events.sortByStart();
  const std::string out = args.requireStr("out");
  table::writeEventsTsv(events, out);
  std::cout << "wrote " << events.size() << " events to " << out
            << " (load into R with data.table::fread)\n";
  return 0;
}

int cmdEgo(const Args& args) {
  const auto triplets = sparse::loadTriplets(args.requireStr("net"));
  const graph::Graph network = graph::Graph::fromTriplets(triplets);
  const auto person = static_cast<std::uint32_t>(args.u64("person", 0));
  const auto radius = static_cast<unsigned>(args.u64("radius", 2));
  const auto vertex = network.vertexForLabel(person);
  if (!vertex.has_value()) {
    std::cerr << "person " << person << " is not in the network\n";
    return 1;
  }
  const graph::Graph ego = graph::egoNetwork(network, *vertex, radius);
  std::cout << "ego(" << person << ", r=" << radius << "): "
            << ego.vertexCount() << " nodes, " << ego.edgeCount()
            << " edges\n";
  const std::string prefix = args.requireStr("out");
  graph::writeGraphMl(ego, prefix + ".graphml");
  if (ego.vertexCount() <= args.u64("layout-limit", 4000)) {
    util::Rng rng(5);
    graph::LayoutOptions layout;
    layout.iterations =
        static_cast<unsigned>(args.u64("iterations",
                                       ego.vertexCount() > 1500 ? 80 : 200));
    const auto positions = graph::forceAtlas2Layout(ego, layout, rng);
    graph::writeSvg(ego, positions, prefix + ".svg");
    std::cout << "wrote " << prefix << ".svg and " << prefix << ".graphml\n";
  } else {
    std::cout << "wrote " << prefix
              << ".graphml (ego too large for the O(n^2) layout; raise "
                 "--layout-limit to force)\n";
  }
  return 0;
}

/// `chisim worker` — join a remote synthesis root over TCP. The flags are
/// translated into the same bootstrap environment the root exports when it
/// spawns loopback workers itself, then the shared worker entry point takes
/// over: dial, handshake, serve commands until kStop/kDie.
int cmdWorker(const Args& args) {
  const std::string connect = args.requireStr("connect");
  runtime::parseHostPort(connect);  // fail fast on a malformed address
  const auto rank = args.u64("rank", 0);
  const auto rankCount = args.u64("rank-count", 0);
  if (rank < 1) {
    throw std::invalid_argument(
        "--rank must be >= 1 (rank 0 is the listening root)");
  }
  if (rankCount < 2 || rank >= rankCount) {
    throw std::invalid_argument(
        "--rank-count must be >= 2 and greater than --rank");
  }
  ::setenv(runtime::kWorkerTcpEnv, connect.c_str(), 1);
  ::setenv(runtime::kWorkerRankEnv, std::to_string(rank).c_str(), 1);
  ::setenv(runtime::kWorkerRankCountEnv, std::to_string(rankCount).c_str(), 1);
  ::setenv(runtime::kWorkerConnectTimeoutEnv,
           std::to_string(args.u64("connect-timeout-ms", 5000)).c_str(), 1);
  ::setenv(runtime::kWorkerConnectRetriesEnv,
           std::to_string(args.u64("connect-retries", 5)).c_str(), 1);
  const auto workerExit = net::maybeRunSynthesisWorker();
  if (!workerExit.has_value()) {
    std::cerr << "chisim worker: bootstrap environment rejected\n";
    return 1;
  }
  return *workerExit;
}

void printUsage() {
  std::cout <<
      "usage: chisim <command> [--options]\n"
      "\n"
      "commands:\n"
      "  simulate    --logs DIR [--persons N] [--seed S] [--weeks W]\n"
      "              [--ranks R] [--cache N] [--partition neighborhood|round-robin]\n"
      "              [--compress] [--abm-core hourly|event]\n"
      "              [--disease [--beta B] [--seeds K] [--disease-seed S]]\n"
      "              [--checkpoint-dir DIR [--sim-checkpoint-hours N] [--resume]]\n"
      "  info        --logs DIR\n"
      "  synthesize  --logs DIR --out FILE.cadj [--window-start H] [--window-end H]\n"
      "              [--backend shared|mp] [--workers W] [--batch N]\n"
      "              [--no-balance] [--nnz-weight]\n"
      "              [--no-prefetch] [--prefetch-depth N] [--decode-workers W]\n"
      "              [--fault-policy failfast|degrade] [--max-quarantined-files N]\n"
      "              [--command-timeout-ms MS] [--checkpoint-dir DIR] [--resume]\n"
      "              [--transport inproc|process|tcp] [--max-respawns N]\n"
      "              [--heartbeat-ms MS] [--connect-timeout-ms MS]\n"
      "              [--connect-retries N] [--reconnect-grace-ms MS]\n"
      "              [--tcp-listen HOST:PORT [--tcp-job FILE]]\n"
      "              [--memory-budget BYTES[K|M|G]] [--spill-dir DIR]\n"
      "              [--reduce-shards N]\n"
      "  worker      --connect HOST:PORT --rank N --rank-count R\n"
      "              [--connect-timeout-ms MS] [--connect-retries N]\n"
      "              (join a --transport tcp synthesis root from another host)\n"
      "  analyze     --net FILE.cadj [--clustering] [--communities] [--workers W]\n"
      "              [--degrees-out FILE.tsv]\n"
      "  ego         --net FILE.cadj --out PREFIX [--person P] [--radius R]\n"
      "  export      --logs DIR --out FILE.tsv [--window-start H]\n"
      "              [--window-end H]   (events as TSV for R/data.table)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A process spawned by --transport process re-enters this binary with
  // worker bootstrap env vars set; it must become a synthesis worker before
  // any CLI parsing (the root passes no argv to workers).
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  // A scripted fault plan shipped through the environment (the same
  // mechanism the transports use for synthesis workers) lets CI and the
  // nightly soak kill a simulation at an exact hour, tear a wire frame, or
  // drop a TCP connection — root-side sites (proc.send, tcp.drop, ...)
  // fire in this process; worker-side sites ride the env into the workers.
  std::unique_ptr<chisimnet::runtime::FaultPlan> faultPlan;
  if (const char* planText =
          std::getenv(chisimnet::runtime::kWorkerFaultPlanEnv)) {
    faultPlan = chisimnet::runtime::FaultPlan::decode(planText);
    chisimnet::runtime::fault::install(faultPlan.get());
  }
  if (argc < 2) {
    printUsage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "simulate") {
      return cmdSimulate(args);
    }
    if (command == "info") {
      return cmdInfo(args);
    }
    if (command == "synthesize") {
      return cmdSynthesize(args);
    }
    if (command == "analyze") {
      return cmdAnalyze(args);
    }
    if (command == "ego") {
      return cmdEgo(args);
    }
    if (command == "export") {
      return cmdExport(args);
    }
    if (command == "worker") {
      return cmdWorker(args);
    }
    printUsage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

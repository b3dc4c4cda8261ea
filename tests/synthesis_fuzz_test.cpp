#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/rng.hpp"

/// Randomized differential harness for the synthesis pipeline: seeded random
/// event tables — varying person/place counts, window edges, and adversarial
/// intervals (zero-length, out-of-window, window-edge-crossing) — written to
/// place-partitioned CLG5 files like real per-rank logs, then synthesized
/// with prefetch on and off across worker counts and file batchings, and
/// compared edge-for-edge against bruteForceAdjacency.

namespace chisimnet::net {
namespace {

using table::Event;
using table::Hour;

struct FuzzCase {
  table::EventTable events;
  Hour windowStart = 0;
  Hour windowEnd = 0;
};

FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons =
      static_cast<std::uint32_t>(8 + rng.uniformBelow(48));
  const auto places = static_cast<std::uint32_t>(2 + rng.uniformBelow(11));
  const Hour horizon = static_cast<Hour>(24 + rng.uniformBelow(48));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(horizon / 3 + 1));
  out.windowEnd =
      out.windowStart + 4 + static_cast<Hour>(rng.uniformBelow(horizon));
  const std::size_t count = 60 + rng.uniformBelow(140);

  for (std::size_t i = 0; i < count; ++i) {
    Hour start = static_cast<Hour>(rng.uniformBelow(horizon));
    Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    switch (rng.uniformBelow(10)) {
      case 0:  // zero-length interval: contributes no presence hours
        end = start;
        break;
      case 1:  // fully after the window
        start = out.windowEnd + static_cast<Hour>(rng.uniformBelow(8));
        end = start + 1 + static_cast<Hour>(rng.uniformBelow(5));
        break;
      case 2:  // fully before the window (when there is room)
        if (out.windowStart > 1) {
          end = static_cast<Hour>(1 + rng.uniformBelow(out.windowStart - 1));
          start = static_cast<Hour>(rng.uniformBelow(end));
        }
        break;
      case 3:  // straddles the left window edge
        start = static_cast<Hour>(
            out.windowStart - std::min<Hour>(out.windowStart,
                                             1 + static_cast<Hour>(
                                                     rng.uniformBelow(4))));
        end = out.windowStart + 1 + static_cast<Hour>(rng.uniformBelow(6));
        break;
      case 4:  // straddles the right window edge
        start = out.windowEnd - std::min<Hour>(out.windowEnd,
                                               1 + static_cast<Hour>(
                                                       rng.uniformBelow(4)));
        end = out.windowEnd + 1 + static_cast<Hour>(rng.uniformBelow(6));
        break;
      case 5:  // spans the whole window
        start = static_cast<Hour>(
            rng.uniformBelow(out.windowStart + 1));
        end = out.windowEnd + static_cast<Hour>(rng.uniformBelow(4));
        break;
      default:
        break;  // generic in-horizon interval
    }
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

/// Writes `events` into `fileCount` CLG5 files partitioned by place id, the
/// way real per-rank logs partition events by the rank owning the place.
/// Place-disjoint files make any whole-file batching exactly additive.
std::vector<std::filesystem::path> writePlacePartitionedFiles(
    const table::EventTable& events, const std::filesystem::path& dir,
    int fileCount) {
  std::vector<std::vector<Event>> buffers(
      static_cast<std::size_t>(fileCount));
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const Event event = events.row(row);
    buffers[event.place % static_cast<std::uint32_t>(fileCount)].push_back(
        event);
  }
  std::vector<std::filesystem::path> files;
  for (int i = 0; i < fileCount; ++i) {
    const auto path = elog::logFilePath(dir, i);
    elog::ChunkedLogWriter writer(path);
    // Multiple sorted chunks per file so the reader's per-chunk time-range
    // pushdown participates in the test.
    auto& buffer = buffers[static_cast<std::size_t>(i)];
    std::sort(buffer.begin(), buffer.end());
    for (std::size_t begin = 0; begin < buffer.size(); begin += 32) {
      const std::size_t end = std::min(buffer.size(), begin + 32);
      writer.writeChunk(
          std::span<const Event>(buffer.data() + begin, end - begin));
    }
    writer.close();
    files.push_back(path);
  }
  return files;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

void expectEqualAdjacency(const sparse::SymmetricAdjacency& got,
                          const sparse::SymmetricAdjacency& want,
                          const std::string& label) {
  EXPECT_EQ(got.edgeCount(), want.edgeCount()) << label;
  EXPECT_EQ(got.toTriplets(), want.toTriplets()) << label;
}

class SynthesisFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesisFuzz, PipelineEqualsBruteForceAcrossConfigs) {
  const std::uint64_t seed = GetParam();
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;

  // In-memory path first (no file machinery involved).
  config.workers = 3;
  {
    NetworkSynthesizer synthesizer(config);
    expectEqualAdjacency(synthesizer.synthesizeAdjacency(fuzz.events),
                         reference, "in-memory seed " + std::to_string(seed));
  }

  // File path: place-partitioned per-rank logs, batching varied by seed.
  ScratchDir scratch("chisimnet_fuzz_" + std::to_string(seed));
  const int fileCount = 3 + static_cast<int>(seed % 3);
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);
  const std::size_t batchChoices[] = {0, 1, 2};
  config.filesPerBatch = batchChoices[seed % 3];
  config.prefetchDepth = 1 + seed % 3;

  for (const unsigned workers : {1u, 2u, 7u}) {
    for (const bool prefetch : {false, true}) {
      config.workers = workers;
      config.prefetch = prefetch;
      NetworkSynthesizer synthesizer(config);
      const auto adjacency = synthesizer.synthesizeAdjacency(files);
      expectEqualAdjacency(
          adjacency, reference,
          "seed " + std::to_string(seed) + " workers " +
              std::to_string(workers) + (prefetch ? " prefetch" : " serial"));
      // The report must agree with the reference result regardless of how
      // the load was pipelined.
      const SynthesisReport& report = synthesizer.report();
      EXPECT_EQ(report.edges, reference.edgeCount());
      EXPECT_EQ(report.prefetchEnabled, prefetch);
      EXPECT_GE(report.loadOverlappedSeconds, 0.0);
      if (!prefetch) {
        EXPECT_DOUBLE_EQ(report.loadExposedSeconds, report.loadSeconds);
      }
      // Default config runs the local-coordinate kernel and the shard
      // fold; the counters must be self-consistent.
      EXPECT_GT(report.reduceMergedSums, 0u);
      EXPECT_EQ(report.reduceShardCount, reference.shardCount());
      EXPECT_EQ(report.reduceTreeDepth, 0u);
      EXPECT_LE(report.kernelDensePlaces + report.kernelHashPlaces,
                report.placesProcessed);
      EXPECT_LE(report.kernelGlobalEmits, report.kernelPairHourUpdates);
    }
  }

  // Same seeds through the message-passing executor: both backends and the
  // brute force must agree edge-for-edge, batched and prefetched alike.
  config.backend = SynthesisBackend::kMessagePassing;
  for (const unsigned workers : {1u, 3u}) {
    for (const bool prefetch : {false, true}) {
      config.workers = workers;
      config.prefetch = prefetch;
      NetworkSynthesizer synthesizer(config);
      expectEqualAdjacency(
          synthesizer.synthesizeAdjacency(files), reference,
          "mp seed " + std::to_string(seed) + " workers " +
              std::to_string(workers) + (prefetch ? " prefetch" : " serial"));
      EXPECT_GT(synthesizer.report().bytesScattered, 0u);
    }
  }

  // Kernel (old per-pair-hour SpGEMM vs new local-coordinate) and worker
  // count (one worker sum, or several folded shard by shard / through the
  // rank-pair tree) are perf knobs only: every combination, on both
  // backends, must be bit-identical to the brute force for every seed.
  config.prefetch = true;
  for (const sparse::AdjacencyMethod method :
       {sparse::AdjacencyMethod::kSpGemm,
        sparse::AdjacencyMethod::kLocalAccumulate}) {
    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      for (const unsigned workers :
           {1u, backend == SynthesisBackend::kSharedMemory ? 7u : 3u}) {
        config.method = method;
        config.backend = backend;
        config.workers = workers;
        NetworkSynthesizer synthesizer(config);
        expectEqualAdjacency(
            synthesizer.synthesizeAdjacency(files), reference,
            "seed " + std::to_string(seed) + " " + backendName(backend) +
                (method == sparse::AdjacencyMethod::kSpGemm ? " spgemm"
                                                            : " local") +
                " workers " + std::to_string(workers));
        const SynthesisReport& report = synthesizer.report();
        if (workers == 1 || backend == SynthesisBackend::kSharedMemory) {
          EXPECT_EQ(report.reduceTreeDepth, 0u);
        }
        if (method == sparse::AdjacencyMethod::kSpGemm) {
          EXPECT_EQ(report.kernelDensePlaces + report.kernelHashPlaces, 0u);
        }
      }
    }
  }

  // Memory-budget axis: the disk-spilling accumulator is a perf/footprint
  // knob, never an output knob. A tight budget (forces spills every few
  // batches), one small enough that the merge owners work in several
  // passes over one-row frames, and a pathological one (the 4 KiB
  // threshold floor: spill on practically every batch; a zero reader
  // share, so owners merge two runs per pass) must all stay bit-identical
  // to the brute force, per backend and kernel.
  config.method = sparse::AdjacencyMethod::kLocalAccumulate;
  for (const std::uint64_t budget : {std::uint64_t{32} * 1024,
                                     std::uint64_t{512}, std::uint64_t{1}}) {
    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      config.backend = backend;
      config.workers = backend == SynthesisBackend::kSharedMemory ? 7u : 3u;
      config.memoryBudgetBytes = budget;
      const std::string label = "seed " + std::to_string(seed) + " " +
                                backendName(backend) + " budget " +
                                std::to_string(budget);
      NetworkSynthesizer synthesizer(config);
      expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                           label);
      const SynthesisReport& report = synthesizer.report();
      EXPECT_EQ(report.memoryBudgetBytes, budget) << label;
      EXPECT_GT(report.spillRunsWritten, 0u) << label;
      // Budget ceiling, floor-aware: sub-threshold budgets are clamped to
      // the 4 KiB spill-threshold floor (plus its sort transient), so the
      // enforceable cap is max(budget, a few multiples of the floor).
      EXPECT_LE(report.peakAccumulatorBytes,
                std::max<std::uint64_t>(budget, 16 * 1024))
          << label;

      // The streaming file writer must produce the same CADJ bytes as
      // saving the equivalent in-memory result — across the reduce-shard
      // axis: 1 owner, 3, or 0 (auto = workers); the owner count is a perf
      // knob only, never an output knob.
      const std::filesystem::path dense =
          scratch.path() / ("dense_" + label + ".cadj");
      sparse::saveAdjacency(reference, dense);
      std::ifstream b(dense, std::ios::binary);
      const std::string bytesB((std::istreambuf_iterator<char>(b)),
                               std::istreambuf_iterator<char>());
      for (const unsigned reduceShards : {1u, 3u, 0u}) {
        config.reduceShards = reduceShards;
        // Small rows per shard so the sharded runs exercise a multi-segment
        // merge plan even at fuzz-case person counts.
        config.mergeRowsPerShard = reduceShards == 1 ? 0 : 16;
        const std::string shardLabel =
            label + " reduce-shards " + std::to_string(reduceShards);
        const std::filesystem::path streamed =
            scratch.path() / ("streamed_" + shardLabel + ".cadj");
        NetworkSynthesizer streaming(config);
        const std::uint64_t edges =
            streaming.synthesizeToFile(files, streamed);
        EXPECT_EQ(edges, reference.edgeCount()) << shardLabel;
        std::ifstream a(streamed, std::ios::binary);
        const std::string bytesA((std::istreambuf_iterator<char>(a)),
                                 std::istreambuf_iterator<char>());
        EXPECT_EQ(bytesA, bytesB) << shardLabel;
        EXPECT_EQ(streaming.report().reduceShardsUsed,
                  resolvedReduceShards(config))
            << shardLabel;
        if (budget >= 512) {
          // Each owner's share covers any two one-row-frame runs.
          EXPECT_LE(streaming.report().peakMergeReaderBytes, budget)
              << shardLabel;
        }
      }
      config.reduceShards = 0;
      config.mergeRowsPerShard = 0;
    }
  }
  config.memoryBudgetBytes = 0;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisFuzz,
                         ::testing::Range<std::uint64_t>(0, 100));

/// Process-transport column: the same differential check with the mp
/// backend's workers in separate OS processes. A seed subset — each case
/// forks real workers, so the full 100-seed sweep would dominate the
/// suite's wall clock for no added coverage of the (seed-independent)
/// transport.
class SynthesisFuzzProcess : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SynthesisFuzzProcess, ProcessTransportEqualsBruteForce) {
  const std::uint64_t seed = GetParam();
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_fuzz_proc_" + std::to_string(seed));
  const int fileCount = 3 + static_cast<int>(seed % 3);
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.workers = 2 + static_cast<unsigned>(seed % 2);
  config.filesPerBatch = seed % 3;
  for (const bool prefetch : {false, true}) {
    config.prefetch = prefetch;
    NetworkSynthesizer synthesizer(config);
    expectEqualAdjacency(
        synthesizer.synthesizeAdjacency(files), reference,
        "process seed " + std::to_string(seed) +
            (prefetch ? " prefetch" : " serial"));
    EXPECT_EQ(synthesizer.report().ranksLost, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisFuzzProcess,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Satellite: filesPerBatch in {1, 3, all} over the same on-disk log set
/// must produce identical adjacencies and consistent report counters.
TEST(SynthesisBatching, BatchSizeInvariantOverSameLogSet) {
  for (const std::uint64_t seed : {3u, 11u, 27u}) {
    const FuzzCase fuzz = makeCase(seed + 1000);
    ScratchDir scratch("chisimnet_batch_eq_" + std::to_string(seed));
    const auto files =
        writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;

    config.filesPerBatch = 0;  // all files, one batch
    NetworkSynthesizer whole(config);
    const auto wholeAdjacency = whole.synthesizeAdjacency(files);
    const SynthesisReport wholeReport = whole.report();
    EXPECT_EQ(wholeReport.batches, 1u);

    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      for (const std::size_t filesPerBatch :
           {std::size_t{1}, std::size_t{3}}) {
        for (const bool prefetch : {false, true}) {
          config.backend = backend;
          config.filesPerBatch = filesPerBatch;
          config.prefetch = prefetch;
          NetworkSynthesizer batched(config);
          const auto adjacency = batched.synthesizeAdjacency(files);
          const SynthesisReport& report = batched.report();
          const std::string label =
              "seed " + std::to_string(seed) + " " + backendName(backend) +
              " filesPerBatch " + std::to_string(filesPerBatch) +
              (prefetch ? " prefetch" : "");
          expectEqualAdjacency(adjacency, wholeAdjacency, label);
          EXPECT_EQ(report.logEntriesLoaded, wholeReport.logEntriesLoaded)
              << label;
          EXPECT_EQ(report.placesProcessed, wholeReport.placesProcessed)
              << label;
          EXPECT_EQ(report.collocationNnz, wholeReport.collocationNnz)
              << label;
          EXPECT_EQ(report.edges, wholeReport.edges) << label;
          EXPECT_EQ(report.batches, (files.size() + filesPerBatch - 1) /
                                        filesPerBatch)
              << label;
        }
      }
    }
  }
}

/// Degrade-mode differential check: corrupt one input file per seed and
/// require the degraded run to equal the brute force over exactly the
/// surviving files — on both backends, serial and prefetched — with the
/// quarantine report naming the corrupted file.
TEST(SynthesisBatching, DegradedRunEqualsBruteForceOverSurvivors) {
  for (const std::uint64_t seed : {2u, 19u, 38u}) {
    const FuzzCase fuzz = makeCase(seed + 5000);
    ScratchDir scratch("chisimnet_fuzz_degrade_" + std::to_string(seed));
    const int fileCount = 4 + static_cast<int>(seed % 3);
    auto files =
        writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);
    const std::size_t victim = seed % files.size();
    // Halving the file destroys the footer, so the whole file quarantines.
    std::filesystem::resize_file(files[victim],
                                 std::filesystem::file_size(files[victim]) /
                                     2);
    std::vector<std::filesystem::path> survivors = files;
    survivors.erase(survivors.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    const auto reference = bruteForceAdjacency(
        elog::loadEvents(survivors, fuzz.windowStart, fuzz.windowEnd),
        fuzz.windowStart, fuzz.windowEnd);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.filesPerBatch = 1 + seed % 2;
    config.faultPolicy = FaultPolicy::kDegrade;
    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      for (const bool prefetch : {false, true}) {
        config.backend = backend;
        config.prefetch = prefetch;
        NetworkSynthesizer synthesizer(config);
        const auto adjacency = synthesizer.synthesizeAdjacency(files);
        const std::string label =
            "degrade seed " + std::to_string(seed) + " " +
            backendName(backend) + (prefetch ? " prefetch" : " serial");
        expectEqualAdjacency(adjacency, reference, label);
        const SynthesisReport& report = synthesizer.report();
        ASSERT_EQ(report.quarantined.size(), 1u) << label;
        EXPECT_EQ(report.quarantined[0].file, files[victim]) << label;
        EXPECT_FALSE(report.quarantined[0].reason.empty()) << label;
      }
    }
  }
}

/// A decode failure inside the background loader must surface on the
/// consumer thread as a normal exception, not crash the process.
TEST(SynthesisBatching, CorruptFileSurfacesAsException) {
  const FuzzCase fuzz = makeCase(77);
  ScratchDir scratch("chisimnet_fuzz_corrupt");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);
  {
    std::ofstream corrupt(files[1], std::ios::binary | std::ios::trunc);
    corrupt << "not a clg5 file";
  }
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.filesPerBatch = 1;
  for (const bool prefetch : {false, true}) {
    config.prefetch = prefetch;
    NetworkSynthesizer synthesizer(config);
    EXPECT_THROW(synthesizer.synthesizeAdjacency(files), std::exception)
        << (prefetch ? "prefetch" : "serial");
  }
}

std::string readBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Stage 5 with one hub place whose person-hours exceed all the other
/// places combined: whichever worker pulls (shared memory) or is assigned
/// (message passing) the hub, every schedule must sum to the brute force
/// and save the same CADJ bytes.
TEST(SynthesisHubPlace, EveryScheduleMatchesBruteForce) {
  util::Rng rng(4242);
  table::EventTable events;
  std::uint64_t hubHours = 0;
  std::uint64_t otherHours = 0;
  for (table::PersonId person = 0; person < 40; ++person) {
    const auto start = static_cast<Hour>(rng.uniformBelow(12));
    const Hour end = start + 20 + static_cast<Hour>(rng.uniformBelow(20));
    events.append(Event{start, end, person, 0, 0});
    hubHours += end - start;
  }
  for (table::PlaceId place = 1; place <= 30; ++place) {
    for (int visit = 0; visit < 3; ++visit) {
      const auto start = static_cast<Hour>(rng.uniformBelow(60));
      const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(4));
      events.append(Event{
          start, end, static_cast<table::PersonId>(rng.uniformBelow(60)), 1,
          place});
      otherHours += end - start;
    }
  }
  ASSERT_GT(hubHours, otherHours);

  ScratchDir scratch("chisimnet_hub_place");
  const auto files = writePlacePartitionedFiles(events, scratch.path(), 3);
  const auto reference = bruteForceAdjacency(events, 0, 72);
  const std::filesystem::path referenceFile = scratch.path() / "ref.cadj";
  sparse::saveAdjacency(reference, referenceFile);
  const std::string referenceBytes = readBytes(referenceFile);

  struct Substrate {
    SynthesisBackend backend;
    std::uint64_t budget;
  };
  std::optional<std::uint64_t> totalLoad;
  for (const Substrate substrate :
       {Substrate{SynthesisBackend::kSharedMemory, 0},
        Substrate{SynthesisBackend::kSharedMemory, 4096},
        Substrate{SynthesisBackend::kMessagePassing, 0},
        Substrate{SynthesisBackend::kMessagePassing, 4096}}) {
    for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
      for (const bool balanced : {true, false}) {
        SynthesisConfig config;
        config.windowEnd = 72;
        config.backend = substrate.backend;
        config.memoryBudgetBytes = substrate.budget;
        config.workers = workers;
        config.balancedPartition = balanced;
        const std::string label =
            std::string(backendName(substrate.backend)) + " budget " +
            std::to_string(substrate.budget) + " workers " +
            std::to_string(workers) + (balanced ? " balanced" : " naive");

        NetworkSynthesizer synthesizer(config);
        const auto adjacency = synthesizer.synthesizeAdjacency(files);
        expectEqualAdjacency(adjacency, reference, label);
        const std::filesystem::path saved =
            scratch.path() / (label + ".cadj");
        sparse::saveAdjacency(adjacency, saved);
        EXPECT_EQ(readBytes(saved), referenceBytes) << label;
        const SynthesisReport& report = synthesizer.report();
        EXPECT_EQ(report.partitionLoads.size(), workers) << label;
        // Every schedule hands out each matrix exactly once.
        const std::uint64_t load =
            std::accumulate(report.partitionLoads.begin(),
                            report.partitionLoads.end(), std::uint64_t{0});
        if (!totalLoad) {
          totalLoad = load;
        }
        EXPECT_EQ(load, *totalLoad) << label;
        if (substrate.backend == SynthesisBackend::kSharedMemory) {
          EXPECT_GE(report.partitionImbalance, 1.0) << label;
          EXPECT_DOUBLE_EQ(report.partitionImbalance,
                           report.adjacencyBusyImbalance)
              << label;
        }

        if (substrate.budget > 0) {
          // The streamed writer takes the budgeted path end to end.
          const std::filesystem::path streamed =
              scratch.path() / (label + ".streamed.cadj");
          NetworkSynthesizer toFile(config);
          EXPECT_EQ(toFile.synthesizeToFile(files, streamed),
                    reference.edgeCount())
              << label;
          EXPECT_EQ(readBytes(streamed), referenceBytes) << label;
        }
      }
    }
  }
}

/// A budget far below the network, over 32 one-file batches: every shard
/// collects more runs than the sixteen its owner's share admits at once,
/// so the owners merge in intermediate passes on both backends, at one
/// and at three owners, and the streamed CADJ still equals the dense one.
/// No owner holds more run-reader bytes than its share.
TEST(SynthesisMultiPass, SmallBudgetMergesInPassesOnBothBackends) {
  util::Rng rng(5151);
  table::EventTable events;
  for (int visit = 0; visit < 3000; ++visit) {
    const auto start = static_cast<Hour>(rng.uniformBelow(60));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(8));
    events.append(Event{start, end,
                        static_cast<table::PersonId>(rng.uniformBelow(300)), 0,
                        static_cast<table::PlaceId>(rng.uniformBelow(40))});
  }
  ScratchDir scratch("chisimnet_multipass");
  const auto files = writePlacePartitionedFiles(events, scratch.path(), 32);
  const auto reference = bruteForceAdjacency(events, 0, 72);
  const std::filesystem::path referenceFile = scratch.path() / "ref.cadj";
  sparse::saveAdjacency(reference, referenceFile);
  const std::string referenceBytes = readBytes(referenceFile);

  constexpr std::uint64_t kBudget = 2048;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    for (const unsigned owners : {1u, 3u}) {
      SynthesisConfig config;
      config.windowEnd = 72;
      config.backend = backend;
      config.workers = 3;
      config.filesPerBatch = 1;
      config.memoryBudgetBytes = kBudget;
      config.reduceShards = owners;
      config.mergeRowsPerShard = owners == 1 ? 0 : 64;  // 1 or 5 shards
      const std::string label = std::string(backendName(backend)) +
                                " owners " + std::to_string(owners);
      const std::filesystem::path streamed =
          scratch.path() / (label + ".cadj");
      NetworkSynthesizer synthesizer(config);
      EXPECT_EQ(synthesizer.synthesizeToFile(files, streamed),
                reference.edgeCount())
          << label;
      EXPECT_EQ(readBytes(streamed), referenceBytes) << label;
      const SynthesisReport& report = synthesizer.report();
      EXPECT_GT(report.spillCompactions, 0u) << label;
      EXPECT_GT(report.peakMergeReaderBytes, 0u) << label;
      EXPECT_LE(report.peakMergeReaderBytes, kBudget / owners) << label;
    }
  }
}

}  // namespace
}  // namespace chisimnet::net

/// The process-transport cases re-enter this binary for their workers, so
/// the worker hook must run before gtest takes over.
int main(int argc, char** argv) {
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

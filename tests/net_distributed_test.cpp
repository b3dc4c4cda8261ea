#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/util/rng.hpp"

/// Executor-abstraction tests: the message-passing backend must run the
/// exact same stage driver as the shared-memory backend — same adjacency
/// bit-for-bit, same unified SynthesisReport counters, with the comm byte
/// accounting and per-stage timings populated (previously all-zero on the
/// standalone distributed path).

namespace chisimnet::net {
namespace {

using table::Event;

class DistributedSynthesisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("chisimnet_dist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// When byPlace is set, events land in the file owning their place (as
  /// real per-rank logs do) so whole-file batching is exactly additive.
  std::vector<std::filesystem::path> writeRandomLogs(std::uint64_t seed,
                                                     std::size_t events,
                                                     int files,
                                                     bool byPlace = false,
                                                     std::uint32_t persons = 80) {
    util::Rng rng(seed);
    std::vector<std::vector<Event>> buffers(files);
    for (std::size_t i = 0; i < events; ++i) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(96));
      const Event event{
          start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(8)),
          static_cast<table::PersonId>(rng.uniformBelow(persons)),
          static_cast<table::ActivityId>(rng.uniformBelow(5)),
          static_cast<table::PlaceId>(rng.uniformBelow(20))};
      buffers[byPlace ? event.place % static_cast<std::uint32_t>(files)
                      : i % files]
          .push_back(event);
    }
    std::vector<std::filesystem::path> paths;
    for (int f = 0; f < files; ++f) {
      const auto path = elog::logFilePath(dir_, f);
      elog::ChunkedLogWriter writer(path);
      writer.writeChunk(buffers[f]);
      writer.close();
      paths.push_back(path);
    }
    return paths;
  }

  std::filesystem::path dir_;
};

TEST(CollocationSerialization, RoundTrip) {
  util::Rng rng(5);
  std::vector<Event> events;
  for (int i = 0; i < 60; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(48));
    events.push_back(Event{start,
                           start + 1 + static_cast<table::Hour>(rng.uniformBelow(5)),
                           static_cast<table::PersonId>(rng.uniformBelow(15)),
                           0, 7});
  }
  const sparse::CollocationMatrix original(7, events, 0, 48);
  const auto bytes = original.toBytes();
  const sparse::CollocationMatrix copy =
      sparse::CollocationMatrix::fromBytes(bytes);
  ASSERT_EQ(copy.place(), original.place());
  ASSERT_EQ(copy.personCount(), original.personCount());
  ASSERT_EQ(copy.nnz(), original.nnz());
  ASSERT_EQ(copy.sliceHours(), original.sliceHours());
  ASSERT_EQ(copy.occupiedHours(), original.occupiedHours());
  for (std::size_t row = 0; row < original.personCount(); ++row) {
    EXPECT_EQ(copy.personAt(row), original.personAt(row));
    const auto a = original.hoursAt(row);
    const auto b = copy.hoursAt(row);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(CollocationSerialization, TruncationDetected) {
  const std::vector<Event> events{{0, 3, 1, 0, 7}, {1, 4, 2, 0, 7}};
  const sparse::CollocationMatrix matrix(7, events, 0, 8);
  auto bytes = matrix.toBytes();
  bytes.pop_back();
  EXPECT_THROW(sparse::CollocationMatrix::fromBytes(bytes), std::runtime_error);
}

TEST(CollocationOccupancy, OccupiedHoursCountsDistinctHours) {
  // Persons 1 and 2 overlap hours [0,3); person 3 alone at hour 5.
  const std::vector<Event> events{{0, 3, 1, 0, 7}, {0, 3, 2, 0, 7},
                                  {5, 6, 3, 0, 7}};
  const sparse::CollocationMatrix matrix(7, events, 0, 8);
  EXPECT_EQ(matrix.nnz(), 7u);
  EXPECT_EQ(matrix.occupiedHours(), 4u);  // hours 0,1,2,5
}

class ExecutorRankSweep
    : public DistributedSynthesisTest,
      public ::testing::WithParamInterface<unsigned> {};

TEST_P(ExecutorRankSweep, MatchesSharedMemoryBackend) {
  const auto files = writeRandomLogs(GetParam(), 800, 3);

  SynthesisConfig config;
  config.windowStart = 0;
  config.windowEnd = 96;
  config.workers = GetParam();

  NetworkSynthesizer shared(config);
  const auto reference = shared.synthesizeAdjacency(files);

  config.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(config);
  const auto distributed = mp.synthesizeAdjacency(files);

  EXPECT_EQ(distributed.toTriplets(), reference.toTriplets());

  // One report type serves both backends, counter for counter.
  const SynthesisReport& report = mp.report();
  EXPECT_EQ(report.backend, SynthesisBackend::kMessagePassing);
  EXPECT_EQ(report.edges, reference.edgeCount());
  EXPECT_EQ(report.logEntriesLoaded, shared.report().logEntriesLoaded);
  EXPECT_EQ(report.placesProcessed, shared.report().placesProcessed);
  EXPECT_EQ(report.collocationNnz, shared.report().collocationNnz);
  EXPECT_EQ(report.batches, shared.report().batches);
  EXPECT_EQ(report.partitionLoads.size(), config.workers);

  // Comm accounting: the MP path moves bytes, the shared path moves none.
  EXPECT_GT(report.bytesScattered, 0u);
  EXPECT_GT(report.bytesReturned, 0u);
  EXPECT_EQ(shared.report().bytesScattered, 0u);
  EXPECT_EQ(shared.report().bytesReturned, 0u);

  // Per-stage seconds are measured for the MP path (previously all-zero).
  EXPECT_GT(report.collocationSeconds + report.adjacencySeconds, 0.0);
  EXPECT_GT(report.totalSeconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExecutorRankSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST_F(DistributedSynthesisTest, BatchingAndPrefetchWorkOnMessagePassing) {
  // filesPerBatch and prefetch were silently ignored by the old standalone
  // distributed path; through the unified driver they must work and report.
  const auto files = writeRandomLogs(13, 900, 6, /*byPlace=*/true);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  NetworkSynthesizer shared(config);
  const auto reference = shared.synthesizeAdjacency(files);

  config.backend = SynthesisBackend::kMessagePassing;
  for (const std::size_t filesPerBatch : {std::size_t{1}, std::size_t{3}}) {
    for (const bool prefetch : {false, true}) {
      config.filesPerBatch = filesPerBatch;
      config.prefetch = prefetch;
      NetworkSynthesizer mp(config);
      const auto adjacency = mp.synthesizeAdjacency(files);
      const std::string label = "filesPerBatch " +
                                std::to_string(filesPerBatch) +
                                (prefetch ? " prefetch" : " serial");
      EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets()) << label;
      EXPECT_EQ(mp.report().batches,
                (files.size() + filesPerBatch - 1) / filesPerBatch)
          << label;
      EXPECT_EQ(mp.report().prefetchEnabled, prefetch) << label;
    }
  }
}

TEST_F(DistributedSynthesisTest, InMemoryTableWorksOnMessagePassing) {
  const auto files = writeRandomLogs(21, 400, 2);
  const table::EventTable events = elog::loadEvents(files, 0, 96);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(config);
  EXPECT_EQ(mp.synthesizeAdjacency(events).toTriplets(),
            bruteForceAdjacency(events, 0, 96).toTriplets());
}

TEST_F(DistributedSynthesisTest, WindowRestrictsResult) {
  const auto files = writeRandomLogs(42, 500, 2);
  SynthesisConfig narrow;
  narrow.windowStart = 10;
  narrow.windowEnd = 20;
  narrow.workers = 3;
  narrow.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(narrow);
  const auto narrowResult = mp.synthesizeAdjacency(files);

  narrow.backend = SynthesisBackend::kSharedMemory;
  NetworkSynthesizer shared(narrow);
  EXPECT_EQ(narrowResult.toTriplets(),
            shared.synthesizeAdjacency(files).toTriplets());
}

TEST_F(DistributedSynthesisTest, NaivePartitionSameResultWorseBalance) {
  const auto files = writeRandomLogs(7, 1500, 2);
  SynthesisConfig balanced;
  balanced.windowEnd = 96;
  balanced.workers = 4;
  balanced.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer balancedRun(balanced);
  const auto a = balancedRun.synthesizeAdjacency(files);

  SynthesisConfig naive = balanced;
  naive.balancedPartition = false;
  NetworkSynthesizer naiveRun(naive);
  const auto b = naiveRun.synthesizeAdjacency(files);

  EXPECT_EQ(a.toTriplets(), b.toTriplets());
  EXPECT_LE(balancedRun.report().partitionImbalance,
            naiveRun.report().partitionImbalance + 1e-9);
}

TEST_F(DistributedSynthesisTest, OccupancyWeightSameResultDifferentLoads) {
  const auto files = writeRandomLogs(31, 1200, 2);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 4;
  config.occupancyWeight = false;  // baseline: the paper's plain-nnz weight
  NetworkSynthesizer nnzRun(config);
  const auto a = nnzRun.synthesizeAdjacency(files);

  config.occupancyWeight = true;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    config.backend = backend;
    NetworkSynthesizer occRun(config);
    // The weight only steers the partition; the summed adjacency is
    // invariant.
    EXPECT_EQ(occRun.synthesizeAdjacency(files).toTriplets(), a.toTriplets())
        << backendName(backend);
  }
}

TEST_F(DistributedSynthesisTest, RootFoldMatchesBruteForce) {
  // Ids over several row-range shards, so the root insert spans shards.
  const auto files = writeRandomLogs(
      10, 600, 2, false,
      3 * (1u << sparse::SymmetricAdjacency::kShardRowBits) + 5);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.backend = SynthesisBackend::kMessagePassing;
  const auto reference =
      bruteForceAdjacency(elog::loadEvents(files, 0, 96), 0, 96);
  ASSERT_GT(reference.shardCount(), 1u);
  // The root inserts every run the ranks returned: one rank's, several
  // ranks' (an odd count included), and runs that crossed a process
  // boundary.
  for (const auto& [transport, workers] :
       {std::pair{MpTransport::kInProcess, 1u},
        std::pair{MpTransport::kInProcess, 2u},
        std::pair{MpTransport::kInProcess, 5u},
        std::pair{MpTransport::kProcess, 3u}}) {
    config.transport = transport;
    config.workers = workers;
    const std::string label = std::string(mpTransportName(transport)) +
                              " ranks " + std::to_string(workers);
    NetworkSynthesizer run(config);
    EXPECT_EQ(run.synthesizeAdjacency(files).toTriplets(),
              reference.toTriplets())
        << label;
    const SynthesisReport& report = run.report();
    EXPECT_EQ(report.reduceShardCount, reference.shardCount()) << label;
    // Kernel stats travel over the wire beside the triplet runs.
    EXPECT_GT(report.kernelDensePlaces + report.kernelHashPlaces, 0u)
        << label;
    EXPECT_GE(report.kernelPairHourUpdates, report.kernelGlobalEmits)
        << label;
  }
}

TEST_F(DistributedSynthesisTest, RejectsBadInputs) {
  SynthesisConfig config;
  config.backend = SynthesisBackend::kMessagePassing;
  {
    NetworkSynthesizer mp(config);
    EXPECT_THROW(mp.synthesizeAdjacency(std::vector<std::filesystem::path>{}),
                 std::invalid_argument);
  }
  config.windowStart = config.windowEnd = 5;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

TEST_F(DistributedSynthesisTest, UnsupportedConfigIsHardError) {
  // decodeWorkers promises parallel decode, which only the prefetcher
  // delivers — configuring it with prefetch off must fail loudly.
  SynthesisConfig config;
  config.prefetch = false;
  config.decodeWorkers = 2;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    config.backend = backend;
    EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument)
        << backendName(backend);
  }
}

TEST_F(DistributedSynthesisTest, CorruptFileSurfacesOnMessagePassing) {
  auto files = writeRandomLogs(55, 300, 3);
  {
    std::ofstream corrupt(files[1], std::ios::binary | std::ios::trunc);
    corrupt << "not a clg5 file";
  }
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  for (const bool prefetch : {false, true}) {
    config.prefetch = prefetch;
    NetworkSynthesizer mp(config);
    EXPECT_THROW(mp.synthesizeAdjacency(files), std::exception)
        << (prefetch ? "prefetch" : "serial");
  }
}

}  // namespace
}  // namespace chisimnet::net

int main(int argc, char** argv) {
  // The root-fold test runs ranks as worker processes of this binary.
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

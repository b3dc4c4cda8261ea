#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/weighted_stats.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/rng.hpp"

/// Tests for the graph/sparse extension features: the configuration model,
/// weighted statistics, and adjacency persistence.

namespace chisimnet {
namespace {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

// ---- configuration model ---------------------------------------------------

class ConfigModelSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigModelSeeds, ApproximatesTargetDegrees) {
  util::Rng degreeRng(GetParam());
  std::vector<std::uint64_t> degrees(500);
  for (auto& degree : degrees) {
    degree = 1 + degreeRng.uniformBelow(20);
  }
  util::Rng rng(GetParam() + 1000);
  const Graph graph = graph::configurationModel(degrees, rng);
  ASSERT_EQ(graph.vertexCount(), degrees.size());

  // Stub matching with rejection may shave a few stubs; realized degrees
  // never exceed targets and total shortfall is small.
  std::uint64_t target = std::accumulate(degrees.begin(), degrees.end(),
                                         std::uint64_t{0});
  std::uint64_t realized = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_LE(graph.degree(v), degrees[v]) << "vertex " << v;
    realized += graph.degree(v);
  }
  EXPECT_GE(realized, target * 97 / 100);
}

TEST_P(ConfigModelSeeds, ProducesSimpleGraph) {
  util::Rng rng(GetParam());
  std::vector<std::uint64_t> degrees(200, 6);
  const Graph graph = graph::configurationModel(degrees, rng);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end()) == row.end())
        << "parallel edge at " << v;
    EXPECT_FALSE(std::binary_search(row.begin(), row.end(), v))
        << "self-loop at " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigModelSeeds,
                         ::testing::Values(1, 2, 3, 4));

TEST(ConfigModel, HeavyTailDegreesPreserved) {
  // A hub with degree 100 among degree-2 vertices must come out as a hub.
  std::vector<std::uint64_t> degrees(301, 2);
  degrees[0] = 100;
  util::Rng rng(9);
  const Graph graph = graph::configurationModel(degrees, rng);
  EXPECT_GT(graph.degree(0), 80u);
}

TEST(ConfigModel, MatchedDegreesDoNotReproduceClustering) {
  // The §VI point: a degree-matched random graph misses the clustering of
  // a clique-rich source network.
  std::vector<Edge> edges;
  const unsigned cliques = 30;
  const unsigned size = 6;
  for (unsigned c = 0; c < cliques; ++c) {
    const Vertex base = c * size;
    for (Vertex u = 0; u < size; ++u) {
      for (Vertex v = u + 1; v < size; ++v) {
        edges.push_back(Edge{base + u, base + v, 1});
      }
    }
  }
  const Graph cliquey = Graph::fromEdges(edges, cliques * size);
  util::Rng rng(21);
  const Graph matched =
      graph::configurationModel(graph::degreeSequence(cliquey), rng);
  const double sourceClustering = graph::globalTransitivity(cliquey);
  const double matchedClustering = graph::globalTransitivity(matched);
  EXPECT_DOUBLE_EQ(sourceClustering, 1.0);
  EXPECT_LT(matchedClustering, 0.3);
}

// ---- weighted statistics -----------------------------------------------------

Graph weightedTriangle() {
  const std::vector<Edge> edges{{0, 1, 10}, {1, 2, 20}, {0, 2, 30}, {2, 3, 5}};
  return Graph::fromEdges(edges, 4);
}

TEST(WeightedStats, StrengthSequence) {
  const auto strengths = graph::strengthSequence(weightedTriangle());
  EXPECT_EQ(strengths, (std::vector<std::uint64_t>{40, 30, 55, 5}));
}

TEST(WeightedStats, EdgeWeightSequence) {
  auto weights = graph::edgeWeightSequence(weightedTriangle());
  std::sort(weights.begin(), weights.end());
  EXPECT_EQ(weights, (std::vector<std::uint64_t>{5, 10, 20, 30}));
}

TEST(WeightedStats, DegreeStrengthCorrelationUnitWeights) {
  // With all weights equal, strength == weight * degree -> correlation 1.
  util::Rng rng(4);
  const Graph graph = graph::erdosRenyi(100, 300, rng);
  EXPECT_NEAR(graph::degreeStrengthCorrelation(graph), 1.0, 1e-9);
}

TEST(WeightedStats, AssortativityOfStarIsNegative) {
  // A star is maximally disassortative: hubs connect to leaves only.
  std::vector<Edge> edges;
  for (Vertex leaf = 1; leaf <= 10; ++leaf) {
    edges.push_back(Edge{0, leaf, 1});
  }
  const Graph star = Graph::fromEdges(edges, 11);
  EXPECT_LT(graph::degreeAssortativity(star), -0.99);
}

TEST(WeightedStats, AssortativityOfRegularGraphIsDegenerate) {
  util::Rng rng(8);
  const Graph ring = graph::wattsStrogatz(50, 2, 0.0, rng);
  // All degrees equal -> zero variance -> defined as 0.
  EXPECT_DOUBLE_EQ(graph::degreeAssortativity(ring), 0.0);
}

TEST(WeightedStats, BarratEqualsUnweightedForUnitWeights) {
  util::Rng rng(6);
  const Graph graph = graph::erdosRenyi(80, 320, rng);
  const auto weighted = graph::weightedClusteringCoefficients(graph);
  const auto unweighted = graph::localClusteringCoefficients(graph);
  ASSERT_EQ(weighted.size(), unweighted.size());
  for (std::size_t v = 0; v < weighted.size(); ++v) {
    EXPECT_NEAR(weighted[v], unweighted[v], 1e-12) << "vertex " << v;
  }
}

TEST(WeightedStats, BarratWeighsTrianglesByIncidentEdges) {
  // Vertex 0 has neighbors {1, 2, 3}; only the pair (1, 2) closes a
  // triangle. Heavy weights on the triangle edges (0-1, 0-2) versus the
  // dangling edge (0-3) raise c_w(0); light ones lower it.
  //   c_w(0) = (w01 + w02) / ((w01 + w02 + w03) * (k - 1)).
  const auto build = [](graph::Weight triangleWeight) {
    const std::vector<Edge> edges{{0, 1, triangleWeight},
                                  {0, 2, triangleWeight},
                                  {0, 3, 10},
                                  {1, 2, 10}};
    return Graph::fromEdges(edges, 4);
  };
  const auto heavy = graph::weightedClusteringCoefficients(build(100));
  const auto light = graph::weightedClusteringCoefficients(build(1));
  EXPECT_NEAR(heavy[0], 200.0 / (210.0 * 2.0), 1e-12);
  EXPECT_NEAR(light[0], 2.0 / (12.0 * 2.0), 1e-12);
  EXPECT_GT(heavy[0], light[0]);
  const auto unweighted = graph::localClusteringCoefficients(build(10));
  const auto balanced = graph::weightedClusteringCoefficients(build(10));
  EXPECT_NEAR(balanced[0], unweighted[0], 1e-12);
}

TEST(WeightedStats, BarratZeroForLowDegree) {
  const std::vector<Edge> edges{{0, 1, 5}};
  const Graph graph = Graph::fromEdges(edges, 2);
  const auto weighted = graph::weightedClusteringCoefficients(graph);
  EXPECT_DOUBLE_EQ(weighted[0], 0.0);
  EXPECT_DOUBLE_EQ(weighted[1], 0.0);
}

TEST(WeightedStats, MeanNeighborDegree) {
  const Graph graph = weightedTriangle();
  const auto knn = graph::meanNeighborDegree(graph);
  EXPECT_DOUBLE_EQ(knn[3], 3.0);              // neighbor 2 has degree 3
  EXPECT_DOUBLE_EQ(knn[0], (2.0 + 3.0) / 2);  // neighbors 1 (2), 2 (3)
}

// ---- adjacency persistence ----------------------------------------------------

class AdjacencyIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the cases as concurrent processes,
    // and a shared one would be removed under a running neighbor.
    dir_ = std::filesystem::temp_directory_path() /
           ("chisimnet_adj_io_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

sparse::SymmetricAdjacency randomAdjacency(std::uint64_t seed,
                                           std::size_t edges) {
  util::Rng rng(seed);
  sparse::SymmetricAdjacency adjacency;
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniformBelow(10000));
    const auto v = static_cast<std::uint32_t>(rng.uniformBelow(10000));
    if (u != v) {
      adjacency.add(u, v, 1 + rng.uniformBelow(1000000));
    }
  }
  return adjacency;
}

TEST_F(AdjacencyIoTest, RoundTrip) {
  const auto adjacency = randomAdjacency(1, 5000);
  const auto path = dir_ / "net.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto loaded = sparse::loadAdjacency(path);
  EXPECT_EQ(loaded.toTriplets(), adjacency.toTriplets());
}

TEST_F(AdjacencyIoTest, EmptyAdjacency) {
  const sparse::SymmetricAdjacency empty;
  const auto path = dir_ / "empty.cadj";
  sparse::saveAdjacency(empty, path);
  EXPECT_TRUE(sparse::loadTriplets(path).empty());
}

TEST_F(AdjacencyIoTest, LargeWeightsSurvive) {
  sparse::SymmetricAdjacency adjacency;
  adjacency.add(1, 2, (1ull << 40) + 123);
  const auto path = dir_ / "big.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto triplets = sparse::loadTriplets(path);
  ASSERT_EQ(triplets.size(), 1u);
  EXPECT_EQ(triplets[0].weight, (1ull << 40) + 123);
}

TEST_F(AdjacencyIoTest, TruncationDetected) {
  const auto adjacency = randomAdjacency(2, 100);
  const auto path = dir_ / "trunc.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 6);
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

TEST_F(AdjacencyIoTest, CorruptionDetected) {
  const auto adjacency = randomAdjacency(3, 100);
  const auto path = dir_ / "corrupt.cadj";
  sparse::saveAdjacency(adjacency, path);
  {
    std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(40);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(40);
    byte = static_cast<char>(byte ^ 0x10);
    stream.write(&byte, 1);
  }
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

TEST_F(AdjacencyIoTest, UnsortedOrDuplicateTripletsRejected) {
  // CADJ rows are strictly (i, j)-ascending: the sort-free graph build and
  // the shard splice rely on it, so the writer refuses anything else.
  const auto path = dir_ / "order.cadj";
  const std::vector<sparse::AdjacencyTriplet> sorted{
      {1, 2, 1}, {1, 5, 2}, {2, 3, 3}, {7, 1u << 20, 4}};
  sparse::saveTriplets(sorted, path);
  EXPECT_EQ(sparse::loadTriplets(path), sorted);
  const std::vector<std::vector<sparse::AdjacencyTriplet>> rejected{
      {{1, 5, 2}, {1, 2, 1}},             // j descending within a row
      {{2, 3, 3}, {1, 5, 2}},             // i descending
      {{1, 2, 1}, {1, 2, 4}},             // duplicate pair
      {{1, 2, 1}, {3, 3, 1}},             // diagonal
      {{1, 2, 1}, {5, 4, 1}},             // lower triangle
  };
  for (const auto& triplets : rejected) {
    EXPECT_THROW(sparse::saveTriplets(triplets, path), std::invalid_argument);
  }
  // The streaming writer enforces the same order across appends.
  sparse::StreamingTripletWriter writer(dir_ / "stream.cadj");
  writer.append(sparse::AdjacencyTriplet{4, 9, 1});
  EXPECT_THROW(writer.append(sparse::AdjacencyTriplet{4, 9, 1}),
               std::invalid_argument);
  EXPECT_THROW(writer.append(sparse::AdjacencyTriplet{3, 9, 1}),
               std::invalid_argument);
}

TEST_F(AdjacencyIoTest, NotAnAdjacencyFileRejected) {
  const auto path = dir_ / "junk.cadj";
  {
    std::ofstream out(path);
    out << "hello";
  }
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

/// Overwrites the header's edge count (bytes 8..15, little-endian).
void forgeCount(const std::filesystem::path& path, std::uint64_t count) {
  std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
  stream.seekp(8);
  for (int shift = 0; shift < 64; shift += 8) {
    stream.put(static_cast<char>(count >> shift));
  }
}

/// Loads `path` on `workers` threads expecting a CadjError at `offset`
/// naming the file.
void expectCadjError(const std::filesystem::path& path, std::uint64_t offset,
                     const std::string& reasonPart,
                     unsigned workers = std::thread::hardware_concurrency()) {
  try {
    sparse::loadTriplets(path, workers);
    FAIL() << "load should have been rejected";
  } catch (const sparse::CadjError& error) {
    EXPECT_EQ(error.file(), path);
    EXPECT_EQ(error.byteOffset(), offset);
    EXPECT_NE(error.reason().find(reasonPart), std::string::npos)
        << error.what();
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " + std::to_string(offset)),
              std::string::npos)
        << what;
  }
}

TEST_F(AdjacencyIoTest, ForgedHugeCountRejectedBeforeAllocating) {
  // An 80-byte file claiming 2^59 rows: allocating them would need 8 EiB.
  const auto path = dir_ / "forged.cadj";
  sparse::saveAdjacency(randomAdjacency(6, 4), path);
  std::filesystem::resize_file(path, 80);
  forgeCount(path, std::uint64_t{1} << 59);
  expectCadjError(path, 8, "header count");
  // A count whose byte size overflows 64 bits is caught the same way.
  forgeCount(path, ~std::uint64_t{0});
  expectCadjError(path, 8, "header count");
}

TEST_F(AdjacencyIoTest, CountOffByOneRejected) {
  const auto path = dir_ / "offbyone.cadj";
  sparse::saveAdjacency(randomAdjacency(7, 50), path);
  const std::uint64_t count = sparse::loadTriplets(path).size();
  forgeCount(path, count + 1);
  expectCadjError(path, 8, "header count");
  forgeCount(path, count - 1);
  expectCadjError(path, 8, "header count");
}

TEST_F(AdjacencyIoTest, TruncatedPayloadNamesFileAndOffset) {
  const auto path = dir_ / "truncated.cadj";
  sparse::saveAdjacency(randomAdjacency(8, 50), path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 16 - 4);  // one row + footer
  expectCadjError(path, 8, "header count");
  std::filesystem::resize_file(path, 12);  // inside the header
  expectCadjError(path, 4, "shorter than the CADJ framing");
}

TEST_F(AdjacencyIoTest, CrcMismatchNamesFooterOffset) {
  const auto path = dir_ / "flipped.cadj";
  sparse::saveAdjacency(randomAdjacency(9, 50), path);
  const std::uint64_t count = sparse::loadTriplets(path).size();
  {
    std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(16 + 3);
    stream.put('\x7f');
  }
  expectCadjError(path, 16 + 16 * count, "CRC mismatch");
}

TEST_F(AdjacencyIoTest, MultiChunkPayloadRoundTrips) {
  // More rows than one decode chunk, so the chained CRC spans chunks.
  const auto adjacency = randomAdjacency(10, 150000);
  const auto path = dir_ / "chunks.cadj";
  sparse::saveAdjacency(adjacency, path);
  EXPECT_EQ(sparse::loadTriplets(path), adjacency.toTriplets());
}

// ---- the chunk-parallel decoder under hostile input -------------------------

constexpr std::uint64_t kChunkRows = 64 * 1024;  // one 1 MiB decode chunk
constexpr std::uint64_t kChunkBytes = kChunkRows * 16;

/// Three whole decode chunks and a partial fourth, at each worker count.
class ParallelCadjDecode : public ::testing::TestWithParam<unsigned> {
 protected:
  static constexpr std::uint64_t kRows = 3 * kChunkRows + 1234;

  void SetUp() override {
    // One directory per case (ctest runs them as concurrent processes);
    // the case name's '/' would nest it.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("chisimnet_cadj_decode_" + name);
    std::filesystem::create_directories(dir_);
    for (std::uint64_t k = 0; k < kRows; ++k) {
      const auto i = static_cast<std::uint32_t>(k / 64);
      const auto j = static_cast<std::uint32_t>(i + 1 + k % 64);
      triplets_.push_back({i, j, (k * 2654435761u) ^ (k << 37)});
    }
    path_ = dir_ / "net.cadj";
    sparse::saveTriplets(triplets_, path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void flipBit(std::uint64_t offset) {
    std::fstream stream(path_, std::ios::binary | std::ios::in | std::ios::out);
    stream.seekg(static_cast<std::streamoff>(offset));
    const char byte = static_cast<char>(stream.get() ^ 0x04);
    stream.seekp(static_cast<std::streamoff>(offset));
    stream.put(byte);
  }

  std::uint64_t footerOffset() const { return 16 + 16 * kRows; }

  std::filesystem::path dir_;
  std::filesystem::path path_;
  std::vector<sparse::AdjacencyTriplet> triplets_;
};

TEST_P(ParallelCadjDecode, RoundTripsAtEveryWorkerCount) {
  EXPECT_EQ(sparse::loadTriplets(path_, GetParam()), triplets_);
}

TEST_P(ParallelCadjDecode, BitFlipInTheFirstChunk) {
  flipBit(16 + 100);
  expectCadjError(path_, footerOffset(), "CRC mismatch", GetParam());
}

TEST_P(ParallelCadjDecode, BitFlipInAMiddleChunk) {
  flipBit(16 + 2 * kChunkBytes - 5);
  expectCadjError(path_, footerOffset(), "CRC mismatch", GetParam());
  flipBit(16 + 2 * kChunkBytes - 5);  // undone: the file loads again
  EXPECT_EQ(sparse::loadTriplets(path_, GetParam()).size(), kRows);
  flipBit(16 + 2 * kChunkBytes + 7);  // the third chunk's first row
  expectCadjError(path_, footerOffset(), "CRC mismatch", GetParam());
}

TEST_P(ParallelCadjDecode, ForgedHeaderCount) {
  forgeCount(path_, kRows + 1);
  expectCadjError(path_, 8, "header count", GetParam());
  forgeCount(path_, kChunkRows);
  expectCadjError(path_, 8, "header count", GetParam());
  forgeCount(path_, std::uint64_t{1} << 60);
  expectCadjError(path_, 8, "header count", GetParam());
}

TEST_P(ParallelCadjDecode, TruncatedAtAChunkBoundary) {
  std::filesystem::resize_file(path_, 16 + 2 * kChunkBytes);
  expectCadjError(path_, 8, "header count", GetParam());
  // With the count forged to fit, the footer is read from row data.
  std::filesystem::resize_file(path_, 16 + 2 * kChunkBytes + 4);
  forgeCount(path_, 2 * kChunkRows);
  expectCadjError(path_, 16 + 2 * kChunkBytes, "CRC mismatch", GetParam());
}

TEST_P(ParallelCadjDecode, TruncatedInsideAChunk) {
  std::filesystem::resize_file(path_, 16 + 2 * kChunkBytes + 1000);
  expectCadjError(path_, 8, "header count", GetParam());
  std::filesystem::resize_file(path_, 16 + kChunkBytes + 16 * 999 + 4);
  forgeCount(path_, kChunkRows + 999);
  expectCadjError(path_, 16 + kChunkBytes + 16 * 999, "CRC mismatch",
                  GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelCadjDecode,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u));

TEST_F(AdjacencyIoTest, SummingStoredPartials) {
  // The paper's batch workflow: store per-batch adjacencies, sum later.
  auto a = randomAdjacency(4, 500);
  auto b = randomAdjacency(5, 500);
  sparse::saveAdjacency(a, dir_ / "a.cadj");
  sparse::saveAdjacency(b, dir_ / "b.cadj");

  auto sum = sparse::loadAdjacency(dir_ / "a.cadj");
  sum.merge(sparse::loadAdjacency(dir_ / "b.cadj"));

  a.merge(b);
  EXPECT_EQ(sum.toTriplets(), a.toTriplets());
}

}  // namespace
}  // namespace chisimnet

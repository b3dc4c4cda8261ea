#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/graph/io.hpp"
#include "chisimnet/graph/layout.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/util/rng.hpp"
#include "clustering_oracle.hpp"
#include "graph_oracle.hpp"

namespace chisimnet::graph {
namespace {

Graph triangleWithTail() {
  // 0-1-2 triangle plus 2-3 tail (labels are identity).
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 3, 4}};
  return Graph::fromEdges(edges, 4);
}

TEST(Graph, BasicAccessors) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(graph.vertexCount(), 4u);
  EXPECT_EQ(graph.edgeCount(), 4u);
  EXPECT_EQ(graph.degree(2), 3u);
  EXPECT_EQ(graph.degree(3), 1u);
  EXPECT_TRUE(graph.hasEdge(0, 1));
  EXPECT_TRUE(graph.hasEdge(1, 0));
  EXPECT_FALSE(graph.hasEdge(0, 3));
  EXPECT_EQ(graph.weightBetween(2, 3), 4u);
  EXPECT_EQ(graph.weightBetween(0, 3), 0u);
  EXPECT_EQ(graph.totalWeight(), 10u);
}

TEST(Graph, NeighborsSorted) {
  const Graph graph = triangleWithTail();
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(Graph, ParallelEdgesMergedBySummingWeights) {
  const std::vector<Edge> edges{{0, 1, 2}, {1, 0, 3}};
  const Graph graph = Graph::fromEdges(edges, 2);
  EXPECT_EQ(graph.edgeCount(), 1u);
  EXPECT_EQ(graph.weightBetween(0, 1), 5u);
}

TEST(Graph, SelfLoopRejected) {
  const std::vector<Edge> loop{{1, 1, 1}};
  EXPECT_THROW(Graph::fromEdges(loop, 2), std::invalid_argument);
}

TEST(Graph, FromTripletsCompactsLabels) {
  const std::vector<sparse::AdjacencyTriplet> triplets{
      {100, 500, 2}, {100, 900, 1}};
  const Graph graph = Graph::fromTriplets(triplets);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.label(0), 100u);
  EXPECT_EQ(graph.label(1), 500u);
  EXPECT_EQ(graph.label(2), 900u);
  ASSERT_TRUE(graph.vertexForLabel(500).has_value());
  EXPECT_EQ(*graph.vertexForLabel(500), 1u);
  EXPECT_FALSE(graph.vertexForLabel(123).has_value());
  EXPECT_EQ(graph.weightBetween(0, 1), 2u);
}

TEST(Graph, FromTripletsWithUniverseKeepsIsolated) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 20, 1}};
  const std::vector<std::uint32_t> universe{10, 20, 30};
  const Graph graph = Graph::fromTriplets(triplets, universe);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.degree(*graph.vertexForLabel(30)), 0u);
}

TEST(Graph, FromTripletsMissingLabelRejected) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 99, 1}};
  const std::vector<std::uint32_t> universe{10, 20};
  EXPECT_THROW(Graph::fromTriplets(triplets, universe), std::invalid_argument);
}

/// Same vertices, labels, rows and weights, element by element.
void expectSameGraph(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.vertexCount(), expected.vertexCount());
  ASSERT_EQ(actual.edgeCount(), expected.edgeCount());
  ASSERT_TRUE(std::ranges::equal(actual.labels(), expected.labels()));
  for (Vertex v = 0; v < actual.vertexCount(); ++v) {
    ASSERT_TRUE(std::ranges::equal(actual.neighbors(v), expected.neighbors(v)))
        << "row " << v;
    ASSERT_TRUE(
        std::ranges::equal(actual.edgeWeights(v), expected.edgeWeights(v)))
        << "row " << v;
  }
}

/// Sorted upper triplets (the CADJ order) over labels [0, labelRange).
std::vector<sparse::AdjacencyTriplet> randomSortedTriplets(
    std::uint64_t seed, std::uint32_t labelRange, std::size_t adds) {
  util::Rng rng(seed);
  sparse::SymmetricAdjacency adjacency;
  for (std::size_t k = 0; k < adds; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.uniformBelow(labelRange));
    const auto v = static_cast<std::uint32_t>(rng.uniformBelow(labelRange));
    if (u != v) {
      adjacency.add(u, v, 1 + rng.uniformBelow(1000));
    }
  }
  return adjacency.toTriplets();
}

std::vector<sparse::AdjacencyTriplet> shuffled(
    std::vector<sparse::AdjacencyTriplet> triplets, std::uint64_t seed) {
  util::Rng rng(seed);
  rng.shuffle(triplets);
  return triplets;
}

TEST(GraphBuild, SortedFastPathMatchesGeneralPath) {
  const auto sorted = randomSortedTriplets(31, 3000, 20000);
  const Graph fast = Graph::fromTriplets(sorted);
  expectSameGraph(fast, Graph::fromTriplets(shuffled(sorted, 1)));

  // Against fromEdges over the compact ids: the general path end to end.
  std::vector<Edge> edges;
  for (const sparse::AdjacencyTriplet& triplet : sorted) {
    edges.push_back(Edge{*fast.vertexForLabel(triplet.j),
                         *fast.vertexForLabel(triplet.i), triplet.weight});
  }
  const Graph viaEdges = Graph::fromEdges(edges, fast.vertexCount());
  ASSERT_EQ(viaEdges.vertexCount(), fast.vertexCount());
  for (Vertex v = 0; v < fast.vertexCount(); ++v) {
    ASSERT_TRUE(std::ranges::equal(fast.neighbors(v), viaEdges.neighbors(v)));
    ASSERT_TRUE(
        std::ranges::equal(fast.edgeWeights(v), viaEdges.edgeWeights(v)));
  }
}

TEST(GraphBuild, ReversedPairsMatchSorted) {
  const auto sorted = randomSortedTriplets(32, 500, 4000);
  auto reversed = sorted;
  for (std::size_t k = 0; k < reversed.size(); k += 2) {
    std::swap(reversed[k].i, reversed[k].j);
  }
  expectSameGraph(Graph::fromTriplets(reversed), Graph::fromTriplets(sorted));
}

TEST(GraphBuild, DuplicatePairsMergeBySummingWeights) {
  const auto sorted = randomSortedTriplets(33, 500, 4000);
  // Split every third pair into two adjacent entries carrying its weight.
  std::vector<sparse::AdjacencyTriplet> split;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    sparse::AdjacencyTriplet triplet = sorted[k];
    if (k % 3 == 0 && triplet.weight > 1) {
      split.push_back({triplet.i, triplet.j, 1});
      triplet.weight -= 1;
    }
    split.push_back(triplet);
  }
  expectSameGraph(Graph::fromTriplets(split), Graph::fromTriplets(sorted));
}

TEST(GraphBuild, UniverseWithIsolatedVerticesMatchesGeneralPath) {
  const auto sorted = randomSortedTriplets(34, 400, 3000);
  std::vector<std::uint32_t> universe(450);
  std::iota(universe.begin(), universe.end(), 0u);
  universe.push_back(9000);  // isolated, beyond every endpoint
  const Graph fast = Graph::fromTriplets(sorted, universe);
  EXPECT_EQ(fast.vertexCount(), universe.size());
  EXPECT_EQ(fast.degree(*fast.vertexForLabel(9000)), 0u);
  expectSameGraph(fast, Graph::fromTriplets(shuffled(sorted, 2), universe));
}

TEST(GraphBuild, SparseLabelNearMaxUsesNoLabelSizedTable) {
  // A dense table sized by these labels would need 16 GiB; the build must
  // fall back to binary search and finish instantly.
  constexpr std::uint32_t kTop = std::numeric_limits<std::uint32_t>::max();
  const std::vector<sparse::AdjacencyTriplet> sorted{
      {3, 7, 2}, {3, kTop - 1, 5}, {7, kTop, 1}, {kTop - 1, kTop, 4}};
  const Graph fast = Graph::fromTriplets(sorted);
  EXPECT_EQ(fast.vertexCount(), 4u);
  EXPECT_EQ(fast.label(3), kTop);
  EXPECT_EQ(fast.weightBetween(*fast.vertexForLabel(kTop - 1),
                               *fast.vertexForLabel(kTop)),
            4u);
  expectSameGraph(fast, Graph::fromTriplets(shuffled(sorted, 3)));

  const std::vector<std::uint32_t> universe{3, 7, 100, kTop - 1, kTop};
  expectSameGraph(Graph::fromTriplets(sorted, universe),
                  Graph::fromTriplets(shuffled(sorted, 4), universe));
  const std::vector<std::uint32_t> missing{3, 7, kTop};
  EXPECT_THROW(Graph::fromTriplets(sorted, missing), std::invalid_argument);
}

TEST(GraphBuild, SelfLoopTripletRejected) {
  const std::vector<sparse::AdjacencyTriplet> loop{{1, 2, 1}, {4, 4, 1}};
  EXPECT_THROW(Graph::fromTriplets(loop), std::invalid_argument);
}

// ---- parallel CSR fill against the serial oracle ---------------------------

/// Offsets, neighbours, weights and labels equal the oracle's, exactly.
void expectSameCsr(const Graph& actual, const oracle::Csr& expected) {
  ASSERT_TRUE(std::ranges::equal(actual.rowOffsets(), expected.offsets));
  ASSERT_TRUE(std::ranges::equal(actual.allNeighbors(), expected.neighbors));
  ASSERT_TRUE(std::ranges::equal(actual.allWeights(), expected.weights));
  ASSERT_TRUE(std::ranges::equal(actual.labels(), expected.labels));
}

/// The worker count of each case; the fill cuts its rows into up to that
/// many chunks of at least 16 Ki rows.
class ParallelFill : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelFill, EmptyAndEdgelessGraphs) {
  const std::vector<sparse::AdjacencyTriplet> none;
  expectSameCsr(Graph::fromTriplets(none, GetParam()),
                oracle::referenceCsr(none));
  const std::vector<std::uint32_t> isolated{12, 3, 9, 3};
  expectSameCsr(Graph::fromTriplets(none, isolated),
                oracle::referenceCsr(none, isolated));
}

TEST_P(ParallelFill, OneEdge) {
  const std::vector<sparse::AdjacencyTriplet> one{{5, 8, 3}};
  expectSameCsr(Graph::fromTriplets(one, GetParam()),
                oracle::referenceCsr(one));
  const std::vector<std::uint32_t> universe{0, 5, 8, 20};
  expectSameCsr(Graph::fromTriplets(one, universe),
                oracle::referenceCsr(one, universe));
}

TEST_P(ParallelFill, HubRowStraddlesEveryChunkBoundary) {
  // Label 0 links to every other vertex, so its upper run crosses chunk
  // boundaries; the last label does too, so every chunk writes into its
  // row. Random edges raise the mean degree above the worker counts, which
  // lets the fill use that many chunks.
  constexpr std::uint32_t kVertices = 40000;
  sparse::SymmetricAdjacency adjacency;
  for (std::uint32_t v = 1; v < kVertices; ++v) {
    adjacency.add(0, v, v);
    if (v + 1 < kVertices) {
      adjacency.add(v, kVertices - 1, 2 * v + 1);
    }
  }
  util::Rng rng(51);
  for (int k = 0; k < 80000; ++k) {
    const auto u = static_cast<std::uint32_t>(rng.uniformBelow(kVertices));
    const auto v = static_cast<std::uint32_t>(rng.uniformBelow(kVertices));
    if (u != v) {
      adjacency.add(u, v, 1 + rng.uniformBelow(1000));
    }
  }
  const auto triplets = adjacency.toTriplets();
  ASSERT_GT(triplets.size(), 7u * (1u << 14));
  const Graph graph = Graph::fromTriplets(triplets, GetParam());
  EXPECT_EQ(graph.degree(0), kVertices - 1);
  EXPECT_EQ(graph.degree(kVertices - 1), kVertices - 1);
  expectSameCsr(graph, oracle::referenceCsr(triplets));
}

TEST_P(ParallelFill, SparseLabelsTakeTheSearchPath) {
  // Labels spread up to ~3·10^9: far above 4 per item, so compaction
  // binary-searches instead of building a label-sized table.
  auto triplets = randomSortedTriplets(52, 30000, 160000);
  for (sparse::AdjacencyTriplet& triplet : triplets) {
    triplet.i = triplet.i * 100003u + 7u;
    triplet.j = triplet.j * 100003u + 7u;
  }
  expectSameCsr(Graph::fromTriplets(triplets, GetParam()),
                oracle::referenceCsr(triplets));
  std::vector<std::uint32_t> universe{1, 4000000000u};
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    universe.push_back(triplet.j);
    universe.push_back(triplet.i);
  }
  expectSameCsr(Graph::fromTriplets(triplets, universe),
                oracle::referenceCsr(triplets, universe));
}

TEST_P(ParallelFill, UnsortedInputWithDuplicatePairs) {
  const auto sorted = randomSortedTriplets(53, 20000, 150000);
  std::vector<sparse::AdjacencyTriplet> messy;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    sparse::AdjacencyTriplet triplet = sorted[k];
    if (k % 3 == 0) {
      messy.push_back({triplet.j, triplet.i, 7});  // reversed duplicate
    }
    messy.push_back(triplet);
  }
  messy = shuffled(std::move(messy), 5);
  const oracle::Csr expected = oracle::referenceCsr(messy);
  expectSameCsr(Graph::fromTriplets(messy, GetParam()), expected);
  // fromEdges over the compact ids takes the same sort, merge and fill.
  const std::span<const std::uint32_t> labels(expected.labels);
  const auto compact = [&labels](std::uint32_t label) {
    return static_cast<Vertex>(
        std::lower_bound(labels.begin(), labels.end(), label) -
        labels.begin());
  };
  std::vector<Edge> edges;
  for (const sparse::AdjacencyTriplet& triplet : messy) {
    edges.push_back(
        Edge{compact(triplet.i), compact(triplet.j), triplet.weight});
  }
  const Graph viaEdges =
      Graph::fromEdges(edges, static_cast<Vertex>(labels.size()));
  ASSERT_TRUE(std::ranges::equal(viaEdges.rowOffsets(), expected.offsets));
  ASSERT_TRUE(std::ranges::equal(viaEdges.allNeighbors(), expected.neighbors));
  ASSERT_TRUE(std::ranges::equal(viaEdges.allWeights(), expected.weights));
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelFill,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u));

TEST(Algorithms, DegreeSequence) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(degreeSequence(graph),
            (std::vector<std::uint64_t>{2, 2, 3, 1}));
  EXPECT_DOUBLE_EQ(meanDegree(graph), 2.0);
}

TEST(Algorithms, ClusteringOnKnownGraph) {
  const Graph graph = triangleWithTail();
  const auto coefficients = localClusteringCoefficients(graph);
  EXPECT_DOUBLE_EQ(coefficients[0], 1.0);  // both neighbors connected
  EXPECT_DOUBLE_EQ(coefficients[1], 1.0);
  EXPECT_DOUBLE_EQ(coefficients[2], 1.0 / 3.0);  // one of three pairs closed
  EXPECT_DOUBLE_EQ(coefficients[3], 0.0);        // degree 1
}

TEST(Algorithms, CompleteGraphFullyClustered) {
  std::vector<Edge> edges;
  const Vertex n = 8;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      edges.push_back(Edge{u, v, 1});
    }
  }
  const Graph complete = Graph::fromEdges(edges, n);
  EXPECT_EQ(triangleCount(complete), 56u);  // C(8,3)
  EXPECT_DOUBLE_EQ(globalTransitivity(complete), 1.0);
  for (double c : localClusteringCoefficients(complete)) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
}

/// O(n^3) reference clustering for the property sweep.
std::vector<double> bruteForceClustering(const Graph& graph) {
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    if (row.size() < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (std::size_t a = 0; a < row.size(); ++a) {
      for (std::size_t b = a + 1; b < row.size(); ++b) {
        closed += graph.hasEdge(row[a], row[b]) ? 1 : 0;
      }
    }
    coefficients[v] = static_cast<double>(closed) /
                      (static_cast<double>(row.size()) *
                       static_cast<double>(row.size() - 1) / 2.0);
  }
  return coefficients;
}

/// Brute-force triangle count: every vertex triple u < v < w.
std::uint64_t bruteForceTriangles(const Graph& graph) {
  std::uint64_t triangles = 0;
  for (Vertex u = 0; u < graph.vertexCount(); ++u) {
    for (Vertex v : graph.neighbors(u)) {
      for (Vertex w : graph.neighbors(v)) {
        triangles += (u < v && v < w && graph.hasEdge(u, w)) ? 1 : 0;
      }
    }
  }
  return triangles;
}

/// Coefficient vectors must agree to the bit, not within a tolerance: both
/// sides divide the same integers.
void expectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t v = 0; v < actual.size(); ++v) {
    ASSERT_EQ(actual[v], expected[v]) << what << ", vertex " << v;
  }
}

class ClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringProperty, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng(GetParam());
  const Graph graph = erdosRenyi(60, 240, rng);
  expectBitIdentical(localClusteringCoefficients(graph),
                     bruteForceClustering(graph), "brute force");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// Shapes that stress the forward-listing kernel: hub rows, degree ties,
/// isolated vertices and the empty graph.
Graph barabasiAlbertHubs() {
  util::Rng rng(41);
  return barabasiAlbert(400, 4, rng);
}

/// A 40-leaf star whose center also belongs to a 12-clique, plus leaves
/// wired into a few triangles: one hub row, many degree ties.
Graph starGluedToClique() {
  std::vector<Edge> edges;
  const Vertex hub = 0;
  for (Vertex leaf = 1; leaf <= 40; ++leaf) {
    edges.push_back(Edge{hub, leaf, 1});
  }
  for (Vertex a = 41; a < 52; ++a) {
    edges.push_back(Edge{hub, a, 1});
    for (Vertex b = a + 1; b < 52; ++b) {
      edges.push_back(Edge{a, b, 1});
    }
  }
  for (Vertex leaf = 1; leaf + 1 <= 40; leaf += 4) {
    edges.push_back(Edge{leaf, static_cast<Vertex>(leaf + 1), 1});
  }
  return Graph::fromEdges(edges, 52);
}

Graph withIsolatedVertices() {
  util::Rng rng(43);
  const Graph dense = erdosRenyi(30, 150, rng);
  std::vector<Edge> edges;
  for (Vertex u = 0; u < dense.vertexCount(); ++u) {
    for (Vertex v : dense.neighbors(u)) {
      if (u < v) {
        edges.push_back(Edge{2 * u + 1, 2 * v + 1, 1});  // evens isolated
      }
    }
  }
  return Graph::fromEdges(edges, 61);
}

Graph emptyGraph() { return Graph(); }

Graph edgelessGraph() { return Graph::fromEdges({}, 5); }

Graph completeGraph() {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < 9; ++u) {
    for (Vertex v = u + 1; v < 9; ++v) {
      edges.push_back(Edge{u, v, 1});
    }
  }
  return Graph::fromEdges(edges, 9);
}

/// A kernel shape: its name and the index of its maker. Plain bytes and
/// no pointers, because gtest_discover_tests copies gtest's byte dump of
/// the parameter into each ctest name; an address there (a std::string's
/// buffer, a function pointer) changed the names from build to build.
struct KernelShape {
  char name[32];
  std::uint64_t maker;

  Graph make() const {
    static constexpr Graph (*kMakers[])() = {
        barabasiAlbertHubs, starGluedToClique, withIsolatedVertices,
        emptyGraph,         edgelessGraph,     completeGraph,
        triangleWithTail};
    return kMakers[maker]();
  }
};

class ClusteringKernel : public ::testing::TestWithParam<KernelShape> {};

TEST_P(ClusteringKernel, BitIdenticalToOraclesForEveryWorkerCount) {
  const Graph graph = GetParam().make();
  const auto reference = bruteForceClustering(graph);
  expectBitIdentical(oracle::mergeIntersectionClustering(graph), reference,
                     "merge-intersection oracle");
  for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    expectBitIdentical(localClusteringCoefficients(graph, workers), reference,
                       std::to_string(workers) + " workers");
  }
}

TEST_P(ClusteringKernel, TriangleCountAndTransitivityMatchBruteForce) {
  const Graph graph = GetParam().make();
  const std::uint64_t triangles = bruteForceTriangles(graph);
  std::uint64_t triples = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    triples += degree < 2 ? 0 : degree * (degree - 1) / 2;
  }
  const double transitivity =
      triples == 0 ? 0.0
                   : 3.0 * static_cast<double>(triangles) /
                         static_cast<double>(triples);
  for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    EXPECT_EQ(triangleCount(graph, workers), triangles) << workers;
    EXPECT_EQ(globalTransitivity(graph, workers), transitivity) << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusteringKernel,
    ::testing::Values(KernelShape{"BarabasiAlbertHubs", 0},
                      KernelShape{"StarGluedToClique", 1},
                      KernelShape{"IsolatedVertices", 2},
                      KernelShape{"Empty", 3}, KernelShape{"Edgeless", 4},
                      KernelShape{"Complete", 5},
                      KernelShape{"TriangleWithTail", 6}),
    [](const ::testing::TestParamInfo<KernelShape>& info) {
      return std::string(info.param.name);
    });

TEST(Algorithms, VerticesWithinRadius) {
  // Path 0-1-2-3-4.
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < 5; ++v) {
    edges.push_back(Edge{v, static_cast<Vertex>(v + 1), 1});
  }
  const Graph path = Graph::fromEdges(edges, 5);
  EXPECT_EQ(verticesWithinRadius(path, 0, 0), (std::vector<Vertex>{0}));
  EXPECT_EQ(verticesWithinRadius(path, 0, 2), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(verticesWithinRadius(path, 2, 2),
            (std::vector<Vertex>{0, 1, 2, 3, 4}));
}

TEST(Algorithms, EgoNetworkPreservesInternalEdges) {
  const Graph graph = triangleWithTail();
  const Graph ego = egoNetwork(graph, 0, 1);  // 0 + neighbors {1, 2}
  EXPECT_EQ(ego.vertexCount(), 3u);
  EXPECT_EQ(ego.edgeCount(), 3u);  // the full triangle, incl. edge 1-2
  EXPECT_EQ(ego.weightBetween(*ego.vertexForLabel(1), *ego.vertexForLabel(2)),
            2u);
}

TEST(Algorithms, InducedSubgraphKeepsIsolatedVertices) {
  const Graph graph = triangleWithTail();
  const std::vector<Vertex> pick{0, 3};  // no edge between them
  const Graph sub = inducedSubgraph(graph, pick);
  EXPECT_EQ(sub.vertexCount(), 2u);
  EXPECT_EQ(sub.edgeCount(), 0u);
}

TEST(Algorithms, ConnectedComponents) {
  // Two components: triangle {0,1,2} and edge {3,4}; isolated 5.
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  const Components components = connectedComponents(graph);
  EXPECT_EQ(components.count(), 3u);
  EXPECT_EQ(components.giantSize(), 3u);
  EXPECT_EQ(components.componentOf[0], components.componentOf[2]);
  EXPECT_NE(components.componentOf[0], components.componentOf[3]);
}

TEST(Generators, ErdosRenyiExactEdgeCount) {
  util::Rng rng(11);
  const Graph graph = erdosRenyi(100, 350, rng);
  EXPECT_EQ(graph.vertexCount(), 100u);
  EXPECT_EQ(graph.edgeCount(), 350u);
}

TEST(Generators, ErdosRenyiRejectsImpossible) {
  util::Rng rng(1);
  EXPECT_THROW(erdosRenyi(3, 10, rng), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegreesAndTail) {
  util::Rng rng(13);
  const Graph graph = barabasiAlbert(2000, 3, rng);
  EXPECT_EQ(graph.vertexCount(), 2000u);
  // Every non-seed vertex attaches with >= 3 edges.
  std::uint64_t maxDegree = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_GE(graph.degree(v), 3u);
    maxDegree = std::max(maxDegree, graph.degree(v));
  }
  // Preferential attachment grows hubs far beyond the minimum.
  EXPECT_GT(maxDegree, 30u);
}

TEST(Generators, WattsStrogatzZeroBetaIsLattice) {
  util::Rng rng(17);
  const Graph graph = wattsStrogatz(50, 2, 0.0, rng);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_EQ(graph.degree(v), 4u);
  }
  // Ring lattice with k=2 has transitivity 0.5.
  EXPECT_NEAR(globalTransitivity(graph), 0.5, 1e-9);
}

TEST(Generators, WattsStrogatzRewiringLowersClustering) {
  util::Rng rng(19);
  const Graph ordered = wattsStrogatz(400, 3, 0.0, rng);
  const Graph rewired = wattsStrogatz(400, 3, 0.9, rng);
  EXPECT_EQ(ordered.edgeCount(), rewired.edgeCount());
  EXPECT_GT(globalTransitivity(ordered), globalTransitivity(rewired) + 0.1);
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "chisimnet_graph_io";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(IoTest, EdgeListHasOneLinePerEdge) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.tsv";
  writeEdgeListTsv(graph, path);
  const std::string content = slurp(path);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 4);
  EXPECT_NE(content.find("2\t3\t4"), std::string::npos);
}

TEST_F(IoTest, GraphMlContainsNodesEdgesAndDegrees) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.graphml";
  writeGraphMl(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<graphml"), std::string::npos);
  EXPECT_NE(content.find("<node id=\"n0\">"), std::string::npos);
  EXPECT_NE(content.find("attr.name=\"degree\""), std::string::npos);
  // 5 header lines + 4 nodes + 4 edges + 2 closing lines.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 5 + 4 + 4 + 2);
}

TEST_F(IoTest, DotOutputParses) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.dot";
  writeDot(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("graph G {"), std::string::npos);
  EXPECT_NE(content.find("0 -- 1"), std::string::npos);
}

TEST(Layout, PositionsFiniteAndClustersCloser) {
  // Two triangles joined by one bridge edge: layout should place
  // intra-triangle pairs closer than the triangles' centroids.
  const std::vector<Edge> edges{{0, 1, 5}, {1, 2, 5}, {0, 2, 5},
                                {3, 4, 5}, {4, 5, 5}, {3, 5, 5},
                                {2, 3, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  util::Rng rng(23);
  LayoutOptions options;
  options.iterations = 300;
  const auto positions = forceAtlas2Layout(graph, options, rng);
  ASSERT_EQ(positions.size(), 6u);
  for (const Point& point : positions) {
    EXPECT_TRUE(std::isfinite(point.x));
    EXPECT_TRUE(std::isfinite(point.y));
  }
  const auto distance = [&positions](Vertex a, Vertex b) {
    const double dx = positions[a].x - positions[b].x;
    const double dy = positions[a].y - positions[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  EXPECT_LT(distance(0, 1), distance(0, 4));
  EXPECT_LT(distance(3, 5), distance(1, 5));
}

TEST_F(IoTest, SvgRendererWritesValidFile) {
  const Graph graph = triangleWithTail();
  util::Rng rng(29);
  const auto positions = forceAtlas2Layout(graph, LayoutOptions{}, rng);
  const auto path = dir_ / "g.svg";
  writeSvg(graph, positions, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
            // header+rect+2 group opens+4 edges+4 nodes+2 group closes+close
            2 + 2 + 4 + 4 + 2 + 1);
}

TEST(Layout, EmptyGraph) {
  const Graph graph;
  util::Rng rng(1);
  EXPECT_TRUE(forceAtlas2Layout(graph, LayoutOptions{}, rng).empty());
}

}  // namespace
}  // namespace chisimnet::graph

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "chisimnet/graph/community.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/util/rng.hpp"
#include "community_oracle.hpp"

namespace chisimnet::graph {
namespace {

/// Planted-partition graph: `blocks` cliques of `blockSize` vertices with
/// heavy internal weights, chained by single light bridge edges.
Graph plantedBlocks(unsigned blocks, unsigned blockSize, Weight internal = 10,
                    Weight bridge = 1) {
  std::vector<Edge> edges;
  const Vertex n = blocks * blockSize;
  for (unsigned b = 0; b < blocks; ++b) {
    const Vertex base = b * blockSize;
    for (Vertex u = 0; u < blockSize; ++u) {
      for (Vertex v = u + 1; v < blockSize; ++v) {
        edges.push_back(Edge{base + u, base + v, internal});
      }
    }
    if (b + 1 < blocks) {
      edges.push_back(Edge{base, base + blockSize, bridge});
    }
  }
  return Graph::fromEdges(edges, n);
}

std::uint32_t blockOf(Vertex v, unsigned blockSize) { return v / blockSize; }

TEST(Modularity, PerfectPartitionScoresHigh) {
  const Graph graph = plantedBlocks(4, 8);
  std::vector<std::uint32_t> truth(graph.vertexCount());
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    truth[v] = blockOf(v, 8);
  }
  const double q = modularity(graph, truth);
  EXPECT_GT(q, 0.6);
  // All-in-one partition scores 0 by definition.
  const std::vector<std::uint32_t> single(graph.vertexCount(), 0);
  EXPECT_NEAR(modularity(graph, single), 0.0, 1e-12);
  // The true partition beats a degenerate singleton partition.
  std::vector<std::uint32_t> singletons(graph.vertexCount());
  std::iota(singletons.begin(), singletons.end(), 0u);
  EXPECT_GT(q, modularity(graph, singletons));
}

TEST(Modularity, SizeMismatchRejected) {
  const Graph graph = plantedBlocks(2, 4);
  const std::vector<std::uint32_t> wrong(3, 0);
  EXPECT_THROW(modularity(graph, wrong), std::invalid_argument);
}

TEST(Modularity, MaximalLabelMatchesCompactedAssignment) {
  // A label of UINT32_MAX must not size the strength table as
  // maxLabel + 1, which wraps to 0.
  const std::vector<Edge> edges{{0, 1, 3}, {1, 2, 2}, {2, 3, 1}, {0, 2, 4}};
  const Graph graph = Graph::fromEdges(edges, 4);
  const std::uint32_t top = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::uint32_t> wide{7, 7, 7, top};
  const std::vector<std::uint32_t> compact{0, 0, 0, 1};
  for (unsigned workers : {1u, 3u}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(modularity(graph, wide, workers)),
              std::bit_cast<std::uint64_t>(modularity(graph, compact, workers)));
  }
}

TEST(Modularity, HugeLabelsMatchTheirOrderPreservingCompaction) {
  // Labels near 2^31 must not size a table by their value (16 GiB); any
  // labels at or above the vertex count are ranked, keeping
  // ascending-label order.
  const Graph graph = plantedBlocks(5, 6);
  std::vector<std::uint32_t> truth(graph.vertexCount());
  std::vector<std::uint32_t> shifted(graph.vertexCount());
  std::vector<std::uint32_t> spread(graph.vertexCount());
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    truth[v] = blockOf(v, 6);
    shifted[v] = truth[v] + (1u << 31);
    spread[v] = std::numeric_limits<std::uint32_t>::max() - 1000 * (4 - truth[v]);
  }
  const double expected = oracle::serialModularity(graph, truth);
  for (unsigned workers : {1u, 2u, 4u}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(modularity(graph, shifted, workers)),
              std::bit_cast<std::uint64_t>(expected));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(modularity(graph, spread, workers)),
              std::bit_cast<std::uint64_t>(expected));
  }
}

TEST(CompactLabels, DensifiesLabelsBelowTheSizeInFirstOccurrenceOrder) {
  std::vector<std::uint32_t> labels{4, 2, 4, 0, 2, 5};
  EXPECT_EQ(compactLabels(labels), 4u);
  EXPECT_EQ(labels, (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 3}));
}

TEST(CompactLabels, DensifiesArbitraryLabels) {
  std::vector<std::uint32_t> labels{9, 4, 9, 100, 4};
  const std::uint32_t count = compactLabels(labels);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[1], labels[4]);
  for (std::uint32_t label : labels) {
    EXPECT_LT(label, 3u);
  }
}

/// Fraction of vertex pairs whose "same community" relation matches the
/// planted truth (Rand index, sampled exactly for these small graphs).
double randIndex(std::span<const std::uint32_t> found, unsigned blockSize) {
  std::uint64_t agree = 0;
  std::uint64_t total = 0;
  for (Vertex u = 0; u < found.size(); ++u) {
    for (Vertex v = u + 1; v < found.size(); ++v) {
      const bool sameTruth = blockOf(u, blockSize) == blockOf(v, blockSize);
      const bool sameFound = found[u] == found[v];
      agree += sameTruth == sameFound ? 1 : 0;
      ++total;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

class CommunitySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CommunitySeeds, LabelPropagationRecoversPlantedBlocks) {
  const Graph graph = plantedBlocks(6, 10);
  util::Rng rng(GetParam());
  const CommunityAssignment result = labelPropagation(graph, rng);
  EXPECT_GE(result.communityCount, 6u);  // bridges may split, never merge fully
  EXPECT_GT(randIndex(result.communityOf, 10), 0.95);
  EXPECT_GT(result.modularity, 0.5);
}

TEST_P(CommunitySeeds, LouvainRecoversPlantedBlocks) {
  const Graph graph = plantedBlocks(6, 10);
  util::Rng rng(GetParam());
  const CommunityAssignment result = louvain(graph, rng);
  EXPECT_EQ(result.communityCount, 6u);
  EXPECT_GT(randIndex(result.communityOf, 10), 0.99);
  EXPECT_GT(result.modularity, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommunitySeeds,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(Louvain, ModularityAtLeastLabelPropagation) {
  // Louvain optimizes modularity directly; on a noisy graph it should not
  // do worse than label propagation.
  util::Rng genRng(5);
  const Graph graph = wattsStrogatz(300, 5, 0.2, genRng);
  util::Rng lpRng(7);
  util::Rng louvainRng(7);
  const CommunityAssignment lp = labelPropagation(graph, lpRng);
  const CommunityAssignment lv = louvain(graph, louvainRng);
  EXPECT_GE(lv.modularity + 1e-9, lp.modularity);
  EXPECT_GT(lv.modularity, 0.0);
}

TEST(Louvain, EmptyAndEdgelessGraphs) {
  const Graph empty;
  util::Rng rng(1);
  const CommunityAssignment none = louvain(empty, rng);
  EXPECT_EQ(none.communityCount, 0u);

  const Graph isolated = Graph::fromEdges({}, 5);
  const CommunityAssignment singles = louvain(isolated, rng);
  EXPECT_EQ(singles.communityCount, 5u);
}

TEST(LabelPropagation, SizesSumToVertexCount) {
  const Graph graph = plantedBlocks(3, 7);
  util::Rng rng(11);
  const CommunityAssignment result = labelPropagation(graph, rng);
  const auto sizes = result.sizes();
  std::uint64_t total = 0;
  for (std::uint64_t size : sizes) {
    total += size;
  }
  EXPECT_EQ(total, graph.vertexCount());
}

TEST(Louvain, WeightsMatter) {
  // Two triangles bridged by a HEAVY edge: with the bridge dominating,
  // Louvain should merge everything; with a light bridge it should split.
  const auto build = [](Weight bridgeWeight) {
    std::vector<Edge> edges{{0, 1, 2}, {1, 2, 2}, {0, 2, 2},
                            {3, 4, 2}, {4, 5, 2}, {3, 5, 2},
                            {2, 3, bridgeWeight}};
    return Graph::fromEdges(edges, 6);
  };
  util::Rng rng(3);
  const CommunityAssignment split = louvain(build(1), rng);
  EXPECT_EQ(split.communityCount, 2u);
  EXPECT_NE(split.communityOf[0], split.communityOf[5]);
}

// ---- kernel identity: library vs the hash-map oracle ----------------------

/// The same topology with weights drawn from [1, maxWeight].
Graph withRandomWeights(const Graph& graph, std::uint64_t seed,
                        Weight maxWeight) {
  util::Rng rng(seed);
  std::vector<Edge> edges;
  for (Vertex u = 0; u < graph.vertexCount(); ++u) {
    for (Vertex v : graph.neighbors(u)) {
      if (u < v) {
        edges.push_back(Edge{u, v, 1 + rng.uniformBelow(maxWeight)});
      }
    }
  }
  return Graph::fromEdges(edges, graph.vertexCount());
}

/// A hub with pendant leaves, the hub also one corner of a heavy clique.
Graph starGluedToClique(Vertex leaves, Vertex cliqueSize) {
  std::vector<Edge> edges;
  for (Vertex leaf = 1; leaf <= leaves; ++leaf) {
    edges.push_back(Edge{0, leaf, 1});
  }
  const Vertex base = leaves + 1;
  for (Vertex a = 0; a < cliqueSize; ++a) {
    const Vertex u = a == 0 ? 0 : base + a - 1;
    for (Vertex b = a + 1; b < cliqueSize; ++b) {
      edges.push_back(Edge{u, base + b - 1, 5});
    }
  }
  return Graph::fromEdges(edges, base + cliqueSize - 1);
}

/// Identical unit-weight cliques closed into a ring by unit bridges: every
/// community looks like every other, so gains tie exactly.
Graph ringOfCliques(Vertex cliques, Vertex cliqueSize) {
  std::vector<Edge> edges;
  for (Vertex c = 0; c < cliques; ++c) {
    const Vertex base = c * cliqueSize;
    for (Vertex a = 0; a < cliqueSize; ++a) {
      for (Vertex b = a + 1; b < cliqueSize; ++b) {
        edges.push_back(Edge{base + a, base + b, 1});
      }
    }
    const Vertex next = ((c + 1) % cliques) * cliqueSize;
    edges.push_back(Edge{base + cliqueSize - 1, next, 1});
  }
  return Graph::fromEdges(edges, cliques * cliqueSize);
}

/// Planted blocks with isolated vertices interleaved past the blocks.
Graph blocksWithIsolated() {
  const Graph blocks = plantedBlocks(4, 9, 7, 2);
  std::vector<Edge> edges;
  for (Vertex u = 0; u < blocks.vertexCount(); ++u) {
    const auto row = blocks.neighbors(u);
    const auto rowWeights = blocks.edgeWeights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (u < row[i]) {
        // Spread the block vertices out so isolated ids sit between them.
        edges.push_back(Edge{2 * u, 2 * row[i], rowWeights[i]});
      }
    }
  }
  return Graph::fromEdges(edges, 2 * blocks.vertexCount() + 5);
}

/// Planted blocks whose bridges and a few internal edges weigh 0: a
/// community reached only through them is still a candidate.
Graph blocksWithZeroWeights() {
  std::vector<Edge> edges;
  const Graph blocks = plantedBlocks(5, 6, 3, 0);
  for (Vertex u = 0; u < blocks.vertexCount(); ++u) {
    const auto row = blocks.neighbors(u);
    const auto rowWeights = blocks.edgeWeights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (u < row[i]) {
        edges.push_back(Edge{u, row[i], (u + row[i]) % 7 == 0 ? 0 : rowWeights[i]});
      }
    }
  }
  edges.push_back(Edge{0, 29, 0});
  return Graph::fromEdges(edges, blocks.vertexCount() + 2);
}

struct KernelCase {
  std::string name;
  std::function<Graph()> build;
};

std::vector<KernelCase> kernelCases() {
  return {
      {"planted blocks", [] { return plantedBlocks(8, 12, 6, 1); }},
      {"watts-strogatz",
       [] {
         util::Rng rng(5);
         return withRandomWeights(wattsStrogatz(600, 4, 0.15, rng), 6, 9);
       }},
      {"ba hubs",
       [] {
         util::Rng rng(8);
         return withRandomWeights(barabasiAlbert(500, 3, rng), 9, 20);
       }},
      {"star glued to clique", [] { return starGluedToClique(30, 9); }},
      {"ring of equal cliques", [] { return ringOfCliques(12, 5); }},
      {"isolated vertices", [] { return blocksWithIsolated(); }},
      {"zero-weight edges", [] { return blocksWithZeroWeights(); }},
      {"empty", [] { return Graph(); }},
      {"edgeless", [] { return Graph::fromEdges({}, 7); }},
  };
}

template <class Value>
void expectSameBits(double a, double b, const Value& context) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << context << ": " << a << " vs " << b;
}

void expectSameAssignment(const CommunityAssignment& got,
                          const CommunityAssignment& want,
                          const std::string& context) {
  EXPECT_EQ(got.communityOf, want.communityOf) << context;
  EXPECT_EQ(got.communityCount, want.communityCount) << context;
  EXPECT_EQ(got.iterations, want.iterations) << context;
  expectSameBits(got.modularity, want.modularity, context);
}

class CommunityKernel : public ::testing::TestWithParam<unsigned> {};

TEST_P(CommunityKernel, LouvainIsBitIdenticalToTheOracle) {
  const unsigned workers = GetParam();
  for (const KernelCase& kernelCase : kernelCases()) {
    const Graph graph = kernelCase.build();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng oracleRng(seed);
      util::Rng libraryRng(seed);
      const CommunityAssignment want = oracle::hashMapLouvain(graph, oracleRng);
      const CommunityAssignment got = louvain(graph, libraryRng, 10, workers);
      expectSameAssignment(got, want,
                           kernelCase.name + " seed " + std::to_string(seed));
      // Both consumed the same number of draws.
      EXPECT_EQ(oracleRng.next(), libraryRng.next()) << kernelCase.name;
    }
  }
}

TEST(LabelPropagationKernel, IsBitIdenticalToTheOracle) {
  for (const KernelCase& kernelCase : kernelCases()) {
    const Graph graph = kernelCase.build();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng oracleRng(seed);
      util::Rng libraryRng(seed);
      const CommunityAssignment want =
          oracle::hashMapLabelPropagation(graph, oracleRng);
      const CommunityAssignment got = labelPropagation(graph, libraryRng);
      expectSameAssignment(got, want,
                           kernelCase.name + " seed " + std::to_string(seed));
    }
  }
}

TEST_P(CommunityKernel, ModularityIsBitIdenticalToTheSerialReference) {
  const unsigned workers = GetParam();
  for (const KernelCase& kernelCase : kernelCases()) {
    const Graph graph = kernelCase.build();
    const Vertex n = graph.vertexCount();
    util::Rng rng(n + 1);
    std::vector<std::vector<std::uint32_t>> assignments;
    assignments.emplace_back(n, 0u);  // one community
    assignments.emplace_back(n);
    std::iota(assignments.back().begin(), assignments.back().end(), 0u);
    std::vector<std::uint32_t> random(n);
    for (std::uint32_t& label : random) {
      label = static_cast<std::uint32_t>(rng.uniformBelow(n / 3 + 1));
    }
    assignments.push_back(random);
    util::Rng louvainRng(4);
    assignments.push_back(oracle::hashMapLouvain(graph, louvainRng).communityOf);
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      expectSameBits(modularity(graph, assignments[i], workers),
                     oracle::serialModularity(graph, assignments[i]),
                     kernelCase.name + " assignment " + std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, CommunityKernel,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u));

}  // namespace
}  // namespace chisimnet::graph

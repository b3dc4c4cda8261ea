#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chisimnet/graph/community.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/util/rng.hpp"

/// The hash-map community kernels the library used before its integer CSR
/// rewrite: a std::unordered_map of neighbor-community weights per visited
/// vertex, strengths recomputed on every visit, nested-vector level graphs
/// and a serial modularity. Kept only as a reference — the kernel tests
/// require bit-identical assignments from it, and bench_communities gates
/// the library's Louvain speed against it.
///
/// One deliberate change from the old code: Louvain's candidate selection
/// follows the library's documented rule (largest gain among the
/// neighboring communities other than the current one, exact ties to the
/// smaller id, move only if that gain beats staying by more than 1e-12).
/// The old rule scanned the map with a running 1e-12 margin, so its winner
/// depended on unordered_map iteration order.

namespace chisimnet::graph::oracle {

/// First-occurrence renumbering through a hash map.
inline std::uint32_t hashCompactLabels(std::vector<std::uint32_t>& labels) {
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(labels.size());
  for (std::uint32_t& label : labels) {
    const auto [it, inserted] =
        remap.emplace(label, static_cast<std::uint32_t>(remap.size()));
    label = it->second;
  }
  return static_cast<std::uint32_t>(remap.size());
}

/// Serial modularity with one double accumulator per label up to the
/// largest label (so only for labels well below 2^32).
inline double serialModularity(const Graph& graph,
                               std::span<const std::uint32_t> communityOf) {
  const double twoM = 2.0 * static_cast<double>(graph.totalWeight());
  if (twoM <= 0.0) {
    return 0.0;
  }
  std::uint32_t maxLabel = 0;
  for (std::uint32_t label : communityOf) {
    maxLabel = std::max(maxLabel, label);
  }
  std::vector<double> communityStrength(std::uint64_t{maxLabel} + 1, 0.0);
  double internal = 0.0;  // 2 x intra-community edge weight
  for (Vertex u = 0; u < graph.vertexCount(); ++u) {
    const auto row = graph.neighbors(u);
    const auto rowWeights = graph.edgeWeights(u);
    double strength = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      strength += static_cast<double>(rowWeights[i]);
      if (communityOf[u] == communityOf[row[i]]) {
        internal += static_cast<double>(rowWeights[i]);
      }
    }
    communityStrength[communityOf[u]] += strength;
  }
  double expectation = 0.0;
  for (double strength : communityStrength) {
    expectation += (strength / twoM) * (strength / twoM);
  }
  return internal / twoM - expectation;
}

inline CommunityAssignment hashMapLabelPropagation(const Graph& graph,
                                                   util::Rng& rng,
                                                   unsigned maxSweeps = 50) {
  CommunityAssignment result;
  result.communityOf.resize(graph.vertexCount());
  std::iota(result.communityOf.begin(), result.communityOf.end(), 0u);
  if (graph.vertexCount() == 0) {
    return result;
  }

  std::vector<Vertex> order(graph.vertexCount());
  std::iota(order.begin(), order.end(), 0u);
  std::unordered_map<std::uint32_t, double> labelWeight;

  for (unsigned sweep = 0; sweep < maxSweeps; ++sweep) {
    result.iterations = sweep + 1;
    rng.shuffle(order);
    bool changed = false;
    for (Vertex v : order) {
      const auto row = graph.neighbors(v);
      if (row.empty()) {
        continue;
      }
      labelWeight.clear();
      const auto rowWeights = graph.edgeWeights(v);
      for (std::size_t i = 0; i < row.size(); ++i) {
        labelWeight[result.communityOf[row[i]]] +=
            static_cast<double>(rowWeights[i]);
      }
      std::uint32_t best = result.communityOf[v];
      double bestWeight = -1.0;
      for (const auto& [label, weight] : labelWeight) {
        if (weight > bestWeight ||
            (weight == bestWeight && label < best)) {
          best = label;
          bestWeight = weight;
        }
      }
      if (best != result.communityOf[v]) {
        result.communityOf[v] = best;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }

  result.communityCount = hashCompactLabels(result.communityOf);
  result.modularity = serialModularity(graph, result.communityOf);
  return result;
}

/// Aggregated weighted graph between Louvain levels. Strength counts
/// self-loops twice.
struct HashLevelGraph {
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adjacency;
  std::vector<double> selfLoop;
  double twoM = 0.0;

  std::size_t size() const noexcept { return adjacency.size(); }

  double strength(std::uint32_t node) const {
    double total = 2.0 * selfLoop[node];
    for (const auto& [neighbor, weight] : adjacency[node]) {
      total += weight;
    }
    return total;
  }
};

inline HashLevelGraph hashLevelFromGraph(const Graph& graph) {
  HashLevelGraph level;
  level.adjacency.resize(graph.vertexCount());
  level.selfLoop.assign(graph.vertexCount(), 0.0);
  for (Vertex u = 0; u < graph.vertexCount(); ++u) {
    const auto row = graph.neighbors(u);
    const auto rowWeights = graph.edgeWeights(u);
    level.adjacency[u].reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      level.adjacency[u].emplace_back(row[i],
                                      static_cast<double>(rowWeights[i]));
    }
  }
  for (std::uint32_t n = 0; n < level.size(); ++n) {
    level.twoM += level.strength(n);
  }
  return level;
}

inline std::vector<std::uint32_t> hashLocalMoves(const HashLevelGraph& level,
                                                 util::Rng& rng) {
  const std::size_t n = level.size();
  std::vector<std::uint32_t> community(n);
  std::iota(community.begin(), community.end(), 0u);
  std::vector<double> communityStrength(n);
  for (std::uint32_t node = 0; node < n; ++node) {
    communityStrength[node] = level.strength(node);
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::unordered_map<std::uint32_t, double> neighborWeight;

  bool improved = true;
  while (improved) {
    improved = false;
    rng.shuffle(order);
    for (std::uint32_t node : order) {
      const double k = level.strength(node);
      neighborWeight.clear();
      for (const auto& [neighbor, weight] : level.adjacency[node]) {
        neighborWeight[community[neighbor]] += weight;
      }
      const std::uint32_t from = community[node];
      communityStrength[from] -= k;

      const double stayGain =
          neighborWeight.count(from) != 0
              ? neighborWeight[from] - k * communityStrength[from] / level.twoM
              : -k * communityStrength[from] / level.twoM;
      // The documented rule: best other community, ties to the smaller id.
      std::uint32_t best = from;
      double bestGain = 0.0;
      bool found = false;
      for (const auto& [candidate, weight] : neighborWeight) {
        if (candidate == from) {
          continue;
        }
        const double gain =
            weight - k * communityStrength[candidate] / level.twoM;
        if (!found || gain > bestGain ||
            (gain == bestGain && candidate < best)) {
          bestGain = gain;
          best = candidate;
          found = true;
        }
      }
      if (!found || !(bestGain > stayGain + 1e-12)) {
        best = from;
      }
      communityStrength[best] += k;
      if (best != from) {
        community[node] = best;
        improved = true;
      }
    }
  }
  return community;
}

inline HashLevelGraph hashAggregate(const HashLevelGraph& level,
                                    const std::vector<std::uint32_t>& community,
                                    std::uint32_t communityCount) {
  HashLevelGraph next;
  next.adjacency.resize(communityCount);
  next.selfLoop.assign(communityCount, 0.0);
  next.twoM = level.twoM;

  std::vector<std::unordered_map<std::uint32_t, double>> edges(communityCount);
  for (std::uint32_t node = 0; node < level.size(); ++node) {
    const std::uint32_t cu = community[node];
    next.selfLoop[cu] += level.selfLoop[node];
    for (const auto& [neighbor, weight] : level.adjacency[node]) {
      const std::uint32_t cv = community[neighbor];
      if (cu == cv) {
        next.selfLoop[cu] += weight / 2.0;  // each edge visited twice
      } else {
        edges[cu][cv] += weight;
      }
    }
  }
  for (std::uint32_t c = 0; c < communityCount; ++c) {
    next.adjacency[c].assign(edges[c].begin(), edges[c].end());
    std::sort(next.adjacency[c].begin(), next.adjacency[c].end());
  }
  return next;
}

inline CommunityAssignment hashMapLouvain(const Graph& graph, util::Rng& rng,
                                          unsigned maxLevels = 10) {
  CommunityAssignment result;
  result.communityOf.resize(graph.vertexCount());
  std::iota(result.communityOf.begin(), result.communityOf.end(), 0u);
  if (graph.vertexCount() == 0 || graph.edgeCount() == 0) {
    result.communityCount = graph.vertexCount();
    return result;
  }

  HashLevelGraph level = hashLevelFromGraph(graph);
  std::vector<std::uint32_t> flat(graph.vertexCount());
  std::iota(flat.begin(), flat.end(), 0u);
  double bestModularity = serialModularity(graph, flat);

  for (unsigned pass = 0; pass < maxLevels; ++pass) {
    result.iterations = pass + 1;
    std::vector<std::uint32_t> community = hashLocalMoves(level, rng);
    const std::uint32_t count = hashCompactLabels(community);

    std::vector<std::uint32_t> candidate(flat.size());
    for (std::size_t v = 0; v < flat.size(); ++v) {
      candidate[v] = community[flat[v]];
    }
    const double q = serialModularity(graph, candidate);
    if (q <= bestModularity + 1e-9) {
      break;
    }
    bestModularity = q;
    flat = std::move(candidate);
    if (count == level.size()) {
      break;
    }
    level = hashAggregate(level, community, count);
  }

  result.communityOf = std::move(flat);
  result.communityCount = hashCompactLabels(result.communityOf);
  result.modularity = serialModularity(graph, result.communityOf);
  return result;
}

}  // namespace chisimnet::graph::oracle

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/graph/graph.hpp"
#include "chisimnet/sparse/adjacency.hpp"

/// The serial CSR build the library used before its parallel fill: labels
/// are the sorted unique ids, every triplet is compacted by binary search,
/// canonicalized to u < v, sorted and merged, and then one pass writes each
/// edge into both endpoints' rows at the rows' running cursors. Kept only
/// as a reference — graph_test requires Graph's offsets, neighbours,
/// weights and labels to equal it exactly for every worker count.

namespace chisimnet::graph::oracle {

struct Csr {
  std::vector<std::uint64_t> offsets;  ///< size n+1
  std::vector<Vertex> neighbors;
  std::vector<Weight> weights;
  std::vector<std::uint32_t> labels;
};

/// The serial fill: `edges` must be strictly (u, v)-ascending with u < v.
inline Csr fromSortedUpper(std::span<const Edge> edges,
                           std::vector<std::uint32_t> labels) {
  Csr csr;
  const std::size_t vertexCount = labels.size();
  csr.labels = std::move(labels);
  csr.offsets.assign(vertexCount + 1, 0);
  for (const Edge& edge : edges) {
    ++csr.offsets[edge.u + 1];
    ++csr.offsets[edge.v + 1];
  }
  for (std::size_t v = 1; v <= vertexCount; ++v) {
    csr.offsets[v] += csr.offsets[v - 1];
  }
  csr.neighbors.resize(edges.size() * 2);
  csr.weights.resize(edges.size() * 2);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const Edge& edge : edges) {
    csr.neighbors[cursor[edge.u]] = edge.v;
    csr.weights[cursor[edge.u]++] = edge.weight;
    csr.neighbors[cursor[edge.v]] = edge.u;
    csr.weights[cursor[edge.v]++] = edge.weight;
  }
  return csr;
}

/// The whole reference build: vertices are the `universe` labels when
/// given, else the triplets' endpoints. Any order, duplicate pairs summed.
inline Csr referenceCsr(std::span<const sparse::AdjacencyTriplet> triplets,
                        std::span<const std::uint32_t> universe = {}) {
  std::vector<std::uint32_t> labels(universe.begin(), universe.end());
  if (universe.empty()) {
    for (const sparse::AdjacencyTriplet& triplet : triplets) {
      labels.push_back(triplet.i);
      labels.push_back(triplet.j);
    }
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  const auto compact = [&labels](std::uint32_t label) {
    return static_cast<Vertex>(
        std::lower_bound(labels.begin(), labels.end(), label) -
        labels.begin());
  };
  std::vector<Edge> edges;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    const Vertex a = compact(triplet.i);
    const Vertex b = compact(triplet.j);
    edges.push_back(Edge{std::min(a, b), std::max(a, b), triplet.weight});
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& x, const Edge& y) {
                     return x.u != y.u ? x.u < y.u : x.v < y.v;
                   });
  std::vector<Edge> merged;
  for (const Edge& edge : edges) {
    if (!merged.empty() && merged.back().u == edge.u &&
        merged.back().v == edge.v) {
      merged.back().weight += edge.weight;
    } else {
      merged.push_back(edge);
    }
  }
  return fromSortedUpper(merged, std::move(labels));
}

}  // namespace chisimnet::graph::oracle

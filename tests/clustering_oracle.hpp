#pragma once

#include <cstdint>
#include <vector>

#include "chisimnet/graph/graph.hpp"

/// The merge-intersection clustering kernel the library used before
/// forward triangle listing: for every vertex, intersect its sorted row
/// with each neighbor's row, which finds every triangle six times and
/// costs Σ d² merge steps. Kept only as a reference — the kernel tests
/// require bit-identical coefficients from it, and bench_fig4_clustering
/// gates the library kernel's speed against it.

namespace chisimnet::graph::oracle {

/// Number of common neighbors of u and v (sorted-list intersection).
inline std::uint64_t sharedNeighbors(const Graph& graph, Vertex u, Vertex v) {
  const auto a = graph.neighbors(u);
  const auto b = graph.neighbors(v);
  std::uint64_t count = 0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

inline std::vector<double> mergeIntersectionClustering(const Graph& graph) {
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    if (degree < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (Vertex neighbor : graph.neighbors(v)) {
      closed += sharedNeighbors(graph, v, neighbor);
    }
    // Each triangle at v was counted twice (once per incident neighbor).
    const double triples = static_cast<double>(degree) *
                           static_cast<double>(degree - 1) / 2.0;
    coefficients[v] = static_cast<double>(closed) / 2.0 / triples;
  }
  return coefficients;
}

}  // namespace chisimnet::graph::oracle

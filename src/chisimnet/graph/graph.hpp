#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"

/// Undirected weighted graph in CSR form (the iGraph substitute).
///
/// The collocation network is built from the sparse triangular adjacency
/// matrix (paper §IV-V): vertices are persons, edge weights are collocated
/// person-hours. Vertex ids are compacted to [0, n); the original person ids
/// are retained as labels so analyses can join back to demographic data.
/// Neighbor lists are sorted by vertex id, which subgraph extraction and
/// edge lookups rely on.

namespace chisimnet::graph {

using Vertex = std::uint32_t;
using Weight = std::uint64_t;

/// An allocator whose value-initializing resize leaves plain integers
/// unwritten, so the parallel CSR fill, not a serial zero fill, is the
/// first to touch the pages.
template <class T>
struct UninitializedAllocator : std::allocator<T> {
  template <class U>
  void construct(U* at) noexcept {
    ::new (static_cast<void*>(at)) U;
  }
  template <class U, class... Args>
  void construct(U* at, Args&&... args) {
    ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
  }
};

struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight weight = 1;
};

class Graph {
 public:
  Graph() = default;

  /// Builds from upper-triangular adjacency triplets; vertex labels are the
  /// person ids appearing in the triplets, compacted in ascending order.
  /// Every pass runs on up to `workers` threads; the graph does not depend
  /// on `workers`.
  static Graph fromTriplets(
      std::span<const sparse::AdjacencyTriplet> triplets,
      unsigned workers = std::thread::hardware_concurrency());

  /// Same, but over an explicit vertex universe: `vertexLabels` lists every
  /// vertex (by original id) that must exist, including isolated ones;
  /// every triplet endpoint must be in the list. Strictly (i, j)-ascending
  /// triplets with i < j (the CADJ order) take a sort-free CSR fill; any
  /// other order is sorted and its duplicate pairs merged first.
  static Graph fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                            std::span<const std::uint32_t> vertexLabels);

  /// Builds from explicit edges over compact vertex ids [0, vertexCount).
  /// Parallel edges are merged by summing weights; self-loops are rejected.
  static Graph fromEdges(std::span<const Edge> edges, Vertex vertexCount);

  Vertex vertexCount() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t edgeCount() const noexcept { return neighbors_.size() / 2; }

  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[v], neighbors_.data() + offsets_[v + 1]};
  }
  std::span<const Weight> edgeWeights(Vertex v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  std::uint64_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// The whole CSR, for kernels that walk it directly: row v is
  /// [rowOffsets()[v], rowOffsets()[v + 1]) of allNeighbors() and
  /// allWeights(). rowOffsets() is empty for a default-built graph.
  std::span<const std::uint64_t> rowOffsets() const noexcept { return offsets_; }
  std::span<const Vertex> allNeighbors() const noexcept { return neighbors_; }
  std::span<const Weight> allWeights() const noexcept { return weights_; }

  /// Sum of all edge weights (each undirected edge counted once).
  Weight totalWeight() const noexcept;

  bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Weight of edge (u, v), or 0 when absent.
  Weight weightBetween(Vertex u, Vertex v) const noexcept;

  /// Original id (e.g. person id) of compact vertex v.
  std::uint32_t label(Vertex v) const { return labels_[v]; }
  std::span<const std::uint32_t> labels() const noexcept { return labels_; }

  /// Compact vertex for an original id, if present.
  std::optional<Vertex> vertexForLabel(std::uint32_t label) const noexcept;

  /// Approximate heap bytes of the CSR storage.
  std::size_t memoryBytes() const noexcept;

 private:
  /// Compacts strictly ascending upper triplets through the sorted unique
  /// `labels`, or, for any other order, sorts and merges them first.
  static Graph fromLabeled(std::span<const sparse::AdjacencyTriplet> triplets,
                           std::vector<std::uint32_t> labels, bool ascending,
                           unsigned workers);

  /// General path: canonicalizes, sorts and merges parallel edges.
  static Graph build(std::vector<Edge> edges, std::vector<std::uint32_t> labels,
                     unsigned workers);

  /// Fills the CSR (without labels) from rows whose compact endpoints are
  /// strictly ascending with u < v, on up to `workers` threads. Row x's
  /// entries arrive in input order, which is sorted: every (y, x) with
  /// y < x precedes every (x, z).
  template <class Row, class Compact>
  static Graph fillSortedUpper(std::span<const Row> rows,
                               const Compact& compact, std::size_t vertexCount,
                               unsigned workers);

  std::vector<std::uint64_t> offsets_;  ///< size n+1
  /// Both directions, sorted per row.
  std::vector<Vertex, UninitializedAllocator<Vertex>> neighbors_;
  std::vector<Weight, UninitializedAllocator<Weight>> weights_;
  std::vector<std::uint32_t> labels_;   ///< compact vertex -> original id (sorted)
};

}  // namespace chisimnet::graph

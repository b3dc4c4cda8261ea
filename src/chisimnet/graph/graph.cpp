#include "chisimnet/graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "chisimnet/util/error.hpp"

namespace chisimnet::graph {

namespace {

/// A dense label table costs 4 bytes per label up to the largest one. It
/// is used only when that range is within this many entries per input item
/// (triplet or listed label), so a hostile label cannot size the table.
constexpr std::uint64_t kDenseLabelsPerItem = 4;

bool denseLabelsFit(std::uint32_t maxLabel, std::uint64_t items) {
  return maxLabel < kDenseLabelsPerItem * items;
}

/// Maps original labels to compact vertex ids, their ranks in a sorted
/// unique label list: by dense table when the label range allows, by
/// binary search otherwise.
class LabelIndex {
 public:
  LabelIndex(std::span<const std::uint32_t> labels, std::uint64_t items)
      : labels_(labels) {
    if (!labels.empty() && denseLabelsFit(labels.back(), items)) {
      table_.assign(std::uint64_t{labels.back()} + 1, kAbsent);
      for (std::size_t k = 0; k < labels.size(); ++k) {
        table_[labels[k]] = static_cast<Vertex>(k);
      }
    }
  }

  Vertex operator()(std::uint32_t label) const {
    if (!table_.empty()) {
      const Vertex vertex = label < table_.size() ? table_[label] : kAbsent;
      CHISIM_REQUIRE(vertex != kAbsent,
                     "triplet endpoint missing from vertex label universe");
      return vertex;
    }
    const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
    CHISIM_REQUIRE(it != labels_.end() && *it == label,
                   "triplet endpoint missing from vertex label universe");
    return static_cast<Vertex>(it - labels_.begin());
  }

 private:
  static constexpr Vertex kAbsent = ~Vertex{0};
  std::span<const std::uint32_t> labels_;
  std::vector<Vertex> table_;
};

/// True for strictly (i, j)-ascending triplets with i < j: the order CADJ
/// files and SymmetricAdjacency::toTriplets produce. Such input has no
/// duplicate pairs and no self-loops.
bool strictlyAscendingUpper(
    std::span<const sparse::AdjacencyTriplet> triplets) {
  for (std::size_t k = 0; k < triplets.size(); ++k) {
    const sparse::AdjacencyTriplet& triplet = triplets[k];
    if (triplet.i >= triplet.j) {
      return false;
    }
    if (k > 0) {
      const sparse::AdjacencyTriplet& previous = triplets[k - 1];
      if (previous.i > triplet.i ||
          (previous.i == triplet.i && previous.j >= triplet.j)) {
        return false;
      }
    }
  }
  return true;
}

/// The sorted unique endpoint labels: marked in a dense table when the
/// label range allows, sorted otherwise.
std::vector<std::uint32_t> endpointLabels(
    std::span<const sparse::AdjacencyTriplet> triplets) {
  std::uint32_t maxLabel = 0;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    maxLabel = std::max({maxLabel, triplet.i, triplet.j});
  }
  std::vector<std::uint32_t> labels;
  if (denseLabelsFit(maxLabel, triplets.size())) {
    std::vector<std::uint8_t> seen(std::uint64_t{maxLabel} + 1, 0);
    for (const sparse::AdjacencyTriplet& triplet : triplets) {
      seen[triplet.i] = 1;
      seen[triplet.j] = 1;
    }
    for (std::uint64_t label = 0; label < seen.size(); ++label) {
      if (seen[label] != 0) {
        labels.push_back(static_cast<std::uint32_t>(label));
      }
    }
    return labels;
  }
  labels.reserve(triplets.size() * 2);
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    labels.push_back(triplet.i);
    labels.push_back(triplet.j);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

}  // namespace

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets) {
  return fromTriplets(triplets, endpointLabels(triplets));
}

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::span<const std::uint32_t> vertexLabels) {
  std::vector<std::uint32_t> labels(vertexLabels.begin(), vertexLabels.end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  const LabelIndex compact(labels, triplets.size() + labels.size());
  if (strictlyAscendingUpper(triplets)) {
    // Compaction is monotone, so the compact pairs stay strictly ascending.
    Graph graph = fromSortedUpper(
        triplets,
        [&compact](const sparse::AdjacencyTriplet& triplet) {
          return std::pair{compact(triplet.i), compact(triplet.j)};
        },
        labels.size());
    graph.labels_ = std::move(labels);
    return graph;
  }

  std::vector<Edge> edges;
  edges.reserve(triplets.size());
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    CHISIM_REQUIRE(triplet.i != triplet.j, "self-loop in adjacency triplets");
    edges.push_back(Edge{compact(triplet.i), compact(triplet.j), triplet.weight});
  }
  return build(std::move(edges), std::move(labels));
}

Graph Graph::fromEdges(std::span<const Edge> edges, Vertex vertexCount) {
  std::vector<std::uint32_t> labels(vertexCount);
  std::iota(labels.begin(), labels.end(), 0u);
  std::vector<Edge> copy(edges.begin(), edges.end());
  for (const Edge& edge : copy) {
    CHISIM_REQUIRE(edge.u < vertexCount && edge.v < vertexCount,
                   "edge endpoint out of range");
    CHISIM_REQUIRE(edge.u != edge.v, "self-loops are not supported");
  }
  return build(std::move(copy), std::move(labels));
}

Graph Graph::build(std::vector<Edge> edges, std::vector<std::uint32_t> labels) {
  // Canonicalize, sort and merge parallel edges in place.
  for (Edge& edge : edges) {
    if (edge.u > edge.v) {
      std::swap(edge.u, edge.v);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::size_t kept = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const Edge edge = edges[k];
    if (kept > 0 && edges[kept - 1].u == edge.u && edges[kept - 1].v == edge.v) {
      edges[kept - 1].weight += edge.weight;
    } else {
      edges[kept++] = edge;
    }
  }
  edges.resize(kept);

  Graph graph = fromSortedUpper(
      std::span<const Edge>(edges),
      [](const Edge& edge) { return std::pair{edge.u, edge.v}; },
      labels.size());
  graph.labels_ = std::move(labels);
  return graph;
}

template <class Row, class Endpoints>
Graph Graph::fromSortedUpper(std::span<const Row> rows,
                             const Endpoints& endpoints,
                             std::size_t vertexCount) {
  Graph graph;
  graph.offsets_.assign(vertexCount + 1, 0);
  for (const Row& row : rows) {
    const auto [u, v] = endpoints(row);
    ++graph.offsets_[u + 1];
    ++graph.offsets_[v + 1];
  }
  for (std::size_t v = 1; v <= vertexCount; ++v) {
    graph.offsets_[v] += graph.offsets_[v - 1];
  }
  graph.neighbors_.resize(rows.size() * 2);
  graph.weights_.resize(rows.size() * 2);
  std::vector<std::uint64_t> cursor(graph.offsets_.begin(),
                                    graph.offsets_.end() - 1);
  for (const Row& row : rows) {
    const auto [u, v] = endpoints(row);
    graph.neighbors_[cursor[u]] = v;
    graph.weights_[cursor[u]++] = row.weight;
    graph.neighbors_[cursor[v]] = u;
    graph.weights_[cursor[v]++] = row.weight;
  }
  return graph;
}

Weight Graph::totalWeight() const noexcept {
  Weight doubled = 0;
  for (Weight weight : weights_) {
    doubled += weight;
  }
  return doubled / 2;
}

bool Graph::hasEdge(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return false;
  }
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

Weight Graph::weightBetween(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return 0;
  }
  const auto row = neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) {
    return 0;
  }
  return edgeWeights(u)[static_cast<std::size_t>(it - row.begin())];
}

std::optional<Vertex> Graph::vertexForLabel(std::uint32_t label) const noexcept {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) {
    return std::nullopt;
  }
  return static_cast<Vertex>(it - labels_.begin());
}

std::size_t Graph::memoryBytes() const noexcept {
  return offsets_.size() * sizeof(std::uint64_t) +
         neighbors_.size() * sizeof(Vertex) + weights_.size() * sizeof(Weight) +
         labels_.size() * sizeof(std::uint32_t);
}

}  // namespace chisimnet::graph

#include "chisimnet/graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
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

/// The fewest rows a pass hands one thread: below this, starting the
/// thread costs more than the rows it takes.
constexpr std::uint64_t kMinRowsPerChunk = std::uint64_t{1} << 14;

/// [0, items) cut into `count` near-equal ranges: at most `maxChunks`, at
/// least one, none shorter than kMinRowsPerChunk when there are several.
struct Chunks {
  Chunks(std::uint64_t items, std::uint64_t maxChunks)
      : items(items),
        count(std::max<std::uint64_t>(
            1, std::min(maxChunks, items / kMinRowsPerChunk))) {}

  std::uint64_t begin(std::uint64_t chunk) const {
    return items * chunk / count;
  }
  std::uint64_t end(std::uint64_t chunk) const { return begin(chunk + 1); }

  std::uint64_t items;
  std::uint64_t count;
};

std::pair<std::uint32_t, std::uint32_t> endpoints(
    const sparse::AdjacencyTriplet& triplet) {
  return {triplet.i, triplet.j};
}

std::pair<Vertex, Vertex> endpoints(const Edge& edge) {
  return {edge.u, edge.v};
}

/// Whether the triplets are strictly (i, j)-ascending with i < j, the order
/// CADJ files and SymmetricAdjacency::toTriplets produce (no duplicate
/// pairs, no self-loops), and their largest endpoint label.
struct TripletScan {
  bool ascendingUpper = true;
  std::uint32_t maxLabel = 0;
};

TripletScan scanTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                         unsigned workers) {
  const Chunks chunks(triplets.size(), workers);
  std::vector<TripletScan> parts(chunks.count);
  runtime::parallelFor(chunks.count, workers, [&](std::uint64_t chunk) {
    TripletScan part;
    // Each chunk also checks its first row against the row before it.
    // Every upper key is above 0, so 0 admits any first row.
    std::uint64_t lastKey = 0;
    const std::uint64_t begin = chunks.begin(chunk);
    if (begin > 0) {
      lastKey = sparse::packPair(triplets[begin - 1].i, triplets[begin - 1].j);
    }
    for (std::uint64_t k = begin; k < chunks.end(chunk); ++k) {
      const sparse::AdjacencyTriplet& triplet = triplets[k];
      const std::uint64_t key = sparse::packPair(triplet.i, triplet.j);
      part.ascendingUpper &= triplet.i < triplet.j && key > lastKey;
      part.maxLabel = std::max({part.maxLabel, triplet.i, triplet.j});
      lastKey = key;
    }
    parts[chunk] = part;
  });
  TripletScan scan;
  for (const TripletScan& part : parts) {
    scan.ascendingUpper &= part.ascendingUpper;
    scan.maxLabel = std::max(scan.maxLabel, part.maxLabel);
  }
  return scan;
}

/// The sorted unique endpoint labels: marked in one shared dense table
/// when the label range allows, sorted otherwise.
std::vector<std::uint32_t> endpointLabels(
    std::span<const sparse::AdjacencyTriplet> triplets, std::uint32_t maxLabel,
    unsigned workers) {
  std::vector<std::uint32_t> labels;
  if (denseLabelsFit(maxLabel, triplets.size())) {
    std::vector<std::uint8_t> seen(std::uint64_t{maxLabel} + 1, 0);
    const auto mark = [&seen](std::uint32_t label) {
      // Test first: a label is stored once, then only read, so threads
      // share its cache line instead of trading it.
      std::atomic_ref<std::uint8_t> slot(seen[label]);
      if (slot.load(std::memory_order_relaxed) == 0) {
        slot.store(1, std::memory_order_relaxed);
      }
    };
    const Chunks chunks(triplets.size(), workers);
    runtime::parallelFor(chunks.count, workers, [&](std::uint64_t chunk) {
      for (std::uint64_t k = chunks.begin(chunk); k < chunks.end(chunk); ++k) {
        mark(triplets[k].i);
        mark(triplets[k].j);
      }
    });
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

/// Calls body(u, begin, end) for each run [begin, end) of rows in
/// [first, last) that share their first endpoint, u in compact form.
template <class Row, class Compact, class Body>
void forEachRun(std::span<const Row> rows, std::uint64_t first,
                std::uint64_t last, const Compact& compact, const Body& body) {
  while (first < last) {
    const auto head = endpoints(rows[first]).first;
    std::uint64_t stop = first + 1;
    while (stop < last && endpoints(rows[stop]).first == head) {
      ++stop;
    }
    body(compact(head), first, stop);
    first = stop;
  }
}

}  // namespace

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          unsigned workers) {
  const TripletScan scan = scanTriplets(triplets, workers);
  return fromLabeled(triplets,
                     endpointLabels(triplets, scan.maxLabel, workers),
                     scan.ascendingUpper, workers);
}

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::span<const std::uint32_t> vertexLabels) {
  const unsigned workers = std::thread::hardware_concurrency();
  std::vector<std::uint32_t> labels(vertexLabels.begin(), vertexLabels.end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return fromLabeled(triplets, std::move(labels),
                     scanTriplets(triplets, workers).ascendingUpper, workers);
}

Graph Graph::fromLabeled(std::span<const sparse::AdjacencyTriplet> triplets,
                         std::vector<std::uint32_t> labels, bool ascending,
                         unsigned workers) {
  const LabelIndex compact(labels, triplets.size() + labels.size());
  if (ascending) {
    // Compaction is monotone, so the compact pairs stay strictly ascending.
    Graph graph = fillSortedUpper(triplets, compact, labels.size(), workers);
    graph.labels_ = std::move(labels);
    return graph;
  }

  std::vector<Edge> edges;
  edges.reserve(triplets.size());
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    CHISIM_REQUIRE(triplet.i != triplet.j, "self-loop in adjacency triplets");
    edges.push_back(Edge{compact(triplet.i), compact(triplet.j), triplet.weight});
  }
  return build(std::move(edges), std::move(labels), workers);
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
  return build(std::move(copy), std::move(labels),
               std::thread::hardware_concurrency());
}

Graph Graph::build(std::vector<Edge> edges, std::vector<std::uint32_t> labels,
                   unsigned workers) {
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

  Graph graph = fillSortedUpper(
      std::span<const Edge>(edges), [](Vertex v) { return v; }, labels.size(),
      workers);
  graph.labels_ = std::move(labels);
  return graph;
}

template <class Row, class Compact>
Graph Graph::fillSortedUpper(std::span<const Row> rows, const Compact& compact,
                             std::size_t vertexCount, unsigned workers) {
  // A parallel transpose. Chunk c of the rows counts the entries it sends
  // to each CSR row x; after an exclusive scan over chunks, counts[c][x]
  // is where chunk c's first entry lands in row x. Row x's entries then
  // sit in input order, exactly as a serial fill leaves them. The counts
  // take chunks × n × 4 bytes, held to the neighbour array's 2m × 4 by
  // capping the chunks at 2m / n.
  const std::uint64_t n = vertexCount;
  const std::uint64_t m = rows.size();
  const Chunks chunks(m,
                      std::min<std::uint64_t>(workers, n == 0 ? 1 : 2 * m / n));
  std::vector<std::uint32_t, UninitializedAllocator<std::uint32_t>> counts(
      chunks.count * n);
  const auto countsOf = [&](std::uint64_t chunk) {
    return counts.data() + chunk * n;
  };
  runtime::parallelFor(chunks.count, workers, [&](std::uint64_t chunk) {
    std::uint32_t* const count = countsOf(chunk);
    std::fill(count, count + n, 0u);
    forEachRun(rows, chunks.begin(chunk), chunks.end(chunk), compact,
               [&](Vertex u, std::uint64_t first, std::uint64_t last) {
                 count[u] += static_cast<std::uint32_t>(last - first);
                 for (std::uint64_t k = first; k < last; ++k) {
                   ++count[compact(endpoints(rows[k]).second)];
                 }
               });
  });

  Graph graph;
  graph.offsets_.resize(n + 1);
  graph.offsets_[0] = 0;
  const Chunks columns(n, workers);
  runtime::parallelFor(columns.count, workers, [&](std::uint64_t block) {
    for (std::uint64_t x = columns.begin(block); x < columns.end(block); ++x) {
      // A row holds fewer than n < 2^32 entries, so every prefix fits.
      std::uint32_t degree = 0;
      for (std::uint64_t chunk = 0; chunk < chunks.count; ++chunk) {
        std::uint32_t& count = countsOf(chunk)[x];
        degree += std::exchange(count, degree);
      }
      graph.offsets_[x + 1] = degree;
    }
  });
  for (std::uint64_t x = 1; x <= n; ++x) {
    graph.offsets_[x] += graph.offsets_[x - 1];
  }

  graph.neighbors_.resize(2 * m);
  graph.weights_.resize(2 * m);
  const std::uint64_t* const offsets = graph.offsets_.data();
  Vertex* const neighbors = graph.neighbors_.data();
  Weight* const weights = graph.weights_.data();
  runtime::parallelFor(chunks.count, workers, [&](std::uint64_t chunk) {
    std::uint32_t* const cursor = countsOf(chunk);
    forEachRun(
        rows, chunks.begin(chunk), chunks.end(chunk), compact,
        [&](Vertex u, std::uint64_t first, std::uint64_t last) {
          // Row u's part of this run is contiguous. No later row of the
          // chunk reaches row u, so its cursor needs no update.
          std::uint64_t upper = offsets[u] + cursor[u];
          for (std::uint64_t k = first; k < last; ++k) {
            const Vertex v = compact(endpoints(rows[k]).second);
            const Weight weight = rows[k].weight;
            neighbors[upper] = v;
            weights[upper++] = weight;
            const std::uint64_t lower = offsets[v] + cursor[v]++;
            neighbors[lower] = u;
            weights[lower] = weight;
          }
        });
  });
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

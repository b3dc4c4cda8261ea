#include "chisimnet/sparse/adjacency.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <utility>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

std::size_t SymmetricAdjacency::shardIndex(std::uint32_t id) const noexcept {
  // Shards are id-ascending and unique, so shards_[k].id >= k: when every
  // shard below `id` is populated (the usual dense id range) the shard sits
  // at index `id` and the search is skipped.
  if (id < shards_.size() && shards_[id].id == id) {
    return id;
  }
  return static_cast<std::size_t>(
      std::lower_bound(shards_.begin(), shards_.end(), id,
                       [](const Shard& shard, std::uint32_t value) {
                         return shard.id < value;
                       }) -
      shards_.begin());
}

PairCountMap& SymmetricAdjacency::shardFor(std::uint32_t low) {
  const std::uint32_t id = low >> kShardRowBits;
  const std::size_t k = shardIndex(id);
  if (k == shards_.size() || shards_[k].id != id) {
    shards_.insert(shards_.begin() + static_cast<std::ptrdiff_t>(k),
                   Shard{id, PairCountMap(0)});
  }
  return shards_[k].pairs;
}

const PairCountMap* SymmetricAdjacency::findShard(
    std::uint32_t low) const noexcept {
  const std::uint32_t id = low >> kShardRowBits;
  const std::size_t k = shardIndex(id);
  return k < shards_.size() && shards_[k].id == id ? &shards_[k].pairs
                                                    : nullptr;
}

void SymmetricAdjacency::add(std::uint32_t i, std::uint32_t j,
                             std::uint64_t weight) {
  CHISIM_REQUIRE(i != j, "self-collocation is not an edge");
  if (weight == 0) {
    return;
  }
  const std::uint64_t key = packPair(i, j);
  shardFor(pairLow(key)).add(key, weight);
}

void SymmetricAdjacency::addAll(TripletSource& source) {
  // Rows are buffered while they stay in one shard, then the shard is
  // sized for all of them at once.
  std::vector<AdjacencyTriplet> pending;
  const auto flush = [this, &pending]() {
    if (pending.empty()) {
      return;
    }
    PairCountMap& pairs = shardFor(pending.front().i);
    pairs.reserve(pairs.size() + pending.size());
    for (const AdjacencyTriplet& triplet : pending) {
      pairs.add(packPair(triplet.i, triplet.j), triplet.weight);
    }
    pending.clear();
  };
  AdjacencyTriplet triplet;
  while (source.next(triplet)) {
    CHISIM_REQUIRE(triplet.i < triplet.j,
                   "triplets must be upper-triangular (i < j)");
    if (triplet.weight == 0) {
      continue;
    }
    if (!pending.empty() &&
        (pending.front().i >> kShardRowBits) != (triplet.i >> kShardRowBits)) {
      flush();
    }
    pending.push_back(triplet);
  }
  flush();
}

void SymmetricAdjacency::merge(const SymmetricAdjacency& other) {
  for (const Shard& shard : other.shards_) {
    shardFor(shard.id << kShardRowBits).merge(shard.pairs);
  }
  kernelStats_.merge(other.kernelStats_);
}

void SymmetricAdjacency::absorb(std::span<SymmetricAdjacency> sums,
                                unsigned workers) {
  // Every table holding rows of each shard id: this adjacency's own and
  // each sum's.
  std::map<std::uint32_t, std::vector<PairCountMap*>> tablesById;
  const auto collect = [&tablesById](SymmetricAdjacency& from) {
    for (Shard& shard : from.shards_) {
      tablesById[shard.id].push_back(&shard.pairs);
    }
  };
  collect(*this);
  for (SymmetricAdjacency& sum : sums) {
    collect(sum);
  }
  std::vector<Shard> folded;
  std::vector<std::vector<PairCountMap*>> parts;
  std::vector<std::uint64_t> rows;
  for (auto& [id, tables] : tablesById) {
    folded.push_back(Shard{id, PairCountMap(0)});
    rows.push_back(0);
    for (const PairCountMap* table : tables) {
      rows.back() += table->size();
    }
    parts.push_back(std::move(tables));
  }

  // Largest shards first, so the longest folds start earliest.
  std::vector<std::size_t> order(folded.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&rows](std::size_t a, std::size_t b) {
                     return rows[a] > rows[b];
                   });
  runtime::parallelFor(order.size(), std::max(1u, workers),
                       [&](std::uint64_t n) {
    const std::size_t k = order[n];
    std::vector<PairCountMap*>& tables = parts[k];
    // The largest table becomes the result by move; the others are added
    // into it, the result sized once for the (upper bound) union, and each
    // is freed as soon as it is added.
    std::iter_swap(tables.begin(),
                   std::max_element(tables.begin(), tables.end(),
                                    [](const PairCountMap* a,
                                       const PairCountMap* b) {
                                      return a->size() < b->size();
                                    }));
    PairCountMap& result = folded[k].pairs;
    result = std::move(*tables.front());
    result.reserve(static_cast<std::size_t>(rows[k]));
    for (std::size_t t = 1; t < tables.size(); ++t) {
      result.merge(*tables[t]);
      const PairCountMap released = std::move(*tables[t]);
    }
  });
  shards_ = std::move(folded);
  for (SymmetricAdjacency& sum : sums) {
    kernelStats_.merge(sum.kernelStats_);
    sum = SymmetricAdjacency();
  }
}

std::uint64_t SymmetricAdjacency::weight(std::uint32_t i,
                                         std::uint32_t j) const noexcept {
  if (i == j) {
    return 0;
  }
  const std::uint64_t key = packPair(i, j);
  const PairCountMap* pairs = findShard(pairLow(key));
  return pairs == nullptr ? 0 : pairs->get(key);
}

std::uint64_t SymmetricAdjacency::edgeCount() const noexcept {
  std::uint64_t edges = 0;
  for (const Shard& shard : shards_) {
    edges += shard.pairs.size();
  }
  return edges;
}

std::size_t SymmetricAdjacency::memoryBytes() const noexcept {
  std::size_t bytes = shards_.capacity() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    bytes += shard.pairs.memoryBytes();
  }
  return bytes;
}

namespace {

/// Counting-sort transpose of the per-person CSR into per-hour row lists.
/// Rows within a column come out ascending (rows are visited in order),
/// which the local-coordinate kernel relies on to keep pairs (a,b) with
/// a < b without re-sorting.
struct ColumnIndex {
  std::vector<std::uint64_t> offsets;  ///< sliceHours+1 prefix sums
  std::vector<std::uint32_t> rows;     ///< local rows, ascending per column
  std::uint64_t pairHours = 0;         ///< Σ_h c_h(c_h-1)/2, exact
};

ColumnIndex buildColumnIndex(const CollocationMatrix& matrix) {
  ColumnIndex index;
  const std::size_t personCount = matrix.personCount();
  index.offsets.assign(matrix.sliceHours() + 1, 0);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (std::uint32_t hour : matrix.hoursAt(row)) {
      ++index.offsets[hour + 1];
    }
  }
  for (std::size_t h = 1; h < index.offsets.size(); ++h) {
    const std::uint64_t columnSize = index.offsets[h];
    index.pairHours += columnSize * (columnSize - 1) / 2;
    index.offsets[h] += index.offsets[h - 1];
  }
  index.rows.resize(matrix.nnz());
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (std::uint32_t hour : matrix.hoursAt(row)) {
      index.rows[cursor[hour]++] = static_cast<std::uint32_t>(row);
    }
  }
  return index;
}

// Dense/hash crossover for the local-coordinate kernel. The flat triangular
// array is used only when it fits the thread-local scratch buffer AND the
// emit scan over every slot is bounded by a small multiple of the update
// work actually done (pairSlots can dwarf pairHours at short slices).
// The choice is a pure function of the matrix, so results stay
// deterministic across partitions, workers and backends.
constexpr std::uint64_t kDenseMaxPairs = std::uint64_t{1} << 22;
constexpr std::uint64_t kDenseScanFactor = 8;
constexpr std::size_t kLocalHashMaxReserve = std::size_t{1} << 20;

bool useDenseLocalPath(std::uint64_t pairSlots,
                       std::uint64_t pairHours) noexcept {
  return pairSlots <= kDenseMaxPairs &&
         pairSlots <= kDenseScanFactor * pairHours;
}

}  // namespace

// Local-coordinate kernel: accumulate this place's pairs keyed by local row
// indices, then emit each distinct pair into the global map exactly once.
// The inner loop becomes an array increment (dense) or a probe of a
// cache-resident local table (hash) instead of a global hash insert per
// pair-hour.
void SymmetricAdjacency::addCollocation(const CollocationMatrix& matrix) {
  // Every pair lands in the shard of its low id.
  const auto emit = [this](std::uint64_t key, std::uint64_t weight) {
    shardFor(pairLow(key)).add(key, weight);
  };
  const std::uint64_t p = matrix.personCount();
  if (p < 2) {
    return;
  }
  const ColumnIndex index = buildColumnIndex(matrix);
  if (index.pairHours == 0) {
    return;
  }
  kernelStats_.pairHourUpdates += index.pairHours;
  const std::uint64_t pairSlots = p * (p - 1) / 2;
  if (useDenseLocalPath(pairSlots, index.pairHours)) {
    ++kernelStats_.densePlaces;
    // Scratch persists across places; invariant: all-zero outside this
    // scope (the emit loop clears every slot it touched, and assign()
    // zero-fills on growth).
    thread_local std::vector<std::uint32_t> scratch;
    if (scratch.size() < pairSlots) {
      scratch.assign(static_cast<std::size_t>(pairSlots), 0);
    }
    for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
      const std::uint64_t begin = index.offsets[hour];
      const std::uint64_t end = index.offsets[hour + 1];
      for (std::uint64_t a = begin; a < end; ++a) {
        const std::uint64_t ra = index.rows[a];
        // Upper-triangular flattening: slot(ra,rb) = rowBase + rb for
        // ra < rb, with rows ascending within the column. Counts cannot
        // overflow uint32: each hour contributes at most 1 and the slice
        // hour count is itself a uint32.
        const std::uint64_t rowBase = ra * (2 * p - ra - 1) / 2 - ra - 1;
        for (std::uint64_t b = a + 1; b < end; ++b) {
          ++scratch[static_cast<std::size_t>(rowBase + index.rows[b])];
        }
      }
    }
    for (std::uint64_t ra = 0; ra + 1 < p; ++ra) {
      const std::uint64_t rowBase = ra * (2 * p - ra - 1) / 2 - ra - 1;
      const table::PersonId personA =
          matrix.personAt(static_cast<std::size_t>(ra));
      for (std::uint64_t rb = ra + 1; rb < p; ++rb) {
        std::uint32_t& slot = scratch[static_cast<std::size_t>(rowBase + rb)];
        if (slot != 0) {
          emit(packPair(personA,
                        matrix.personAt(static_cast<std::size_t>(rb))),
               slot);
          slot = 0;
          ++kernelStats_.globalEmits;
        }
      }
    }
  } else {
    ++kernelStats_.hashPlaces;
    PairCountMap local(static_cast<std::size_t>(
        std::min({index.pairHours, pairSlots,
                  static_cast<std::uint64_t>(kLocalHashMaxReserve)})));
    for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
      const std::uint64_t begin = index.offsets[hour];
      const std::uint64_t end = index.offsets[hour + 1];
      for (std::uint64_t a = begin; a < end; ++a) {
        const std::uint64_t ra = index.rows[a];
        for (std::uint64_t b = a + 1; b < end; ++b) {
          // ra < rows[b] within a column, so the key is already canonical.
          local.add((ra << 32) | index.rows[b], 1);
        }
      }
    }
    for (const auto& [key, count] : local.entries()) {
      emit(packPair(matrix.personAt(pairLow(key)),
                    matrix.personAt(pairHigh(key))),
           count);
    }
    kernelStats_.globalEmits += local.size();
  }
}

namespace {

/// Writes one shard's rows to `out` (exactly pairs.size() long) sorted by
/// (i, j): a counting sort on the shard's 2^kShardRowBits low ids, then a
/// sort of each row's few entries by j. O(n) plus small in-cache sorts,
/// where a whole-shard comparison sort would be O(n log n) over DRAM.
void extractSortedShard(std::uint32_t shardId, const PairCountMap& pairs,
                        std::span<AdjacencyTriplet> out) {
  constexpr std::size_t kRows = std::size_t{1}
                                << SymmetricAdjacency::kShardRowBits;
  const std::uint32_t base = shardId << SymmetricAdjacency::kShardRowBits;
  std::vector<std::size_t> cursor(kRows + 1, 0);
  pairs.forEach([&](std::uint64_t key, std::uint64_t) {
    ++cursor[pairLow(key) - base + 1];
  });
  for (std::size_t row = 1; row <= kRows; ++row) {
    cursor[row] += cursor[row - 1];
  }
  pairs.forEach([&](std::uint64_t key, std::uint64_t count) {
    out[cursor[pairLow(key) - base]++] =
        AdjacencyTriplet{pairLow(key), pairHigh(key), count};
  });
  // cursor[row] now holds the end of `row`, i.e. the start of row + 1.
  std::size_t begin = 0;
  for (std::size_t row = 0; row < kRows; ++row) {
    const std::size_t end = cursor[row];
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
              out.begin() + static_cast<std::ptrdiff_t>(end),
              [](const AdjacencyTriplet& a, const AdjacencyTriplet& b) {
                return a.j < b.j;
              });
    begin = end;
  }
}

}  // namespace

std::vector<AdjacencyTriplet> SymmetricAdjacency::toTriplets(
    unsigned workers) const {
  std::vector<std::size_t> offsets(shards_.size() + 1, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    offsets[s + 1] = offsets[s] + shards_[s].pairs.size();
  }
  std::vector<AdjacencyTriplet> triplets(offsets.back());
  runtime::parallelFor(shards_.size(), std::max(1u, workers),
                       [&](std::uint64_t s) {
    extractSortedShard(
        shards_[s].id, shards_[s].pairs,
        std::span(triplets).subspan(offsets[s], offsets[s + 1] - offsets[s]));
  });
  return triplets;
}

void SymmetricAdjacency::forEachSortedShard(
    unsigned workers,
    const std::function<void(std::size_t, std::span<const AdjacencyTriplet>)>&
        visit) const {
  workers = std::max(1u, workers);
  std::vector<std::vector<AdjacencyTriplet>> scratch(workers);
  runtime::parallelForSlots(
      shards_.size(), workers, [&](std::uint64_t s, unsigned slot) {
        std::vector<AdjacencyTriplet>& rows = scratch[slot];
        rows.resize(shards_[s].pairs.size());
        extractSortedShard(shards_[s].id, shards_[s].pairs, rows);
        visit(static_cast<std::size_t>(s), rows);
      });
}

std::vector<AdjacencyTriplet> mergeSortedTriplets(
    std::span<const AdjacencyTriplet> a, std::span<const AdjacencyTriplet> b) {
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(a.size() + b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const std::uint64_t keyA = packPair(a[ia].i, a[ia].j);
    const std::uint64_t keyB = packPair(b[ib].i, b[ib].j);
    if (keyA < keyB) {
      merged.push_back(a[ia++]);
    } else if (keyB < keyA) {
      merged.push_back(b[ib++]);
    } else {
      merged.push_back(
          AdjacencyTriplet{a[ia].i, a[ia].j, a[ia].weight + b[ib].weight});
      ++ia;
      ++ib;
    }
  }
  merged.insert(merged.end(), a.begin() + ia, a.end());
  merged.insert(merged.end(), b.begin() + ib, b.end());
  return merged;
}

namespace {

/// Exhausted-leaf sentinel. Real packed keys satisfy i < j, so the key of a
/// legitimate triplet is at most ((2^32-2) << 32) | (2^32-1) < ~0.
constexpr std::uint64_t kExhaustedKey = ~std::uint64_t{0};

}  // namespace

TripletMerger::TripletMerger(std::vector<TripletSource*> sources)
    : sources_(std::move(sources)) {
  for (const TripletSource* source : sources_) {
    expected_ += source->sizeHint();
  }
  start(sources_.size());
}

TripletMerger::TripletMerger(
    std::vector<std::unique_ptr<TripletSource>> sources)
    : owned_(std::move(sources)) {
  sources_.reserve(owned_.size());
  for (const std::unique_ptr<TripletSource>& source : owned_) {
    sources_.push_back(source.get());
    expected_ += source->sizeHint();
  }
  start(sources_.size());
}

void TripletMerger::start(std::size_t sourceCount) {
  if (sourceCount == 0) {
    leafCount_ = 0;
    return;
  }
  leafCount_ = std::bit_ceil(sourceCount);
  heads_.resize(leafCount_);
  keys_.assign(leafCount_, kExhaustedKey);
  for (std::size_t leaf = 0; leaf < sourceCount; ++leaf) {
    if (sources_[leaf]->next(heads_[leaf])) {
      keys_[leaf] = packPair(heads_[leaf].i, heads_[leaf].j);
    }
  }
  // Initial tournament, bottom-up: internal node n holds the LOSER of the
  // match between its subtrees; the winner carries upward. Leaf `l` sits at
  // tree position leafCount_ + l; internal nodes are 1..leafCount_-1.
  losers_.assign(leafCount_, 0);
  std::vector<std::size_t> winners(2 * leafCount_);
  for (std::size_t leaf = 0; leaf < leafCount_; ++leaf) {
    winners[leafCount_ + leaf] = leaf;
  }
  for (std::size_t node = leafCount_ - 1; node >= 1; --node) {
    const std::size_t a = winners[2 * node];
    const std::size_t b = winners[2 * node + 1];
    if (keyOf(a) <= keyOf(b)) {
      winners[node] = a;
      losers_[node] = b;
    } else {
      winners[node] = b;
      losers_[node] = a;
    }
  }
  winner_ = winners[1];
}

void TripletMerger::advance(std::size_t leaf) {
  const std::uint64_t previous = keys_[leaf];
  if (sources_[leaf]->next(heads_[leaf])) {
    keys_[leaf] = packPair(heads_[leaf].i, heads_[leaf].j);
    CHISIM_CHECK(keys_[leaf] > previous,
                 "merge source is not strictly key-ascending (corrupt or "
                 "unsorted run)");
  } else {
    keys_[leaf] = kExhaustedKey;
  }
}

void TripletMerger::replay(std::size_t leaf) {
  // Replay the matches on the path from `leaf` to the root: at each node
  // the stored loser challenges the carried winner.
  std::size_t current = leaf;
  for (std::size_t node = (leafCount_ + leaf) / 2; node >= 1; node /= 2) {
    if (keyOf(losers_[node]) < keyOf(current)) {
      std::swap(losers_[node], current);
    }
  }
  winner_ = current;
}

bool TripletMerger::next(AdjacencyTriplet& out) {
  if (leafCount_ == 0 || keys_[winner_] == kExhaustedKey) {
    return false;
  }
  const std::uint64_t key = keys_[winner_];
  out = heads_[winner_];
  advance(winner_);
  replay(winner_);
  // Sources are strictly ascending individually, so every further head with
  // the same key is a duplicate pair from another source: sum it in.
  while (keys_[winner_] == key) {
    out.weight += heads_[winner_].weight;
    advance(winner_);
    replay(winner_);
  }
  return true;
}

std::vector<AdjacencyTriplet> mergeKSortedTriplets(
    std::span<const std::span<const AdjacencyTriplet>> runs) {
  std::vector<SpanTripletSource> spanSources;
  spanSources.reserve(runs.size());
  std::size_t total = 0;
  for (const std::span<const AdjacencyTriplet> run : runs) {
    spanSources.emplace_back(run);
    total += run.size();
  }
  std::vector<TripletSource*> sources;
  sources.reserve(spanSources.size());
  for (SpanTripletSource& source : spanSources) {
    sources.push_back(&source);
  }
  TripletMerger merger(std::move(sources));
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(total);
  AdjacencyTriplet triplet;
  while (merger.next(triplet)) {
    merged.push_back(triplet);
  }
  return merged;
}

SymmetricAdjacency adjacencyFromCollocations(
    std::span<const CollocationMatrix> matrices) {
  SymmetricAdjacency adjacency;
  for (const CollocationMatrix& matrix : matrices) {
    adjacency.addCollocation(matrix);
  }
  return adjacency;
}

}  // namespace chisimnet::sparse

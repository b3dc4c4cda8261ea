#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
#include "chisimnet/table/event.hpp"

/// The sparse symmetric collocation adjacency matrix A = Σ_l x_l·x_lᵀ
/// (paper §IV). Off-diagonal entries only: A(i,j) is the number of
/// person-hours i and j spent collocated. The matrix is stored as its upper
/// triangle (i < j), exactly as the paper stores the triangular sparse
/// matrix in R, via row-range shards of pair-count hash maps while
/// accumulating and as sorted triplets once finalized.

namespace chisimnet::sparse {

/// How a per-place adjacency contribution x·xᵀ is computed.
enum class AdjacencyMethod {
  /// Faithful to the paper's math: for every time column, add 1 to every
  /// pair of persons present in that column (sparse column outer products).
  kSpGemm,
  /// Optimized equivalent: for every pair of persons at the place, the
  /// weight is the size of the sorted intersection of their hour lists.
  kIntervalIntersection,
  /// Local-coordinate accumulator: pair counts are gathered per place in
  /// local row coordinates (a flat upper-triangular uint32 array for
  /// small/medium places, a compact local hash for hubs) and emitted into
  /// the global map once per distinct pair instead of once per pair-hour.
  kLocalAccumulate,
};

/// Diagnostic counters from the local-coordinate kernel, folded through
/// stage 6 alongside the weights (not part of the matrix value).
struct AdjacencyKernelStats {
  std::uint64_t densePlaces = 0;     ///< places on the triangular-array path
  std::uint64_t hashPlaces = 0;      ///< places on the local-hash path
  std::uint64_t pairHourUpdates = 0; ///< local increments performed
  std::uint64_t globalEmits = 0;     ///< distinct pairs pushed to the map
  /// Entries pre-reserved in merge-fed containers from the summed per-run
  /// row counts (TripletMerger::expectedTriplets), so the hot merge loop
  /// never pays rehash/regrow churn.
  std::uint64_t mergeReservedEntries = 0;

  void merge(const AdjacencyKernelStats& other) noexcept {
    densePlaces += other.densePlaces;
    hashPlaces += other.hashPlaces;
    pairHourUpdates += other.pairHourUpdates;
    globalEmits += other.globalEmits;
    mergeReservedEntries += other.mergeReservedEntries;
  }
};

struct AdjacencyTriplet {
  std::uint32_t i = 0;  ///< lower person id
  std::uint32_t j = 0;  ///< higher person id
  std::uint64_t weight = 0;

  friend auto operator<=>(const AdjacencyTriplet&, const AdjacencyTriplet&) =
      default;
};

class TripletSource;

/// The upper triangle is held as row-range shards: pair (i, j), i < j,
/// lives in shard i >> kShardRowBits, one PairCountMap per populated
/// shard, kept in ascending shard order. Shards own disjoint ascending key
/// ranges, so every whole-matrix operation splits into independent
/// per-shard work: stage 6 folds worker sums shard by shard in parallel,
/// and the sorted export is the ordered concatenation of per-shard sorts.
/// Storage grows with populated shards only, never with the id range.
class SymmetricAdjacency {
 public:
  /// Rows per shard: 2^11. Small enough that a 100 k-person network has
  /// ~50 shards to balance over 4 workers, large enough that the shard
  /// lookup on the stage-5 insert path stays in L1.
  static constexpr unsigned kShardRowBits = 11;

  /// Adds `weight` collocation hours between distinct persons i and j.
  void add(std::uint32_t i, std::uint32_t j, std::uint64_t weight);

  /// Adds every triplet of `source`. An (i, j)-sorted source delivers each
  /// shard's rows together, so each shard table is sized once for them
  /// instead of regrowing; any order is summed correctly.
  void addAll(TripletSource& source);

  /// Accumulates one place's x·xᵀ contribution.
  void addCollocation(
      const CollocationMatrix& matrix,
      AdjacencyMethod method = AdjacencyMethod::kLocalAccumulate);

  /// Sums another adjacency into this one (matrix addition), serially.
  void merge(const SymmetricAdjacency& other);

  /// Stage 6: sums every adjacency in `sums` into this one. Shard s of the
  /// result absorbs shard s of every sum, the shards folded concurrently
  /// on up to `workers` threads; each input shard is freed as soon as it
  /// is folded. Leaves every element of `sums` empty.
  void absorb(std::span<SymmetricAdjacency> sums,
              unsigned workers = std::thread::hardware_concurrency());

  /// Collocation hours between i and j (0 when never collocated).
  std::uint64_t weight(std::uint32_t i, std::uint32_t j) const noexcept;

  /// Number of stored (i<j) edges.
  std::uint64_t edgeCount() const noexcept;

  /// Populated row-range shards.
  std::size_t shardCount() const noexcept { return shards_.size(); }

  std::size_t memoryBytes() const noexcept;

  const AdjacencyKernelStats& kernelStats() const noexcept {
    return kernelStats_;
  }

  /// Folds externally gathered kernel counters in (used when triplets and
  /// stats travel separately, e.g. over the message-passing wire).
  void addKernelStats(const AdjacencyKernelStats& stats) noexcept {
    kernelStats_.merge(stats);
  }

  /// Upper-triangular triplets sorted by (i, j); deterministic output. The
  /// shards are extracted and sorted concurrently on up to `workers`
  /// threads, each straight into its slice of the result.
  std::vector<AdjacencyTriplet> toTriplets(
      unsigned workers = std::thread::hardware_concurrency()) const;

  /// Calls visit(s, rows) once per populated shard s in [0, shardCount()),
  /// with that shard's rows sorted by (i, j). Concatenating the calls in
  /// ascending s gives toTriplets(). Calls run concurrently on up to
  /// `workers` threads (never two for the same s); `rows` is valid only
  /// during the call.
  void forEachSortedShard(
      unsigned workers,
      const std::function<void(std::size_t, std::span<const AdjacencyTriplet>)>&
          visit) const;

 private:
  struct Shard {
    std::uint32_t id = 0;  ///< low id >> kShardRowBits
    PairCountMap pairs;
  };

  /// Index of shard `id` in shards_, or where it would be inserted.
  std::size_t shardIndex(std::uint32_t id) const noexcept;
  /// The shard holding rows with low id `low`, created empty if absent.
  PairCountMap& shardFor(std::uint32_t low);
  const PairCountMap* findShard(std::uint32_t low) const noexcept;

  std::vector<Shard> shards_;  ///< ascending id, populated shards only
  AdjacencyKernelStats kernelStats_;
};

/// Merges two (i,j)-sorted triplet runs into one sorted run, summing the
/// weights of equal pairs: no hash table is rebuilt, just a two-pointer
/// walk.
std::vector<AdjacencyTriplet> mergeSortedTriplets(
    std::span<const AdjacencyTriplet> a, std::span<const AdjacencyTriplet> b);

/// A pull stream of (i,j)-sorted triplets with strictly increasing packed
/// keys. The unit the external-memory merge composes over: in-memory runs,
/// spill-run files (sparse/spill.hpp), and merger outputs all speak it.
class TripletSource {
 public:
  virtual ~TripletSource() = default;

  /// Fills `out` with the next triplet; false once the stream is exhausted
  /// (and on every call after that).
  virtual bool next(AdjacencyTriplet& out) = 0;

  /// Upper bound on the rows this source will deliver, when cheaply known
  /// (an in-memory run's size, a spill run's header count); 0 = unknown.
  /// Consumers use the summed hints to pre-reserve output capacity.
  virtual std::uint64_t sizeHint() const noexcept { return 0; }
};

/// TripletSource over an in-memory sorted run (non-owning view).
class SpanTripletSource final : public TripletSource {
 public:
  explicit SpanTripletSource(std::span<const AdjacencyTriplet> run)
      : run_(run) {}
  bool next(AdjacencyTriplet& out) override {
    if (cursor_ >= run_.size()) {
      return false;
    }
    out = run_[cursor_++];
    return true;
  }
  std::uint64_t sizeHint() const noexcept override { return run_.size(); }

 private:
  std::span<const AdjacencyTriplet> run_;
  std::size_t cursor_ = 0;
};

/// K-way generalization of mergeSortedTriplets: a loser-tree tournament
/// over k sorted sources, emitting one strictly key-ascending stream with
/// the weights of pairs that appear in several sources summed. Each next()
/// costs O(log k) comparisons and replays only the path from the winning
/// leaf to the root, so merging spilled runs streams through bounded
/// buffers instead of materializing them. Sources must be strictly
/// ascending (a run never repeats a key); the merger validates that and
/// rejects mis-ordered input rather than emitting a corrupt sum.
class TripletMerger final : public TripletSource {
 public:
  /// Non-owning: the sources must outlive the merger.
  explicit TripletMerger(std::vector<TripletSource*> sources);
  /// Owning variant for composed pipelines (file readers feeding a merge).
  explicit TripletMerger(std::vector<std::unique_ptr<TripletSource>> sources);

  bool next(AdjacencyTriplet& out) override;

  /// Sum of the sources' sizeHint()s: an upper bound on the merged row
  /// count (duplicate keys collapse), taken before any rows are pulled.
  /// Callers reserve output capacity from it instead of regrowing.
  std::uint64_t expectedTriplets() const noexcept { return expected_; }
  std::uint64_t sizeHint() const noexcept override { return expected_; }

 private:
  void start(std::size_t sourceCount);
  void advance(std::size_t leaf);
  void replay(std::size_t leaf);
  std::uint64_t keyOf(std::size_t leaf) const noexcept { return keys_[leaf]; }

  std::vector<TripletSource*> sources_;
  std::vector<std::unique_ptr<TripletSource>> owned_;
  std::vector<AdjacencyTriplet> heads_;  ///< current head per leaf
  std::vector<std::uint64_t> keys_;      ///< packed key per leaf (sentinel on EOF)
  std::vector<std::size_t> losers_;      ///< internal tournament nodes
  std::size_t leafCount_ = 0;            ///< sources padded to a power of two
  std::size_t winner_ = 0;
  std::uint64_t expected_ = 0;           ///< Σ source sizeHint() at start
};

/// Convenience for tests and in-memory reductions: k-way merge of sorted
/// runs via TripletMerger, materialized.
std::vector<AdjacencyTriplet> mergeKSortedTriplets(
    std::span<const std::span<const AdjacencyTriplet>> runs);

/// Accumulates every matrix in `matrices` into a fresh adjacency.
SymmetricAdjacency adjacencyFromCollocations(
    std::span<const CollocationMatrix> matrices,
    AdjacencyMethod method = AdjacencyMethod::kLocalAccumulate);

}  // namespace chisimnet::sparse

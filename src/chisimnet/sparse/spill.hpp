#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"

/// Memory-bounded adjacency accumulation: disk-spilled sorted runs and the
/// row-range-sharded accumulator that produces them (paper-scale unlock —
/// the full 2.9 M-person Chicago week needs more accumulator memory than a
/// single box has, so the accumulator spills CRC-framed sorted runs and
/// stage 6 finishes with an external k-way merge, sparse/adjacency.hpp's
/// TripletMerger).
///
/// Spill-run container (CSPL1):
///   header  magic "CSPL" | version u32 | tripletCount u64 (patched last)
///   frames  [count u32][crc32 u32][count × 16-byte triplet rows]*
/// Runs are written to `<path>.tmp` and renamed into place when complete —
/// the same crash-safe tmp+rename idiom as the checkpoint manifest — so a
/// run file that exists under its real name is always whole. Each frame
/// carries its own CRC, so the reader streams through one bounded buffer
/// and still rejects a torn or bit-flipped frame with the file and byte
/// offset in the error.
///
/// Fault sites: "spill.write" fires in SpillRunWriter::finish() before the
/// rename (a kThrow models a crash mid-spill, leaving the .tmp orphan);
/// "spill.merge" fires before each intermediate pass of an owner's shard
/// merge (mergeShardRuns).

namespace chisimnet::sparse {

/// Largest number of triplets per CRC frame (64 Ki rows = 1 MiB payload):
/// the unit of both the writer's buffering and the reader's resident
/// window.
inline constexpr std::size_t kSpillFrameTriplets = std::size_t{1} << 16;

/// A completed on-disk sorted run.
struct SpillRunInfo {
  std::filesystem::path file;
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;  ///< file size, for budget/IO accounting
  /// Rows per frame the writer used (its last frame may hold fewer).
  std::uint64_t frameTriplets = kSpillFrameTriplets;
  /// Packed-key range the run covers, when known. Writer-produced runs
  /// always know it; runs restored from a pre-range checkpoint manifest do
  /// not (hasKeyRange = false) and are treated as potentially straddling
  /// every shard boundary.
  bool hasKeyRange = false;
  std::uint64_t firstKey = 0;
  std::uint64_t lastKey = 0;

  /// The row-range shard this run is confined to, or -1 when the range is
  /// unknown or crosses a shard boundary (such a run must be split before
  /// a per-shard merge can own it).
  std::int64_t shardOf(std::uint32_t rowsPerShard) const noexcept {
    if (!hasKeyRange || triplets == 0) {
      return -1;
    }
    const std::uint32_t first =
        static_cast<std::uint32_t>(firstKey >> 32) / rowsPerShard;
    const std::uint32_t last =
        static_cast<std::uint32_t>(lastKey >> 32) / rowsPerShard;
    return first == last ? static_cast<std::int64_t>(first) : -1;
  }
};

/// Global rows (low person ids) per row-range shard: the unit the spill
/// runs are split by at flush time and the unit an owner merges.
inline constexpr std::uint32_t kMergeRowsPerShard = std::uint32_t{1} << 14;

/// Resident bytes of an open SpillRunReader over `run`: its frame buffer,
/// which grows to the run's largest frame.
std::uint64_t spillReaderBytes(const SpillRunInfo& run) noexcept;

/// Rows per frame for runs an owner with `readerBudget` bytes of open
/// readers will merge: a sixteenth of the budget (1..kSpillFrameTriplets
/// rows), so any sixteen such runs fit one merge pass.
std::uint64_t spillFrameTripletsWithin(std::uint64_t readerBudget) noexcept;

/// Streams a strictly key-ascending triplet run into a CSPL1 file, in
/// frames of `frameTriplets` rows (1..kSpillFrameTriplets).
class SpillRunWriter {
 public:
  explicit SpillRunWriter(std::filesystem::path path,
                          std::uint64_t frameTriplets = kSpillFrameTriplets);
  ~SpillRunWriter();

  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  void append(const AdjacencyTriplet& triplet);
  void append(std::span<const AdjacencyTriplet> sorted);

  /// Flushes, patches the header count, and renames the .tmp into place.
  SpillRunInfo finish();

 private:
  void flushFrame();

  std::filesystem::path path_;
  std::filesystem::path tmp_;
  std::ofstream out_;
  std::uint64_t frameTriplets_;
  std::vector<AdjacencyTriplet> frame_;
  std::uint64_t total_ = 0;
  std::uint64_t firstKey_ = 0;
  std::uint64_t lastKey_ = 0;
  bool any_ = false;
  bool finished_ = false;
};

/// Streams a CSPL1 run back, one CRC-checked frame resident at a time:
/// the frame buffer (spillReaderBytes) is all the memory a reader holds.
/// Reads are synchronous; a double-buffered prefetch thread per reader
/// measured no faster on the owner merge (DESIGN.md §3.9).
class SpillRunReader final : public TripletSource {
 public:
  explicit SpillRunReader(std::filesystem::path path);

  bool next(AdjacencyTriplet& out) override;

  /// Total triplets the header declares.
  std::uint64_t tripletCount() const noexcept { return total_; }
  std::uint64_t sizeHint() const noexcept override { return total_; }

 private:
  /// Reads and CRC-checks the next frame into frame_; false on a clean end
  /// of file (after validating the header count).
  bool readFrame();
  [[noreturn]] void fail(const std::string& what, std::uint64_t offset) const;

  std::filesystem::path path_;
  std::ifstream in_;
  std::vector<AdjacencyTriplet> frame_;
  std::size_t cursor_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t decoded_ = 0;
  bool exhausted_ = false;
};

/// One finished per-shard merge: the shard's duplicate-summed sorted
/// stream as a raw CADJ payload segment on disk (TripletSegmentWriter
/// format), plus what its owner's passes cost.
struct ShardSegment {
  std::uint32_t shard = 0;
  std::filesystem::path file;
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  /// Thread-CPU seconds of this shard's merge, all passes.
  double mergeSeconds = 0.0;
  unsigned owner = 0;  ///< worker index / rank that ran the merge
  /// Intermediate passes (each wrote one CSPL run) before the final one.
  std::uint64_t passes = 0;
  std::uint64_t passTriplets = 0;  ///< rows those passes wrote
  std::uint64_t passBytes = 0;     ///< run-file bytes those passes wrote
  /// Largest Σ spillReaderBytes over the runs one pass held open.
  std::uint64_t peakReaderBytes = 0;
};

/// Spill activity counters, folded into SynthesisReport.
struct SpillStats {
  std::uint64_t runsWritten = 0;      ///< run files produced (incl. adopted)
  std::uint64_t spilledTriplets = 0;  ///< triplet rows that went to disk
  std::uint64_t spilledBytes = 0;     ///< run file bytes written
  /// Intermediate owner merge passes (spill.merge).
  std::uint64_t compactions = 0;
  /// Runs rewritten at shard boundaries because they straddled one (or had
  /// no recorded key range) when a per-shard merge plan was built.
  std::uint64_t runsSplit = 0;
  /// Max observed resident accumulator bytes: shard tables plus the sort
  /// transient during a spill. This is what the budget enforces
  /// (peakResidentBytes <= budgetBytes).
  std::uint64_t peakResidentBytes = 0;
  /// Max concurrent stage-5 worker bytes the caller reported via
  /// noteWorkerPeak(): a pessimistic sum of per-worker historical peaks,
  /// bounded by each worker's flush threshold plus the largest single
  /// place's pair block (per-place kernels cannot flush mid-place).
  std::uint64_t peakWorkerBytes = 0;
  /// Largest reader bytes any one merge owner held open at once. Owners
  /// merge their shards one pass at a time, so this is the max over
  /// segments of ShardSegment::peakReaderBytes; the merge keeps it within
  /// the owner's share of the budget.
  std::uint64_t peakMergeReaderBytes = 0;

  /// Counts an owner's intermediate passes as spill activity.
  void addSegment(const ShardSegment& segment) noexcept;
};

/// The memory-bounded cross-batch accumulator: pair counts are sharded by
/// global row range (shard = lowId / rowsPerShard), resident bytes are
/// tracked against the budget, and when the next insert would grow a shard
/// past the spill threshold every shard is sorted and spilled as one run
/// per shard. Spilled runs cover disjoint key ranges within one flush and
/// overlapping ranges across flushes. The accumulator never merges: the
/// shard owners' merges (mergeShardRuns over buildShardMergePlan) sum
/// duplicates, so their output equals the unbounded accumulator's sorted
/// triplets bit for bit.
class SpillingAccumulator {
 public:
  struct Options {
    std::filesystem::path dir;  ///< run-file directory (required)
    /// Total budget this accumulator enforces; resident bytes are kept
    /// under budgetBytes/2 so the spill-sort transient fits in the other
    /// half. 0 = never auto-spill (spillAll() on demand only). Enforcement
    /// granularity is one insert: a single shard-table doubling can
    /// overshoot the threshold by that shard's size, which the floor of
    /// kMinSpillThresholdBytes makes irrelevant for budgets ≥ a few MiB.
    std::uint64_t budgetBytes = 0;
    /// Global rows (low person ids) per shard.
    std::uint32_t rowsPerShard = kMergeRowsPerShard;
    /// Rows per frame of the runs this accumulator writes.
    std::uint64_t frameTriplets = kSpillFrameTriplets;
    /// true: runs superseded by a split are retired (takeRetiredFiles)
    /// instead of deleted, so a checkpoint manifest that still references
    /// them stays valid until the next manifest rename.
    bool deferDeletes = false;
  };

  explicit SpillingAccumulator(Options options);

  SpillingAccumulator(const SpillingAccumulator&) = delete;
  SpillingAccumulator& operator=(const SpillingAccumulator&) = delete;

  void add(std::uint32_t i, std::uint32_t j, std::uint64_t weight);
  void addSortedRun(std::span<const AdjacencyTriplet> run);
  /// Takes ownership of an existing run file (a stage-5 worker spill) by
  /// renaming it into this accumulator's own run.<n>.spl namespace (the
  /// numbering resumes above any run.<n>.spl already in the directory).
  /// The rename matters for checkpointing: worker file names restart from
  /// zero after a resume (batch counters, command tokens), so a
  /// manifest-referenced run left under its worker name would get
  /// overwritten by the next life's identically-named spill.
  void adoptRunFile(const SpillRunInfo& info);
  /// Re-registers a checkpointed run under its existing name. Unlike
  /// adoptRunFile this never renames: the current manifest references the
  /// file by that name, and a crash before the next manifest write must
  /// leave the old one resolvable.
  void restoreRunFile(const SpillRunInfo& info);

  void addKernelStats(const AdjacencyKernelStats& stats) noexcept {
    kernelStats_.merge(stats);
  }
  const AdjacencyKernelStats& kernelStats() const noexcept {
    return kernelStats_;
  }

  /// Records that `extraBytes` lived beside the resident shards (e.g. the
  /// sum of concurrent stage-5 worker peaks) for peak accounting. Worker
  /// bytes are tracked as stats().peakWorkerBytes, separate from the
  /// budget-enforced peakResidentBytes.
  void noteWorkerPeak(std::uint64_t extraBytes) noexcept;

  /// Spills every resident shard to disk (one sorted run per shard).
  /// Afterwards the full accumulated state is the live run files — what a
  /// checkpoint persists and what the owners merge.
  void spillAll();

  /// One row-range shard's slice of the merge plan: every live run whose
  /// keys fall in that shard. Groups come back in ascending shard order,
  /// so concatenating each group's merged stream reproduces the global
  /// sorted order.
  struct ShardRunGroup {
    std::uint32_t shard = 0;
    std::vector<SpillRunInfo> runs;
  };

  /// Spills residual shards, splits any live run that straddles a shard
  /// boundary (or whose key range is unknown — e.g. restored from an older
  /// manifest) into shard-pure runs, and returns the live set grouped per
  /// shard in ascending shard order. Afterwards liveRuns() reflects the
  /// split set, so a checkpoint manifest written mid-merge references
  /// exactly the files an owner will read; superseded originals are
  /// retired under deferDeletes as usual. Each group can then be merged
  /// independently (mergeShardRuns) by its owner.
  std::vector<ShardRunGroup> buildShardMergePlan();

  const std::vector<SpillRunInfo>& liveRuns() const noexcept { return runs_; }
  /// Split originals superseded since the last call (deferDeletes mode);
  /// the caller deletes them once its manifest no longer references them.
  std::vector<std::filesystem::path> takeRetiredFiles();

  std::uint64_t residentBytes() const noexcept { return residentBytes_; }
  const SpillStats& stats() const noexcept { return stats_; }

 private:
  void spillShard(PairCountMap& pairs);
  /// Rewrites one run as shard-pure runs (appended to `out`); retires or
  /// deletes the original.
  void splitRun(const SpillRunInfo& run, std::vector<SpillRunInfo>& out);
  /// Deletes a superseded run file, or parks it in retired_ under
  /// deferDeletes.
  void retireRunFile(std::filesystem::path file);
  std::filesystem::path nextRunPath();
  /// Folds `extraBytes` beside the current resident shards into the
  /// budget-enforced peak (the spill-sort transient).
  void notePeak(std::uint64_t extraBytes) noexcept;

  Options options_;
  std::uint64_t spillThreshold_ = 0;  ///< 0 = unbounded
  std::map<std::uint32_t, PairCountMap> shards_;
  std::uint64_t residentBytes_ = 0;
  std::vector<SpillRunInfo> runs_;
  std::vector<std::filesystem::path> retired_;
  std::uint64_t nextRunIndex_ = 0;
  SpillStats stats_;
  AdjacencyKernelStats kernelStats_;
};

/// Stage-5 worker-local sum that bounds its own footprint: collocation
/// contributions accumulate into an in-memory adjacency, and whenever it
/// holds more entries than one pair table of `flushThresholdBytes` fits,
/// it is sorted and flushed as a spill run.
/// Both backends' workers use this under a memory budget, so per-batch
/// stage-5 memory is capped at roughly the threshold per worker.
class SpillingSum {
 public:
  /// flushThresholdBytes 0 = never flush (plain in-memory sum).
  /// Spills are routed to their reduce-shard owners at flush time: each
  /// flush is partitioned at row-range boundaries (shard = low id /
  /// splitRows) and written as one shard-pure run per touched shard, so
  /// the sink can hand every run to its owner without a split-and-rewrite
  /// pass before the merge.
  SpillingSum(std::filesystem::path dir, std::string filePrefix,
              std::uint64_t flushThresholdBytes, std::uint32_t splitRows,
              std::uint64_t frameTriplets = kSpillFrameTriplets);

  void addCollocation(const CollocationMatrix& matrix, AdjacencyMethod method);

  const AdjacencyKernelStats& kernelStats() const noexcept;
  /// Max in-memory bytes observed (map plus flush-sort transient).
  std::uint64_t peakBytes() const noexcept { return peakBytes_; }

  const std::vector<SpillRunInfo>& runs() const noexcept { return runs_; }
  /// The not-yet-flushed remainder as a sorted run; resets the sum.
  std::vector<AdjacencyTriplet> drainInMemory();

 private:
  void flush();

  std::filesystem::path dir_;
  std::string filePrefix_;
  /// Entries past which the sum flushes: what one pair table of the
  /// threshold's size holds (0 = never flush). Counted in entries, not in
  /// the sharded tables' bytes, so the flush points do not depend on how
  /// the sum happens to be sharded.
  std::uint64_t flushEntries_ = 0;
  std::uint32_t splitRows_ = 1;
  std::uint64_t frameTriplets_ = kSpillFrameTriplets;
  SymmetricAdjacency sum_;
  std::vector<SpillRunInfo> runs_;
  std::uint64_t nextRunIndex_ = 0;
  std::uint64_t peakBytes_ = 0;
};

/// Merges one shard's (shard-pure) runs into `segmentFile` (tmp+rename):
/// the unit of work a shard owner — worker thread or rank — executes. The
/// final CADJ is the byte-identical concatenation of the segments in
/// ascending shard order. The merge runs in passes whose open readers hold
/// at most `readerBudget` bytes (Σ spillReaderBytes): while the runs do
/// not fit, the smallest runs that fit — just enough of them to make the
/// rest fit — are merged into one intermediate CSPL run next to the
/// segment (`<segment>.p<n>.spl`, deleted once consumed), and the last
/// pass writes the segment. Intermediate runs use the frames of
/// spillFrameTripletsWithin(readerBudget). A pass always takes at least
/// two runs, so the bound holds whenever the budget covers the two
/// smallest inputs' frames — always, for inputs written with those
/// frames. The inputs are left in place.
ShardSegment mergeShardRuns(std::uint32_t shard,
                            std::span<const SpillRunInfo> runs,
                            const std::filesystem::path& segmentFile,
                            std::uint64_t readerBudget);

}  // namespace chisimnet::sparse

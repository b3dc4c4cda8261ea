#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/cluster.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event_table.hpp"

/// Pluggable dispatch substrate for synthesis stages 2-6 (paper §IV.A).
///
/// The paper presents one synthesis algorithm with two dispatch substrates:
/// a SNOW fork cluster (shared memory) for a single node and Rmpi ranks
/// (message passing) for larger clusters. NetworkSynthesizer owns the
/// stage sequencing, batching, prefetch, and timing; a SynthesisExecutor
/// owns only how each stage's work reaches the workers and how results
/// come back. One driver, two backends — the message-passing path inherits
/// batching, prefetch, and per-stage timing from the driver instead of
/// reimplementing the pipeline.
///
/// Stage protocol, called by the driver once per batch, in order:
///   scatterPlaces   stage 2 tail: hand the place-grouped slice to workers
///   mapCollocation  stage 3: per-place collocation matrices, returned to
///                   the driver (the paper's "returned to the root")
///   mapAdjacency    stage 5: per-worker adjacency sums A_l = x·xᵀ,
///                   scheduled by the driver's stage-4 weights
///   reduce          stage 6: fold the worker sums into the running result
///
/// Lifetimes: the events/index passed to scatterPlaces must stay alive
/// through the following mapCollocation call; matrices passed to
/// mapAdjacency must stay alive for its duration.

namespace chisimnet::runtime {
class SocketTransport;
}  // namespace chisimnet::runtime

namespace chisimnet::net {

/// How the last stage 5 spread its matrices over the workers.
struct AdjacencySchedule {
  /// Summed stage-4 weight each worker pulled (shared memory) or each live
  /// rank was assigned (message passing).
  std::vector<std::uint64_t> loads;
  /// Shared memory: the measured busy imbalance (max / mean worker busy
  /// seconds) of the dynamic pull. Message passing: the static partition's
  /// modeled weight imbalance (makespan / mean load).
  double imbalance = 1.0;
};

class SynthesisExecutor {
 public:
  explicit SynthesisExecutor(const SynthesisConfig& config)
      : config_(config) {}
  virtual ~SynthesisExecutor() = default;

  SynthesisExecutor(const SynthesisExecutor&) = delete;
  SynthesisExecutor& operator=(const SynthesisExecutor&) = delete;

  virtual SynthesisBackend backend() const noexcept = 0;

  /// Stage 2 (dispatch tail): make the window-filtered events of each place
  /// group available to the workers that will build its matrix. Message
  /// passing ships the groups; shared memory only pins references.
  virtual void scatterPlaces(const table::EventTable& events,
                             const table::PlaceIndex& index) = 0;

  /// Stage 3: build one collocation matrix per scattered place group and
  /// return the non-empty ones to the driver.
  virtual std::vector<sparse::CollocationMatrix> mapCollocation() = 0;

  /// Stage 5: compute per-worker adjacency sums, scheduled by the
  /// driver's stage-4 `weights` (one per matrix). Shared memory pulls the
  /// matrices dynamically, heaviest first; message passing ships a static
  /// LPT partition to the live ranks up front. With
  /// config.balancedPartition off, both fall back to place order. The sums
  /// stay inside the executor — in-memory at the root (shared) or as
  /// sorted triplet runs returned by the ranks (message passing) — until
  /// the following reduce() folds them.
  virtual AdjacencySchedule mapAdjacency(
      const std::vector<sparse::CollocationMatrix>& matrices,
      std::span<const std::uint64_t> weights) = 0;

  /// Stage 6: fold the worker sums held since mapAdjacency into `result`
  /// (a parallel per-shard fold on shared memory, the root's insert of
  /// every returned run on message passing).
  virtual void reduce(sparse::SymmetricAdjacency& result) = 0;

  /// Stage 6 under a memory budget: fold the worker sums into the
  /// disk-spilling cross-batch accumulator instead of a dense map. Worker
  /// spill runs transfer as files (adopted by the sink, never rebuilt in
  /// memory) and in-memory remainders as sorted runs; each backend also
  /// reports its stage-5 worker peak bytes through sink.noteWorkerPeak(),
  /// surfaced separately from the budget-enforced accumulator peak.
  virtual void reduceInto(sparse::SpillingAccumulator& sink) = 0;

  /// Stage-6 tail under a budget: merge each row-range shard's spill runs
  /// into a sorted CADJ payload segment. The shards are spread over this
  /// substrate's owners (workers/ranks) by LPT over shardMergeWeights, so
  /// no single thread funnels the external merge, and each owner merges in
  /// passes within memoryBudgetBytes / owners of open run readers.
  /// `onSegment` fires once per completed segment, never concurrently —
  /// the driver checkpoints from it mid-merge. Returns one segment per
  /// group, in unspecified order (callers sort by shard before
  /// concatenating).
  virtual std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment) = 0;

  /// Observed busy-time imbalance of the last mapAdjacency; 1.0 if the
  /// substrate cannot observe it.
  virtual double adjacencyBusyImbalance() const noexcept { return 1.0; }

  /// Cumulative payload bytes moved root->workers / workers->root since
  /// the last resetTransferCounters(); zero on no-wire substrates.
  virtual std::uint64_t bytesScattered() const noexcept { return 0; }
  virtual std::uint64_t bytesReturned() const noexcept { return 0; }
  virtual void resetTransferCounters() noexcept {}

  /// Recovery actions (retries, rank losses) taken since the last drain,
  /// for the driver to fold into SynthesisReport::faults. Empty on
  /// substrates with nothing to recover from.
  virtual std::vector<FaultEvent> drainFaultEvents() { return {}; }

  /// Workers still able to take stage work (ranks not declared lost).
  virtual int liveWorkers() const noexcept {
    return static_cast<int>(config_.workers);
  }

 protected:
  const SynthesisConfig config_;
};

/// Worker threads over shared memory — the paper's SNOW fork cluster.
/// Both map stages pull work dynamically (SNOW's own load balancing); the
/// adjacency stage pulls heaviest first, so the heaviest places start at
/// once and the light tail fills the gaps. No bytes move.
class SharedMemoryExecutor final : public SynthesisExecutor {
 public:
  explicit SharedMemoryExecutor(const SynthesisConfig& config);

  SynthesisBackend backend() const noexcept override {
    return SynthesisBackend::kSharedMemory;
  }
  void scatterPlaces(const table::EventTable& events,
                     const table::PlaceIndex& index) override;
  std::vector<sparse::CollocationMatrix> mapCollocation() override;
  /// One schedule for the in-memory and the budgeted accumulators: every
  /// sum is an integer and the export is sorted, so which worker summed a
  /// place never shows in the output.
  AdjacencySchedule mapAdjacency(
      const std::vector<sparse::CollocationMatrix>& matrices,
      std::span<const std::uint64_t> weights) override;
  /// Folds the worker sums shard by shard on the worker threads
  /// (SymmetricAdjacency::absorb), freeing each worker shard once folded.
  void reduce(sparse::SymmetricAdjacency& result) override;
  void reduceInto(sparse::SpillingAccumulator& sink) override;
  /// Owners are `resolvedReduceShards(config)` cluster items, each
  /// merging its LPT share of the shard groups heaviest first.
  std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment)
      override;
  double adjacencyBusyImbalance() const noexcept override;

 private:
  runtime::Cluster cluster_;
  const table::EventTable* events_ = nullptr;
  const table::PlaceIndex* index_ = nullptr;
  std::vector<sparse::SymmetricAdjacency> workerSums_;  ///< stage 5 → 6
  /// Budgeted stage 5: each worker sums into its own flushing SpillingSum
  /// (threshold ≈ budget/(8·workers)) instead of an unbounded map.
  std::vector<std::unique_ptr<sparse::SpillingSum>> spillSums_;
  /// Distinguishes run-file names across batches (adopted files outlive
  /// the mapAdjacency that wrote them).
  std::uint64_t batchCounter_ = 0;
};

/// Message-passing ranks — the paper's Rmpi path, with its exact data
/// flow: the root scatters place event groups, workers build collocation
/// matrices and return them serialized, the root re-partitions and
/// re-scatters the matrix list, workers sum adjacencies and return them.
/// Rank 0 is the driver thread; ranks 1..workers-1 are a persistent
/// runtime::RankTeam command loop, so the same ranks serve every batch.
/// All payloads (including rank 0's self-delivery) go through the sparse
/// wire format and are counted in bytesScattered/bytesReturned.
///
/// Fault tolerance: every stage round trip is one framed command message
/// and one framed reply, stamped with an epoch. A worker that hits a
/// recoverable error replies status=failed instead of dying; a worker that
/// dies silently is detected by the per-command deadline
/// (config.commandTimeoutMs). Under FaultPolicy::kDegrade the root retries
/// a failed command with exponential backoff up to commandMaxAttempts,
/// then marks the rank lost and re-partitions its work items across the
/// surviving ranks (the root included), so the batch completes with the
/// exact same result. Epochs let the root discard stale replies from
/// retried commands; stage bodies are pure, so duplicate execution after a
/// timeout race is harmless.
///
/// Transports: with MpTransport::kInProcess (default) the ranks are
/// RankTeam service threads in this process; with kProcess and kTcp they
/// are OS processes behind runtime::SocketTransport, speaking the
/// identical command protocol over sockets. kProcess spawns each worker
/// over a Unix-domain socketpair; a worker process that crashes is
/// respawned (config.maxRespawns) while the in-flight command rides the
/// existing timeout/retry path. kTcp has the workers dial rank 0 over TCP;
/// a dropped connection is survived by worker-initiated reconnect inside a
/// grace window. A death past either recovery feeds the same markLost +
/// reassignment flow as an in-process loss. Under kTcp the workers need no
/// shared filesystem: stage commands carry shipRuns, workers spill into
/// private local directories, and run-file bytes travel to the root as
/// mp::kShipTag chunks ahead of the replies that reference them (the root
/// materializes them into its own spill directory before decoding the
/// reply).
class MessagePassingExecutor final : public SynthesisExecutor {
 public:
  explicit MessagePassingExecutor(const SynthesisConfig& config);
  ~MessagePassingExecutor() override;

  SynthesisBackend backend() const noexcept override {
    return SynthesisBackend::kMessagePassing;
  }
  void scatterPlaces(const table::EventTable& events,
                     const table::PlaceIndex& index) override;
  std::vector<sparse::CollocationMatrix> mapCollocation() override;
  /// Partitions across the live ranks only (LPT, or contiguous without
  /// balance), so a batch after a rank loss spreads stage-5 work over
  /// exactly the ranks that can still take it.
  AdjacencySchedule mapAdjacency(
      const std::vector<sparse::CollocationMatrix>& matrices,
      std::span<const std::uint64_t> weights) override;
  /// The paper's root reduce: the root inserts every sorted run the
  /// adjacency stage returned straight into `result` (addAll). Runs too
  /// large to cross the wire inline arrive as spill files (mp::RunRef),
  /// are streamed, never rebuilt whole in memory, and are then deleted;
  /// each inline run is freed once inserted.
  void reduce(sparse::SymmetricAdjacency& result) override;
  /// Budgeted stage 6: worker run files are adopted by the sink directly
  /// (a rename-scoped ownership transfer — zero copy), inline runs are
  /// inserted, and the workers' peak bytes reported via noteWorkerPeak().
  void reduceInto(sparse::SpillingAccumulator& sink) override;
  /// Owners are the first min(resolvedReduceShards, live) live ranks: each
  /// LPT share of the shard groups travels as one kCmdMergeShard command
  /// (rank 0 executes its share inline), with the stage-level retry and
  /// lost-rank reassignment semantics of every other command. Segments
  /// come back as file references; run files are read directly off the
  /// shared filesystem, never shipped.
  std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment)
      override;
  double adjacencyBusyImbalance() const noexcept override {
    return busyImbalance_;
  }
  std::uint64_t bytesScattered() const noexcept override {
    return bytesScattered_;
  }
  std::uint64_t bytesReturned() const noexcept override {
    return bytesReturned_;
  }
  void resetTransferCounters() noexcept override {
    bytesScattered_ = 0;
    bytesReturned_ = 0;
  }
  std::vector<FaultEvent> drainFaultEvents() override;
  int liveWorkers() const noexcept override { return team_->liveCount(); }

 private:
  /// One in-flight command on a rank, kept so the root can resend it and,
  /// on permanent loss, rebuild the work items for reassignment.
  struct Pending {
    bool active = false;
    std::uint32_t command = 0;
    std::uint64_t epoch = 0;
    int attempts = 0;
    std::vector<std::byte> body;       ///< serialized stage input (resend)
    std::vector<std::size_t> items;    ///< work item indices (reassignment)
  };

  /// Worker-side command loop run by every in-process service rank.
  /// (Worker processes run the same protocol via maybeRunSynthesisWorker.)
  void serviceLoop(runtime::RankHandle& handle) const;

  /// Ranks currently able to take work, rank 0 first.
  std::vector<int> liveRanks() const;
  /// Frames and sends `body` as `command` to `rank`, recording it in
  /// pending_ for retry/reassignment.
  void sendCommand(int rank, std::uint32_t command,
                   std::vector<std::size_t> items, std::vector<std::byte> body);
  /// Waits for rank's reply to its pending command, retrying failed or
  /// timed-out attempts per config. Returns the reply body, or nullopt once
  /// the rank has been declared lost (its items stay in pending_ for the
  /// caller to reassign).
  std::optional<std::vector<std::byte>> awaitReply(int rank);
  /// Collects every active pending command of `command`, reassigning the
  /// items of lost ranks across survivors until all items are accounted
  /// for. buildBody serializes a fresh body for reassigned items; onReply
  /// consumes each successful reply body.
  void collectStage(
      std::uint32_t command,
      const std::function<std::vector<std::byte>(
          std::span<const std::size_t>)>& buildBody,
      const std::function<void(std::span<const std::byte>)>& onReply);

  int ranks_;
  std::uint64_t bytesScattered_ = 0;
  std::uint64_t bytesReturned_ = 0;
  double busyImbalance_ = 1.0;
  std::uint64_t nextEpoch_ = 1;
  std::vector<Pending> pending_;
  std::vector<FaultEvent> faultEvents_;
  const table::EventTable* events_ = nullptr;
  const table::PlaceIndex* index_ = nullptr;
  /// Sorted triplet runs returned by the adjacency stage — inline or as
  /// spill-file references — consumed by reduce()/reduceInto(); plus the
  /// kernel counters that traveled beside them.
  std::vector<mp::RunRef> reduceRuns_;
  sparse::AdjacencyKernelStats runKernelStats_;
  /// Σ of worker peakLocalBytes from the last mapAdjacency (budget
  /// accounting: these maps were alive concurrently with the sink).
  std::uint64_t workerPeakBytes_ = 0;
  /// Uniquifies worker-side spill-file names per command body.
  std::uint64_t nextRunToken_ = 0;
  /// The socket transport behind team_ for kProcess/kTcp (non-owning; the
  /// team owns it); nullptr for the in-process transport.
  runtime::SocketTransport* socketTransport_ = nullptr;
  /// True when stage commands run with shipRuns: worker file runs arrive
  /// as kShipTag chunks and decode points must localizeRun() every ref.
  bool shipRuns_ = false;
  /// Root-side assembler of in-flight kShipTag run files (pimpl — holds
  /// open output streams keyed by run name).
  class RunShipSink;
  std::unique_ptr<RunShipSink> shipSink_;
  /// Drains every kShipTag chunk `rank` has delivered into shipSink_
  /// (called at each reply receipt — chunks precede the reply that
  /// references them on the connection).
  void drainShippedRuns(int rank);
  /// Rewrites a shipped ref into the root-side file the sink materialized
  /// (<spillDir>/<name>); identity for inline and plain file refs.
  mp::RunRef localizeRun(mp::RunRef ref) const;
  /// Must be constructed last: service threads read config_/ranks_.
  std::unique_ptr<runtime::RankTeam> team_;
};

/// Stage-6 owner weights: each shard group's summed run rows.
std::vector<std::uint64_t> shardMergeWeights(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups);

/// Builds the executor for config.backend.
std::unique_ptr<SynthesisExecutor> makeExecutor(const SynthesisConfig& config);

/// Worker-process entry for the socket transport. When this process was
/// launched as a transport worker (runtime::WorkerLink bootstrap env
/// present), runs the synthesis command service against the root and
/// returns its exit code; returns nullopt for a normal invocation. Every
/// binary that can act as a worker (the CLI, the distributed tests, the
/// fault soak) calls this first thing in main() and exits with the
/// returned code when engaged.
std::optional<int> maybeRunSynthesisWorker();

}  // namespace chisimnet::net

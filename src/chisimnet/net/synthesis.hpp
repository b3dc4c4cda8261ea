#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event_table.hpp"

/// The paper's core contribution (§IV): parallel synthesis of the person
/// collocation network from simulation log data.
///
/// Pipeline per batch of log files:
///   1. the log files are decoded into an event table — by default on a
///      background prefetcher that loads batch k+1 while batch k is in
///      stages 2-6, taking file I/O off the compute critical path,
///   2. the time slice is subset, unique place ids extracted, and place
///      groups handed to the executor's workers,
///   3. workers build one sparse p×t collocation matrix per place,
///   4. each matrix is weighed by its adjacency cost, the weights behind
///      the re-partition §IV.A.3 calls crucial for even load balance,
///   5. workers compute per-place adjacencies A_l = x·xᵀ and sum their set
///      — pulling places heaviest first on shared memory, following a
///      static LPT partition of the list on message passing,
///   6. worker sums are reduced into a single sparse upper-triangular
///      adjacency, and batches are summed into the final network.
///
/// Stages 2-6 are dispatched through a pluggable SynthesisExecutor
/// (executor.hpp), with one implementation per dispatch substrate of the
/// paper: shared-memory workers (SNOW fork cluster) and message-passing
/// ranks (Rmpi). Both run the exact same driver, so batching, prefetch,
/// per-stage timing, and the report shape are backend-independent.

namespace chisimnet::net {

class SynthesisExecutor;

/// Dispatch substrate for stages 2-6 (paper §IV.A: SNOW vs Rmpi).
enum class SynthesisBackend {
  /// Worker threads over shared memory (runtime::Cluster) — the SNOW fork
  /// cluster of the paper, no serialization between stages.
  kSharedMemory,
  /// Message-passing ranks (runtime::comm) with the paper's root-scatter /
  /// return / re-scatter / reduce data flow; collocation matrices travel as
  /// serialized bytes and the report carries the byte accounting.
  kMessagePassing,
};

inline const char* backendName(SynthesisBackend backend) noexcept {
  return backend == SynthesisBackend::kSharedMemory ? "shared" : "mp";
}

/// Where the message-passing ranks live (kMessagePassing backend only).
enum class MpTransport {
  /// Ranks are RankTeam service threads in this process, mailboxes are the
  /// wire (the default; no crash isolation, no serialization of the wire
  /// frames beyond the command payloads).
  kInProcess,
  /// Ranks are fork/exec'd OS processes speaking length-framed Unix-domain
  /// socket streams (runtime::SocketTransport, spawn bootstrap). A worker
  /// crash — real SIGKILL included — is survived by respawn and/or the
  /// rank-loss reassignment path, with bit-identical output.
  kProcess,
  /// Ranks dial rank 0 over TCP (runtime::SocketTransport, accept
  /// bootstrap) speaking the same CSF1 frames — the multi-host story. A
  /// dropped connection is survived by worker-initiated reconnect inside a
  /// grace window (epoch-replayed handshake) and/or the same rank-loss
  /// reassignment path; spill runs ship their bytes over the wire, so
  /// workers need no shared filesystem.
  kTcp,
};

inline const char* mpTransportName(MpTransport transport) noexcept {
  switch (transport) {
    case MpTransport::kInProcess:
      return "inproc";
    case MpTransport::kProcess:
      return "process";
    case MpTransport::kTcp:
      return "tcp";
  }
  return "unknown";
}

/// How the pipeline responds to recoverable failures (corrupt input files,
/// failed worker commands).
enum class FaultPolicy {
  /// First failure aborts the whole run with the original error (default —
  /// matches the paper's batch jobs, where a failed job is simply re-run).
  kFailFast,
  /// Degrade gracefully: quarantine undecodable input files and retry /
  /// route around failing ranks, reporting exactly what was excluded so
  /// the caller can judge whether the degraded network is usable.
  kDegrade,
};

inline const char* faultPolicyName(FaultPolicy policy) noexcept {
  return policy == FaultPolicy::kFailFast ? "failfast" : "degrade";
}

/// One recovery action the pipeline took, in the order it happened.
struct FaultEvent {
  enum class Kind {
    kCommandRetry,     ///< a worker command failed/timed out and was retried
    kRankLost,         ///< a rank was declared dead; its work reassigned
    kWorkerRespawn,    ///< a dead worker process was re-execed for its rank
    kWorkerReconnect,  ///< a disconnected TCP worker re-dialed and resumed
    kFileQuarantined,  ///< an input file was excluded as undecodable
    kResume,           ///< the run restarted from a checkpoint
    kCheckpoint,       ///< a batch checkpoint was persisted
  };
  Kind kind = Kind::kCommandRetry;
  int rank = -1;            ///< affected rank, -1 when not rank-scoped
  std::uint64_t batch = 0;  ///< batch counter at the time of the event
  std::string detail;       ///< human-readable specifics
};

inline const char* faultEventKindName(FaultEvent::Kind kind) noexcept {
  switch (kind) {
    case FaultEvent::Kind::kCommandRetry:
      return "command-retry";
    case FaultEvent::Kind::kRankLost:
      return "rank-lost";
    case FaultEvent::Kind::kWorkerRespawn:
      return "worker-respawn";
    case FaultEvent::Kind::kWorkerReconnect:
      return "worker-reconnect";
    case FaultEvent::Kind::kFileQuarantined:
      return "file-quarantined";
    case FaultEvent::Kind::kResume:
      return "resume";
    case FaultEvent::Kind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

struct SynthesisConfig {
  table::Hour windowStart = 0;
  table::Hour windowEnd = 168;
  unsigned workers = 4;
  SynthesisBackend backend = SynthesisBackend::kSharedMemory;
  /// true: stage 5 is balanced by the stage-4 weights — shared memory
  /// pulls places heaviest first, message passing partitions them across
  /// ranks by LPT (the paper's scheme). false: the naive ablation baseline
  /// — place-order pulling, or contiguous equal-count rank lists.
  bool balancedPartition = true;
  /// true (default): weigh each matrix by nnz times its mean simultaneous
  /// occupancy (nnz² / occupied hours) instead of plain nnz, so hub places
  /// — whose x·xᵀ cost grows faster than their person-hours — are
  /// scheduled by a closer proxy of adjacency cost. Defaulted on after
  /// bench_partition_ablation showed consistently lower busy imbalance and
  /// makespan on skewed populations (EXPERIMENTS.md); false restores the
  /// paper's plain-nnz §IV.A.3 scheme.
  bool occupancyWeight = true;
  /// Files per batch when synthesizing from disk; 0 processes all files in
  /// one batch. Batches are independent and their adjacencies are summed,
  /// mirroring the paper's batched cluster jobs (§V).
  std::size_t filesPerBatch = 0;
  /// true: decode batch k+1 on a background loader while batch k is being
  /// processed (two-stage pipeline); false: serial load-then-process.
  bool prefetch = true;
  /// Max decoded batches the prefetcher buffers ahead of the compute thread.
  std::size_t prefetchDepth = 2;
  /// Threads the prefetcher uses to decode the files of one batch in
  /// parallel; 0 uses `workers`. Requires prefetch — configuring decode
  /// workers with prefetch disabled is a hard error, not a silent ignore.
  unsigned decodeWorkers = 0;

  // ---- fault tolerance ----

  FaultPolicy faultPolicy = FaultPolicy::kFailFast;
  /// Degrade mode: abort anyway once more than this many input files have
  /// been quarantined (a blast-radius bound). 0 = no limit. Requires
  /// kDegrade — a limit under failfast is a hard config error.
  std::size_t maxQuarantinedFiles = 0;
  /// Message-passing backend: deadline for one worker command round trip.
  /// 0 disables the deadline — a silently dead rank then hangs the root
  /// (the pre-fault-tolerance behavior); recoverable worker errors are
  /// still retried under kDegrade since those need no timer.
  std::uint64_t commandTimeoutMs = 0;
  /// Degrade mode: attempts per worker command (first try included) before
  /// the rank is declared lost and its work reassigned to survivors.
  int commandMaxAttempts = 3;
  /// Base of the exponential backoff between command retries.
  std::uint64_t commandBackoffMs = 10;

  // ---- process / tcp transport (kMessagePassing backend only) ----

  /// Where the ranks live: service threads in this process (default),
  /// fork/exec'd worker processes over Unix-domain sockets, or TCP-dialing
  /// workers (possibly on other hosts). The process and tcp transports
  /// under kDegrade require commandTimeoutMs > 0 — a crashed worker never
  /// replies, so without a deadline the root would hang on it instead of
  /// retrying into the respawn/reconnect/reassignment path.
  MpTransport transport = MpTransport::kInProcess;
  /// Process transport: times a rank's worker process is re-execed after
  /// it dies before the rank is abandoned to the loss/reassignment path.
  /// 0 disables respawn (first death is permanent loss).
  int maxRespawns = 1;
  /// Process/tcp transport: heartbeat ping period (also the liveness
  /// monitor cadence, so ~the respawn/reconnect-detection latency). A
  /// worker silent for 8 periods is presumed hung and dropped.
  std::uint64_t heartbeatMs = 250;
  /// Process/tcp transport: worker binary to exec; empty re-enters the
  /// current binary (/proc/self/exe), whose main() must call
  /// maybeRunSynthesisWorker() first.
  std::string workerExecutable;

  // ---- tcp transport (transport == kTcp only) ----

  /// Per-attempt deadline of a worker's dial + hello handshake.
  std::uint64_t connectTimeoutMs = 5000;
  /// Extra dial attempts after the first (exponential backoff between
  /// them) before a worker gives up — both at startup and on reconnect.
  int connectRetries = 5;
  /// How long a disconnected worker's slot waits for it to re-dial before
  /// the rank is declared permanently dead and its work reassigned. 0 =
  /// every disconnect is immediately permanent.
  std::uint64_t reconnectGraceMs = 3000;
  /// Root listen address as "host:port"; empty = 127.0.0.1 on an ephemeral
  /// port with workers spawned locally (loopback CI mode).
  std::string tcpListen;
  /// Job file of worker connect addresses, one "host:port" per line for
  /// ranks 1..N-1 (what each worker should dial — normally this root's
  /// address as reachable from that host). Empty = every worker dials the
  /// listen address. Requires tcpListen; workers are then NOT spawned
  /// locally — they are launched out-of-band via `chisim worker`.
  std::string tcpJob;
  /// When non-empty, persist a checkpoint (accumulated adjacency + cursor
  /// manifest) into this directory after every file batch.
  std::filesystem::path checkpointDir;
  /// Resume from the checkpoint in checkpointDir instead of starting from
  /// scratch. Requires checkpointDir; a missing/mismatched checkpoint is a
  /// hard error (resuming the wrong run must not silently corrupt output).
  bool resume = false;

  // ---- memory budget (out-of-core accumulation) ----

  /// When > 0, bound the accumulator memory of the run: the cross-batch
  /// adjacency accumulates in a row-range-sharded SpillingAccumulator that
  /// spills CRC-framed sorted runs to spillDir whenever resident bytes
  /// approach the budget, and stage 5 workers flush their partial sums the
  /// same way; the final network is an external-memory k-way merge of the
  /// live runs. Output is bit-identical to the unbounded path (u64 adds
  /// are order-independent and the merge sums duplicates), so the budget
  /// is a perf/footprint knob and not part of the checkpoint config hash —
  /// a run checkpointed unbounded can resume bounded and vice versa.
  /// 0 = unbounded (the original all-in-memory accumulator).
  std::uint64_t memoryBudgetBytes = 0;
  /// Run-file directory for the budgeted path and for oversized
  /// message-passing replies (which spill to disk and cross the wire as a
  /// file path once they would exceed runtime::maxPayloadBytes()). Empty
  /// resolves to checkpointDir/"spill" when checkpointing (so spill runs
  /// are covered by the checkpoint manifest) or to a unique directory
  /// under the system temp dir that the synthesizer removes on
  /// destruction. Note the message-passing process transport requires the
  /// workers to share this filesystem (they are local fork/exec children,
  /// so they do); the tcp transport does not — its workers spill into
  /// private local directories and ship run bytes over the wire, and this
  /// directory is where the root materializes them.
  std::filesystem::path spillDir;

  // ---- shard-owned external merge (stage-6 spill reduce) ----

  /// Owners of the stage-6 external merge: the spill runs are grouped by
  /// row-range shard, and the shards are spread over this many owners
  /// (worker threads on the shared backend, live ranks on message passing)
  /// by LPT over each shard's run rows. Each owner merges its shards in
  /// passes whose open run readers stay within memoryBudgetBytes / owners.
  /// The final CADJ is the byte-identical concatenation of the per-shard
  /// segments, so the output does not depend on this knob (it stays
  /// outside the checkpoint config hash). 0 = auto (= workers); 1 = one
  /// owner.
  unsigned reduceShards = 0;
  /// Row-range width of one merge shard (the granularity owners balance
  /// over, and the unit the final concatenation is ordered by). 0 = auto:
  /// sparse::kMergeRowsPerShard. Exposed mainly so tests and benches can
  /// force multi-shard layouts on small populations.
  std::uint32_t mergeRowsPerShard = 0;
};

/// Resolved owner count of the sharded external merge (reduceShards,
/// with 0 = the configured worker count).
unsigned resolvedReduceShards(const SynthesisConfig& config) noexcept;

/// Resolved row-range width of one merge shard (mergeRowsPerShard, with
/// 0 = sparse::kMergeRowsPerShard).
std::uint32_t resolvedMergeRowsPerShard(const SynthesisConfig& config) noexcept;

/// Rows per frame of every spill run of a budgeted run: sized so that
/// sixteen runs fit one owner's share of the budget
/// (sparse::spillFrameTripletsWithin(budget / owners)).
std::uint64_t resolvedSpillFrameTriplets(
    const SynthesisConfig& config) noexcept;

/// Timing and size metrics of the last synthesis run. One report type
/// serves both backends; fields a backend has no source for (e.g. comm
/// bytes on shared memory) stay zero.
struct SynthesisReport {
  SynthesisBackend backend = SynthesisBackend::kSharedMemory;

  std::uint64_t logEntriesLoaded = 0;
  std::uint64_t placesProcessed = 0;
  std::uint64_t collocationNnz = 0;   ///< total person-hours across places
  std::uint64_t edges = 0;            ///< nonzeros of the final adjacency
  std::uint64_t batches = 0;

  double loadSeconds = 0.0;       ///< stage 1: file load + table build
  /// Load seconds that actually blocked the compute thread. Without
  /// prefetching this equals loadSeconds; with prefetching it is only the
  /// time spent waiting on the background loader.
  double loadExposedSeconds = 0.0;
  /// Load seconds hidden behind stage 2-6 compute (loadSeconds minus the
  /// exposed part, clamped at 0).
  double loadOverlappedSeconds = 0.0;
  bool prefetchEnabled = false;
  double prefetchMeanOccupancy = 0.0;   ///< ready-buffer fill at each take
  std::uint64_t prefetchPeakOccupancy = 0;
  double subsetSeconds = 0.0;     ///< stage 2: slice + place index + scatter
  double collocationSeconds = 0.0;///< stage 3: collocation matrices
  double partitionSeconds = 0.0;  ///< stage 4: adjacency-cost weights
  double adjacencySeconds = 0.0;  ///< stage 5: x·xᵀ products
  /// Stage 6: worker-sum reduction; under a memory budget also the
  /// owners' final merge and the splice (or read-back) of its segments.
  double reduceSeconds = 0.0;
  double totalSeconds = 0.0;

  /// Stage-5 imbalance of the last batch. Shared memory: the measured
  /// busy imbalance (max / mean worker busy seconds) of its dynamic pull,
  /// since there is no static partition to model. Message passing: the
  /// modeled weight imbalance (makespan / mean load) of its static rank
  /// partition.
  double partitionImbalance = 1.0;
  /// Observed busy-time imbalance of the adjacency stage workers (on
  /// shared memory the same figure as partitionImbalance).
  double adjacencyBusyImbalance = 1.0;
  /// Summed stage-4 weight per worker in the last batch: what each worker
  /// pulled (shared memory) or each live rank was assigned (message
  /// passing).
  std::vector<std::uint64_t> partitionLoads;

  /// Payload bytes the root shipped to workers (event groups + matrix
  /// batches) and workers shipped back (matrix lists + adjacency sums).
  /// Counts every scatter/return payload including rank 0's self-delivery,
  /// so the figure tracks serialization volume, not NIC traffic. Zero on
  /// backends with no wire (shared memory).
  std::uint64_t bytesScattered = 0;
  std::uint64_t bytesReturned = 0;

  // ---- adjacency kernel ----

  std::uint64_t kernelDensePlaces = 0;  ///< places on the triangular array
  std::uint64_t kernelHashPlaces = 0;   ///< places on the local hash
  std::uint64_t kernelPairHourUpdates = 0;  ///< local increments
  std::uint64_t kernelGlobalEmits = 0;  ///< distinct-pair global inserts

  /// Row-range shards of the in-memory result after the last reduce.
  std::uint64_t reduceShardCount = 0;

  // ---- fault section: every recovery action of the run ----

  std::vector<FaultEvent> faults;
  /// Input files excluded by quarantine (degrade mode); the surviving
  /// output equals a clean run over exactly the other files.
  std::vector<elog::QuarantinedFile> quarantined;
  std::uint64_t commandRetries = 0;  ///< worker commands retried
  int ranksLost = 0;                 ///< ranks declared dead this run
  /// Process transport: dead worker processes re-execed for their rank.
  std::uint64_t workersRespawned = 0;
  /// Tcp transport: disconnected workers that re-dialed inside the grace
  /// window and resumed their rank (epoch-replayed handshake).
  std::uint64_t workersReconnected = 0;
  bool resumed = false;              ///< run started from a checkpoint
  std::uint64_t checkpointsWritten = 0;
  std::uint64_t filesSkippedByResume = 0;
  /// Resume restored a checkpointed in-flight batch (decoded events that
  /// had not been processed when the run died), skipping its re-decode.
  bool inflightRestored = false;

  // ---- memory budget / spill section (memoryBudgetBytes > 0) ----

  std::uint64_t memoryBudgetBytes = 0;  ///< the configured cap (0 = off)
  std::uint64_t spillRunsWritten = 0;   ///< sorted run files produced
  std::uint64_t spilledTriplets = 0;    ///< triplet rows that went to disk
  std::uint64_t spilledBytes = 0;       ///< run-file bytes written
  /// Intermediate merge passes of the shard owners (each writes one run;
  /// their runs and bytes count in spillRunsWritten and spilledBytes).
  std::uint64_t spillCompactions = 0;
  /// Max observed resident accumulator bytes (cross-batch shards + the
  /// spill-sort transient). The budget guarantee the tests assert:
  /// peakAccumulatorBytes ≤ memoryBudgetBytes.
  std::uint64_t peakAccumulatorBytes = 0;
  /// Max concurrent stage-5 worker bytes (summed per-worker historical
  /// peaks — pessimistic). Bounded by each worker's flush threshold
  /// (budget / (8 · workers)) plus the largest single place's pair block:
  /// per-place kernels cannot flush mid-place, so one crowded place sets
  /// the floor regardless of the budget.
  std::uint64_t peakStage5Bytes = 0;
  /// Largest run-reader bytes one merge owner held open at once; the
  /// merge keeps it within memoryBudgetBytes / owners whenever that share
  /// covers a pass's two smallest runs.
  std::uint64_t peakMergeReaderBytes = 0;

  // ---- sharded external merge (synthesizeToFile under a budget) ----

  /// Distinct owners that merged this run's segments (at most the
  /// configured count, fewer when there are fewer shards or live ranks).
  unsigned reduceShardsUsed = 0;
  std::uint64_t mergeSegmentsWritten = 0;  ///< per-shard segments merged
  /// Segments restored intact from a checkpoint and spliced without
  /// re-merging (kill-during-merge resume).
  std::uint64_t mergeSegmentsReused = 0;
  /// Straddling/unknown-range runs rewritten into shard-pure runs before
  /// the merge (zero when every spill was routed at flush time).
  std::uint64_t spillRunsSplit = 0;
  /// Output entries pre-reserved by merge sinks from summed per-run row
  /// counts (TripletMerger / PairCountMap reservations).
  std::uint64_t mergeReservedEntries = 0;
  /// Σ thread-CPU seconds across all shard merges (the serial-equivalent
  /// merge work).
  double mergeSeconds = 0.0;
  /// Modeled parallel merge time: max per-owner sum of shard merge
  /// seconds — what the external merge costs when every owner runs
  /// concurrently (single-core wall time cannot show the win).
  double mergeCriticalSeconds = 0.0;
};

class NetworkSynthesizer {
 public:
  explicit NetworkSynthesizer(SynthesisConfig config);
  ~NetworkSynthesizer();

  NetworkSynthesizer(const NetworkSynthesizer&) = delete;
  NetworkSynthesizer& operator=(const NetworkSynthesizer&) = delete;

  /// Synthesizes the collocation adjacency from per-rank log files,
  /// batch by batch. Under a memory budget the pipeline accumulates
  /// out-of-core and this materializes the merged result in memory at the
  /// end — use synthesizeToFile() when even the final triplet list must
  /// stay off the heap.
  sparse::SymmetricAdjacency synthesizeAdjacency(
      const std::vector<std::filesystem::path>& logFiles);

  /// Synthesizes from an in-memory event table (single batch).
  sparse::SymmetricAdjacency synthesizeAdjacency(const table::EventTable& events);

  /// Fully out-of-core synthesis: runs the batched pipeline, then streams
  /// the external k-way merge of the spilled runs straight into a CADJ1
  /// file at `outPath` (bytes identical to saveTriplets of the in-memory
  /// result). Returns the edge count. Requires memoryBudgetBytes > 0.
  std::uint64_t synthesizeToFile(
      const std::vector<std::filesystem::path>& logFiles,
      const std::filesystem::path& outPath);

  /// Convenience: adjacency -> graph.
  graph::Graph synthesizeGraph(
      const std::vector<std::filesystem::path>& logFiles);
  graph::Graph synthesizeGraph(const table::EventTable& events);

  const SynthesisConfig& config() const noexcept { return config_; }
  const SynthesisReport& report() const noexcept { return report_; }

 private:
  /// Runs stages 2-6 on one batch table, accumulating into exactly one of
  /// `dense` (unbounded path) or `sink` (memory-budgeted path).
  void processBatch(const table::EventTable& events,
                    sparse::SymmetricAdjacency* dense,
                    sparse::SpillingAccumulator* sink);

  /// Runs the full batched file pipeline (resume, prefetch, checkpoints)
  /// into the chosen accumulator; shared by the in-memory and to-file
  /// entry points.
  void runFilePipeline(const std::vector<std::filesystem::path>& logFiles,
                       sparse::SymmetricAdjacency* dense,
                       sparse::SpillingAccumulator* sink);

  /// Stage-4 weight of one matrix (nnz, or occupancy-scaled per config).
  std::uint64_t partitionWeight(const sparse::CollocationMatrix& matrix) const;

  /// Stage-6 tail under a memory budget: builds the shard merge plan,
  /// reuses validated segments restored by a resume, runs the remaining
  /// shards through the executor's owners (with a per-segment checkpoint
  /// when checkpointing; an empty `logFiles` means a single in-memory
  /// batch, which has no checkpoint), splices the segments into `outPath`
  /// in ascending shard order, and folds the spill stats into the report.
  /// Returns the edge count.
  std::uint64_t mergeShardsToFile(
      const std::vector<std::filesystem::path>& logFiles,
      sparse::SpillingAccumulator& sink, const std::filesystem::path& outPath);

  /// mergeShardsToFile into the spill directory, read back into `result`:
  /// the budgeted synthesizeAdjacency tail.
  void materializeMerge(const std::vector<std::filesystem::path>& logFiles,
                        sparse::SpillingAccumulator& sink,
                        sparse::SymmetricAdjacency& result);

  SynthesisConfig config_;
  SynthesisReport report_;
  std::unique_ptr<SynthesisExecutor> executor_;
  /// Set when spillDir was auto-resolved to a temp dir this instance owns
  /// (and removes on destruction).
  std::filesystem::path ownedSpillDir_;
  /// Merge segments restored by a resume (shard, file name, identity) for
  /// synthesizeToFile to splice without re-merging; cleared per pipeline
  /// run. Kept as opaque tuples to avoid a checkpoint.hpp dependency here.
  struct RestoredSegment {
    std::uint32_t shard = 0;
    std::string file;
    std::uint64_t triplets = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<RestoredSegment> restoredSegments_;
};

/// Reference implementation for correctness tests: computes pairwise
/// collocation weights by brute force — for every hour and place, every
/// pair of present persons — without any of the pipeline machinery.
sparse::SymmetricAdjacency bruteForceAdjacency(const table::EventTable& events,
                                               table::Hour windowStart,
                                               table::Hour windowEnd);

}  // namespace chisimnet::net

#include "chisimnet/net/synthesis.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <system_error>

#include <unistd.h>

#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/elog/prefetch.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::net {

namespace {

/// Unique-per-instance suffix for auto-resolved temp spill directories
/// (several synthesizers can coexist in one test process).
std::uint64_t nextSpillDirSerial() {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

sparse::SpillingAccumulator::Options sinkOptions(
    const SynthesisConfig& config) {
  sparse::SpillingAccumulator::Options options;
  options.dir = config.spillDir;
  options.budgetBytes = config.memoryBudgetBytes;
  // Checkpoint manifests reference live run files by name, so the
  // originals of split runs must stay on disk until the next manifest
  // stops naming them.
  options.deferDeletes = !config.checkpointDir.empty();
  // The sink's row-range shards are the merge shards, so its spills are
  // shard-pure too.
  options.rowsPerShard = resolvedMergeRowsPerShard(config);
  options.frameTriplets = resolvedSpillFrameTriplets(config);
  return options;
}

void foldSpillStats(SynthesisReport& report, const sparse::SpillStats& stats) {
  report.spillRunsWritten = stats.runsWritten;
  report.spilledTriplets = stats.spilledTriplets;
  report.spilledBytes = stats.spilledBytes;
  report.spillCompactions = stats.compactions;
  report.peakAccumulatorBytes = stats.peakResidentBytes;
  report.peakStage5Bytes = stats.peakWorkerBytes;
  report.spillRunsSplit = stats.runsSplit;
  report.peakMergeReaderBytes = stats.peakMergeReaderBytes;
}

}  // namespace

unsigned resolvedReduceShards(const SynthesisConfig& config) noexcept {
  return config.reduceShards != 0 ? config.reduceShards
                                  : std::max(1u, config.workers);
}

std::uint32_t resolvedMergeRowsPerShard(
    const SynthesisConfig& config) noexcept {
  return config.mergeRowsPerShard != 0 ? config.mergeRowsPerShard
                                       : sparse::kMergeRowsPerShard;
}

std::uint64_t resolvedSpillFrameTriplets(
    const SynthesisConfig& config) noexcept {
  return config.memoryBudgetBytes == 0
             ? sparse::kSpillFrameTriplets
             : sparse::spillFrameTripletsWithin(config.memoryBudgetBytes /
                                                resolvedReduceShards(config));
}

NetworkSynthesizer::NetworkSynthesizer(SynthesisConfig config)
    : config_(config) {
  CHISIM_REQUIRE(config.windowStart < config.windowEnd,
                 "time window must be non-empty");
  CHISIM_REQUIRE(config.workers >= 1, "need at least one worker");
  CHISIM_REQUIRE(!config.prefetch || config.prefetchDepth >= 1,
                 "prefetch depth must be >= 1");
  // No silent ignores: a config that asks for behavior the pipeline will
  // not deliver is an error, not a no-op.
  CHISIM_REQUIRE(config.prefetch || config.decodeWorkers == 0,
                 "decodeWorkers requires prefetch; drop --decode-workers or "
                 "enable prefetching");
  CHISIM_REQUIRE(config.commandMaxAttempts >= 1,
                 "commandMaxAttempts must be >= 1");
  CHISIM_REQUIRE(
      config.faultPolicy == FaultPolicy::kDegrade ||
          config.maxQuarantinedFiles == 0,
      "a quarantine limit requires --fault-policy degrade; under failfast "
      "the first corrupt file aborts the run anyway");
  CHISIM_REQUIRE(!config.resume || !config.checkpointDir.empty(),
                 "resume requires a checkpoint directory");
  CHISIM_REQUIRE(config.transport == MpTransport::kInProcess ||
                     config.backend == SynthesisBackend::kMessagePassing,
                 "--transport process/tcp requires --backend mp");
  CHISIM_REQUIRE(config.maxRespawns >= 0, "maxRespawns must be >= 0");
  CHISIM_REQUIRE(config.transport == MpTransport::kInProcess ||
                     config.heartbeatMs >= 1,
                 "heartbeatMs must be >= 1");
  CHISIM_REQUIRE(config.transport == MpTransport::kInProcess ||
                     config.faultPolicy != FaultPolicy::kDegrade ||
                     config.commandTimeoutMs > 0,
                 "the process/tcp transport under --fault-policy degrade "
                 "requires --command-timeout-ms > 0: a crashed worker never "
                 "replies, so without a deadline the root hangs instead of "
                 "recovering");
  CHISIM_REQUIRE(config.connectRetries >= 0, "connectRetries must be >= 0");
  CHISIM_REQUIRE(config.transport != MpTransport::kTcp ||
                     config.connectTimeoutMs >= 1,
                 "connectTimeoutMs must be >= 1");
  CHISIM_REQUIRE(config.tcpListen.empty() ||
                     config.transport == MpTransport::kTcp,
                 "--tcp-listen requires --transport tcp");
  CHISIM_REQUIRE(config.tcpJob.empty() || !config.tcpListen.empty(),
                 "--tcp-job requires --tcp-listen (external workers need a "
                 "known address to dial)");
  // Resolve the spill directory. A checkpointing run pins it under the
  // checkpoint directory so a resumed run (possibly a different process,
  // possibly a different budget) finds the manifest's run files without
  // extra flags. Otherwise a budgeted run — or any MP run, whose replies
  // auto-spill when they would exceed the payload cap — gets a private
  // temp directory that this instance removes on destruction.
  if (config_.spillDir.empty()) {
    if (!config_.checkpointDir.empty()) {
      config_.spillDir = config_.checkpointDir / "spill";
    } else if (config_.memoryBudgetBytes > 0 ||
               config_.backend == SynthesisBackend::kMessagePassing) {
      ownedSpillDir_ =
          std::filesystem::temp_directory_path() /
          ("chisim-spill-" + std::to_string(::getpid()) + "-" +
           std::to_string(nextSpillDirSerial()));
      config_.spillDir = ownedSpillDir_;
    }
  }
  executor_ = makeExecutor(config_);
}

NetworkSynthesizer::~NetworkSynthesizer() {
  if (!ownedSpillDir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(ownedSpillDir_, ignored);
  }
}

std::uint64_t NetworkSynthesizer::partitionWeight(
    const sparse::CollocationMatrix& matrix) const {
  if (!config_.occupancyWeight) {
    // The paper's §IV.A.3 scheme: plain nonzero (person-hour) count.
    return matrix.nnz();
  }
  // Occupancy-scaled: nnz times mean simultaneous occupancy
  // (nnz / occupied hours). The x·xᵀ cost of a hub place grows with how
  // many people overlap per hour, which nnz alone underestimates; dividing
  // by occupied hours rather than sliceHours keeps sparse-attendance
  // places from being undercounted into the bargain.
  const std::uint64_t occupied = std::max<std::uint64_t>(
      1, matrix.occupiedHours());
  return std::max<std::uint64_t>(1, matrix.nnz() * matrix.nnz() / occupied);
}

void NetworkSynthesizer::processBatch(const table::EventTable& events,
                                      sparse::SymmetricAdjacency* dense,
                                      sparse::SpillingAccumulator* sink) {
  CHISIM_REQUIRE((dense != nullptr) != (sink != nullptr),
                 "processBatch needs exactly one accumulation target");
  util::WallTimer timer;

  // Stage 2: subset the slice, index places, and hand the groups to the
  // executor's workers. The input table has already been window-filtered on
  // load; the place index is the per-place grouping workers consume.
  runtime::fault::hit("driver.subset");
  const table::PlaceIndex placeIndex = events.buildPlaceIndex();
  executor_->scatterPlaces(events, placeIndex);
  report_.subsetSeconds += timer.seconds();
  timer.reset();

  // Stage 3: per-place collocation matrices, returned to the driver (the
  // paper's "returned to the root process").
  runtime::fault::hit("driver.collocation");
  const std::vector<sparse::CollocationMatrix> matrices =
      executor_->mapCollocation();
  report_.collocationSeconds += timer.seconds();
  timer.reset();

  report_.placesProcessed += matrices.size();
  for (const sparse::CollocationMatrix& matrix : matrices) {
    report_.collocationNnz += matrix.nnz();
  }

  // Stage 4: weigh every matrix by its adjacency cost (nnz, or
  // occupancy-scaled behind config.occupancyWeight) — the weights behind
  // the re-partition §IV.A.3 calls crucial for even load balance. Stage 5
  // schedules by them: heaviest-first pulling on shared memory, a static
  // LPT rank partition on message passing.
  runtime::fault::hit("driver.partition");
  std::vector<std::uint64_t> weights;
  weights.reserve(matrices.size());
  for (const sparse::CollocationMatrix& matrix : matrices) {
    weights.push_back(partitionWeight(matrix));
  }
  report_.partitionSeconds += timer.seconds();
  timer.reset();

  // Stage 5: per-worker adjacency accumulation (no shared state); the
  // sums stay inside the executor until the reduce.
  runtime::fault::hit("driver.adjacency");
  const AdjacencySchedule schedule =
      executor_->mapAdjacency(matrices, weights);
  report_.adjacencySeconds += timer.seconds();
  report_.partitionImbalance = schedule.imbalance;
  report_.partitionLoads = schedule.loads;
  report_.adjacencyBusyImbalance = executor_->adjacencyBusyImbalance();
  timer.reset();

  // Stage 6: fold the worker sums into the running result — into the
  // sharded in-memory adjacency, or under a memory budget into the spilling
  // accumulator, which adopts worker run files in place of merging maps.
  runtime::fault::hit("driver.reduce");
  if (dense != nullptr) {
    executor_->reduce(*dense);
  } else {
    executor_->reduceInto(*sink);
  }
  report_.reduceSeconds += timer.seconds();
  if (dense != nullptr) {
    report_.reduceShardCount = dense->shardCount();
  }

  // Kernel counters ride on the result (merged up the reduce alongside the
  // weights), so they are cumulative across batches: copy, don't add.
  const sparse::AdjacencyKernelStats& kernel =
      dense != nullptr ? dense->kernelStats() : sink->kernelStats();
  report_.kernelDensePlaces = kernel.densePlaces;
  report_.kernelHashPlaces = kernel.hashPlaces;
  report_.kernelPairHourUpdates = kernel.pairHourUpdates;
  report_.kernelGlobalEmits = kernel.globalEmits;
  report_.mergeReservedEntries = kernel.mergeReservedEntries;
}

void NetworkSynthesizer::runFilePipeline(
    const std::vector<std::filesystem::path>& logFiles,
    sparse::SymmetricAdjacency* dense, sparse::SpillingAccumulator* sink) {
  CHISIM_REQUIRE(!logFiles.empty(), "no log files given");
  report_ = SynthesisReport{};
  report_.backend = config_.backend;
  report_.memoryBudgetBytes = config_.memoryBudgetBytes;
  restoredSegments_.clear();
  executor_->resetTransferCounters();

  const bool degrade = config_.faultPolicy == FaultPolicy::kDegrade;
  const bool checkpointing = !config_.checkpointDir.empty();

  std::uint64_t filesConsumed = 0;
  std::optional<InflightBatch> inflight;
  if (config_.resume) {
    // Adjacency summation is order-independent u64 addition, and both
    // snapshot forms round-trip exactly (CADJ is a lossless dump; spill
    // runs are the accumulated state itself), so restoring the checkpoint
    // and replaying only the remaining batches reproduces the
    // uninterrupted run bit for bit — in either accumulation mode,
    // regardless of which mode wrote the checkpoint (the budget is a perf
    // knob outside the config hash).
    const auto manifest = loadCheckpointManifest(config_.checkpointDir);
    CHISIM_CHECK(manifest.has_value(), "no checkpoint to resume from in " +
                                           config_.checkpointDir.string());
    CHISIM_CHECK(
        manifest->configHash == checkpointConfigHash(config_, logFiles),
        "checkpoint in " + config_.checkpointDir.string() +
            " was written by a different config or file list; refusing to "
            "resume into a corrupted result");
    CHISIM_CHECK(manifest->filesConsumed <= logFiles.size(),
                 "checkpoint cursor is beyond the given file list");
    if (manifest->spillMode) {
      // The checkpointed sum is the manifest's set of live spill runs.
      for (const SpillRunEntry& entry : manifest->spillRuns) {
        sparse::SpillRunInfo info;
        info.file = config_.spillDir / entry.file;
        info.triplets = entry.triplets;
        info.bytes = entry.bytes;
        info.hasKeyRange = entry.hasKeyRange;
        info.firstKey = entry.firstKey;
        info.lastKey = entry.lastKey;
        if (sink != nullptr) {
          // Keep the manifest's file names: renaming would break a second
          // resume if this run dies before its first checkpoint.
          sink->restoreRunFile(info);
        } else {
          // Spill checkpoint resumed without a budget: fold the runs into
          // the dense map (duplicate pairs across runs sum on add).
          sparse::SpillRunReader reader(info.file);
          dense->addAll(reader);
        }
      }
      // Merge segments completed by a previous life (killed during the
      // sharded merge): remembered so synthesizeToFile can splice the
      // validated segment instead of re-merging its shard. Processing any
      // further batch invalidates them (finishBatch clears the list).
      if (sink != nullptr) {
        for (const MergeSegmentEntry& segment : manifest->mergeSegments) {
          restoredSegments_.push_back(RestoredSegment{segment.shard,
                                                      segment.file,
                                                      segment.triplets,
                                                      segment.bytes,
                                                      segment.crc});
        }
      }
    } else if (dense != nullptr) {
      *dense = loadCheckpointAdjacency(config_.checkpointDir, *manifest);
    } else {
      // Dense checkpoint resumed under a budget: the snapshot is one
      // sorted run (CADJ rows are written in packed-key order).
      sink->addSortedRun(
          sparse::loadTriplets(config_.checkpointDir / manifest->adjacencyFile));
    }
    filesConsumed = manifest->filesConsumed;
    report_.batches = manifest->batchesDone;
    report_.quarantined = manifest->quarantined;
    report_.resumed = true;
    report_.filesSkippedByResume = filesConsumed;
    FaultEvent event;
    event.kind = FaultEvent::Kind::kResume;
    event.batch = manifest->batchesDone;
    event.detail = "resumed after file " + std::to_string(filesConsumed) +
                   " of " + std::to_string(logFiles.size());
    report_.faults.push_back(std::move(event));
    // The checkpoint may carry the batch that was decoded but unprocessed
    // when the run died; restoring it skips one batch of re-decode. Its
    // contents equal what re-decoding those files would produce, so the
    // output is bit-identical either way.
    inflight = loadCheckpointInflight(config_.checkpointDir, *manifest);
    if (inflight) {
      CHISIM_CHECK(
          filesConsumed + inflight->filesInBatch <= logFiles.size(),
          "checkpoint in-flight batch is beyond the given file list");
      report_.inflightRestored = true;
      FaultEvent restored;
      restored.kind = FaultEvent::Kind::kResume;
      restored.batch = manifest->batchesDone;
      restored.detail = "restored in-flight batch of " +
                        std::to_string(inflight->filesInBatch) +
                        " files (decode skipped)";
      report_.faults.push_back(std::move(restored));
    }
  }
  // The restored in-flight batch covers the first files after the cursor;
  // the disk loaders take over from just past it.
  const std::size_t skipFiles =
      static_cast<std::size_t>(filesConsumed) +
      static_cast<std::size_t>(inflight ? inflight->filesInBatch : 0);
  const std::vector<std::filesystem::path> remaining(
      logFiles.begin() + static_cast<std::ptrdiff_t>(skipFiles),
      logFiles.end());

  // Bookkeeping shared by both load paths, run after each batch: fold in
  // quarantine entries and executor recovery events, enforce the
  // quarantine limit, and persist the checkpoint. The driver.batch fault
  // site fires last, i.e. after the checkpoint — a kThrow there models a
  // crash between batches, which the kill-and-resume test exploits.
  const auto finishBatch = [this, &logFiles, &filesConsumed, dense, sink,
                            checkpointing](
                               std::vector<elog::QuarantinedFile> quarantined,
                               std::size_t filesInBatch,
                               const InflightBatch* nextInflight) {
    filesConsumed += filesInBatch;
    ++report_.batches;
    // New data supersedes any merge segments restored from a checkpoint:
    // their shards' run sets just changed.
    restoredSegments_.clear();
    for (elog::QuarantinedFile& entry : quarantined) {
      FaultEvent event;
      event.kind = FaultEvent::Kind::kFileQuarantined;
      event.batch = report_.batches;
      event.detail = entry.file.string() + ": " + entry.reason;
      report_.faults.push_back(std::move(event));
      report_.quarantined.push_back(std::move(entry));
    }
    CHISIM_CHECK(
        config_.maxQuarantinedFiles == 0 ||
            report_.quarantined.size() <= config_.maxQuarantinedFiles,
        std::to_string(report_.quarantined.size()) +
            " input files quarantined, more than the configured limit of " +
            std::to_string(config_.maxQuarantinedFiles));
    for (FaultEvent& event : executor_->drainFaultEvents()) {
      event.batch = report_.batches;
      if (event.kind == FaultEvent::Kind::kCommandRetry) {
        ++report_.commandRetries;
      } else if (event.kind == FaultEvent::Kind::kRankLost) {
        ++report_.ranksLost;
      } else if (event.kind == FaultEvent::Kind::kWorkerRespawn) {
        ++report_.workersRespawned;
      } else if (event.kind == FaultEvent::Kind::kWorkerReconnect) {
        ++report_.workersReconnected;
      }
      report_.faults.push_back(std::move(event));
    }
    if (checkpointing) {
      CheckpointManifest manifest;
      manifest.filesConsumed = filesConsumed;
      manifest.batchesDone = report_.batches;
      manifest.configHash = checkpointConfigHash(config_, logFiles);
      manifest.quarantined = report_.quarantined;
      if (sink != nullptr) {
        // Persist the accumulated sum as the set of live run files: spill
        // everything resident (each run lands via tmp+rename, so every
        // file the manifest will name is already durable), then write the
        // manifest naming them.
        sink->spillAll();
        manifest.spillMode = true;
        for (const sparse::SpillRunInfo& run : sink->liveRuns()) {
          manifest.spillRuns.push_back(
              SpillRunEntry{run.file.filename().string(), run.triplets,
                            run.bytes, run.hasKeyRange, run.firstKey,
                            run.lastKey});
        }
        saveSpillCheckpoint(config_.checkpointDir, manifest, config_.spillDir,
                            nextInflight);
      } else {
        saveCheckpoint(config_.checkpointDir, manifest, *dense, nextInflight);
      }
      ++report_.checkpointsWritten;
      FaultEvent event;
      event.kind = FaultEvent::Kind::kCheckpoint;
      event.batch = report_.batches;
      event.detail =
          "checkpoint after file " + std::to_string(filesConsumed);
      if (nextInflight != nullptr) {
        event.detail += " with in-flight batch of " +
                        std::to_string(nextInflight->filesInBatch) + " files";
      }
      report_.faults.push_back(std::move(event));
    }
    runtime::fault::hit("driver.batch");
  };

  if (config_.prefetch) {
    // Two-stage pipeline: a background loader decodes batch k+1 while this
    // thread runs stages 2-6 on batch k.
    elog::PrefetchingLoader::Options options;
    options.windowStart = config_.windowStart;
    options.windowEnd = config_.windowEnd;
    options.filesPerBatch = config_.filesPerBatch;
    options.depth = config_.prefetchDepth;
    options.decodeWorkers =
        config_.decodeWorkers == 0 ? config_.workers : config_.decodeWorkers;
    options.quarantineCorrupt = degrade;
    elog::PrefetchingLoader loader(remaining, options);
    // Checkpointing captures the loader's head batch (decoded, not yet
    // processed) so a killed run resumes without re-decoding it.
    const auto peekInflight = [&loader,
                               checkpointing]() -> std::optional<InflightBatch> {
      if (!checkpointing) {
        return std::nullopt;
      }
      std::optional<elog::LoadedBatch> peeked = loader.peekReady();
      if (!peeked) {
        return std::nullopt;
      }
      InflightBatch next;
      next.events = std::move(peeked->table);
      next.quarantined = std::move(peeked->quarantined);
      next.filesInBatch = peeked->filesInBatch;
      return next;
    };
    if (inflight) {
      // The batch restored from the checkpoint runs first, before any
      // disk load: its decode already happened in the previous life.
      report_.logEntriesLoaded += inflight->events.size();
      processBatch(inflight->events, dense, sink);
      const std::optional<InflightBatch> next = peekInflight();
      finishBatch(std::move(inflight->quarantined),
                  static_cast<std::size_t>(inflight->filesInBatch),
                  next ? &*next : nullptr);
      inflight.reset();
    }
    while (std::optional<elog::LoadedBatch> batch = loader.next()) {
      report_.logEntriesLoaded += batch->table.size();
      processBatch(batch->table, dense, sink);
      const std::optional<InflightBatch> next = peekInflight();
      finishBatch(std::move(batch->quarantined), batch->filesInBatch,
                  next ? &*next : nullptr);
    }
    const elog::PrefetchStats stats = loader.stats();
    report_.prefetchEnabled = true;
    report_.loadSeconds = stats.decodeSeconds;
    report_.loadExposedSeconds = stats.exposedSeconds;
    report_.loadOverlappedSeconds =
        std::max(0.0, stats.decodeSeconds - stats.exposedSeconds);
    report_.prefetchMeanOccupancy = stats.meanOccupancy;
    report_.prefetchPeakOccupancy = stats.peakOccupancy;
  } else {
    if (inflight) {
      // A checkpoint written by a prefetching run can still be resumed
      // with prefetch off: the snapshot is just a decoded batch.
      report_.logEntriesLoaded += inflight->events.size();
      processBatch(inflight->events, dense, sink);
      finishBatch(std::move(inflight->quarantined),
                  static_cast<std::size_t>(inflight->filesInBatch), nullptr);
      inflight.reset();
    }
    const std::size_t batchSize =
        config_.filesPerBatch == 0 ? logFiles.size() : config_.filesPerBatch;
    for (std::size_t begin = 0; begin < remaining.size(); begin += batchSize) {
      const std::size_t end = std::min(remaining.size(), begin + batchSize);
      const std::vector<std::filesystem::path> batch(remaining.begin() + begin,
                                                     remaining.begin() + end);
      util::WallTimer loadTimer;
      runtime::fault::hit("driver.load");
      std::vector<elog::QuarantinedFile> batchQuarantine;
      table::EventTable events =
          degrade ? elog::loadEventsQuarantining(batch, config_.windowStart,
                                                 config_.windowEnd,
                                                 batchQuarantine)
                  : elog::loadEvents(batch, config_.windowStart,
                                     config_.windowEnd);
      report_.loadSeconds += loadTimer.seconds();
      report_.logEntriesLoaded += events.size();

      processBatch(events, dense, sink);
      finishBatch(std::move(batchQuarantine), batch.size(), nullptr);
    }
    report_.loadExposedSeconds = report_.loadSeconds;
  }
  report_.bytesScattered = executor_->bytesScattered();
  report_.bytesReturned = executor_->bytesReturned();
}

sparse::SymmetricAdjacency NetworkSynthesizer::synthesizeAdjacency(
    const std::vector<std::filesystem::path>& logFiles) {
  util::WallTimer total;
  sparse::SymmetricAdjacency result;
  if (config_.memoryBudgetBytes == 0) {
    runFilePipeline(logFiles, &result, nullptr);
  } else {
    // Budgeted accumulation with an in-memory materialization at the end:
    // the convenient form for tests and modest inputs. City-scale runs
    // should use synthesizeToFile, which streams the merge to disk.
    sparse::SpillingAccumulator sink(sinkOptions(config_));
    runFilePipeline(logFiles, nullptr, &sink);
    util::WallTimer reduceTimer;
    materializeMerge(logFiles, sink, result);
    report_.reduceSeconds += reduceTimer.seconds();
  }
  report_.edges = result.edgeCount();
  report_.totalSeconds = total.seconds();
  return result;
}

std::uint64_t NetworkSynthesizer::synthesizeToFile(
    const std::vector<std::filesystem::path>& logFiles,
    const std::filesystem::path& outPath) {
  CHISIM_REQUIRE(config_.memoryBudgetBytes > 0,
                 "synthesizeToFile requires a memory budget (it exists so "
                 "the result never has to fit in memory)");
  util::WallTimer total;
  sparse::SpillingAccumulator sink(sinkOptions(config_));
  runFilePipeline(logFiles, nullptr, &sink);
  // The owners' merge and the splice finish stage 6.
  util::WallTimer reduceTimer;
  const std::uint64_t edges = mergeShardsToFile(logFiles, sink, outPath);
  report_.reduceSeconds += reduceTimer.seconds();
  report_.edges = edges;
  report_.totalSeconds = total.seconds();
  return edges;
}

void NetworkSynthesizer::materializeMerge(
    const std::vector<std::filesystem::path>& logFiles,
    sparse::SpillingAccumulator& sink, sparse::SymmetricAdjacency& result) {
  // The same owner merge as synthesizeToFile, into a CADJ in the spill
  // directory that is read back: (i, j)-sorted, so addAll sizes each
  // shard once for its rows and the drain never rehashes.
  const std::filesystem::path merged = config_.spillDir / "merged.cadj";
  mergeShardsToFile(logFiles, sink, merged);
  const std::vector<sparse::AdjacencyTriplet> triplets =
      sparse::loadTriplets(merged);
  std::filesystem::remove(merged);
  report_.mergeReservedEntries += triplets.size();
  sparse::SpanTripletSource source(triplets);
  result.addAll(source);
  result.addKernelStats(sink.kernelStats());
}

std::uint64_t NetworkSynthesizer::mergeShardsToFile(
    const std::vector<std::filesystem::path>& logFiles,
    sparse::SpillingAccumulator& sink, const std::filesystem::path& outPath) {
  // A single in-memory batch (no file list) has no cursor to checkpoint.
  const bool checkpointing =
      !config_.checkpointDir.empty() && !logFiles.empty();
  // The plan routes every live run to its row-range shard, splitting
  // straddlers; under deferDeletes the split inputs stay on disk so the
  // previous manifest remains resumable until the next one is written.
  std::vector<sparse::SpillingAccumulator::ShardRunGroup> plan =
      sink.buildShardMergePlan();

  // Segments completed by a previous life: splice them instead of
  // re-merging their shards. Validation here is existence plus recorded
  // size; content integrity is re-verified by CRC at splice time.
  std::map<std::uint32_t, sparse::ShardSegment> completed;
  for (const RestoredSegment& restored : restoredSegments_) {
    const std::filesystem::path file = config_.spillDir / restored.file;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(file, ec);
    if (ec || size != restored.bytes) {
      continue;  // half-written husk: its shard re-merges from the runs
    }
    sparse::ShardSegment segment;
    segment.shard = restored.shard;
    segment.file = file;
    segment.triplets = restored.triplets;
    segment.bytes = restored.bytes;
    segment.crc = restored.crc;
    completed.emplace(restored.shard, std::move(segment));
  }
  report_.mergeSegmentsReused = completed.size();
  restoredSegments_.clear();

  std::vector<sparse::SpillingAccumulator::ShardRunGroup> todo;
  todo.reserve(plan.size());
  for (sparse::SpillingAccumulator::ShardRunGroup& group : plan) {
    if (!completed.contains(group.shard)) {
      todo.push_back(std::move(group));
    }
  }

  const auto buildManifest = [&]() {
    CheckpointManifest manifest;
    manifest.filesConsumed = logFiles.size();
    manifest.batchesDone = report_.batches;
    manifest.configHash = checkpointConfigHash(config_, logFiles);
    manifest.quarantined = report_.quarantined;
    manifest.spillMode = true;
    for (const sparse::SpillRunInfo& run : sink.liveRuns()) {
      manifest.spillRuns.push_back(SpillRunEntry{run.file.filename().string(),
                                                 run.triplets, run.bytes,
                                                 run.hasKeyRange, run.firstKey,
                                                 run.lastKey});
    }
    for (const auto& [shard, done] : completed) {
      manifest.mergeSegments.push_back(
          MergeSegmentEntry{shard, done.file.filename().string(),
                            done.triplets, done.bytes, done.crc});
    }
    return manifest;
  };

  // Pre-merge checkpoint, written at this serial point so the spill-dir GC
  // cannot race owner threads: it references the post-split runs and the
  // reused segments, and sweeps everything else — previous-life merge
  // husks, superseded segments, and the split straddler originals the
  // previous manifest needed. Mid-merge checkpoints below skip the sweep
  // (gcSpillDir=false): a GC there would delete other owners' in-flight
  // .cseg.tmp files and freshly renamed segments its manifest predates.
  if (checkpointing) {
    saveSpillCheckpoint(config_.checkpointDir, buildManifest(),
                        config_.spillDir);
    ++report_.checkpointsWritten;
  }
  // The new manifest (or, without checkpointing, nothing) references the
  // split originals no longer — drop them now.
  for (const std::filesystem::path& retired : sink.takeRetiredFiles()) {
    std::error_code ignored;
    std::filesystem::remove(retired, ignored);
  }

  // Per-segment checkpoint: after each shard lands, persist the manifest
  // so a killed merge resumes with only the unfinished shards. The runs
  // stay listed (and on disk) even for finished shards — a resume
  // re-validates segments against them and re-merges any that fail. The
  // spill.shard fault site fires after the checkpoint, modeling a crash
  // between segments.
  const auto onSegment = [&](const sparse::ShardSegment& segment) {
    completed.emplace(segment.shard, segment);
    ++report_.mergeSegmentsWritten;
    report_.mergeSeconds += segment.mergeSeconds;
    if (checkpointing) {
      saveSpillCheckpoint(config_.checkpointDir, buildManifest(),
                          config_.spillDir, nullptr, /*gcSpillDir=*/false);
      ++report_.checkpointsWritten;
    }
    runtime::fault::hit("spill.shard");
  };

  std::vector<sparse::ShardSegment> merged;
  if (!todo.empty()) {
    merged = executor_->mergeSpillShards(todo, onSegment);
  }
  // Modeled parallel merge time: the busiest owner's summed thread-CPU
  // seconds (reused segments cost nothing this run, so they don't count).
  // The owners' intermediate passes are spill activity like the sink's.
  sparse::SpillStats stats = sink.stats();
  std::map<unsigned, double> perOwner;
  for (const sparse::ShardSegment& segment : merged) {
    perOwner[segment.owner] += segment.mergeSeconds;
    stats.addSegment(segment);
  }
  foldSpillStats(report_, stats);
  report_.reduceShardsUsed = static_cast<unsigned>(perOwner.size());
  for (const auto& [owner, seconds] : perOwner) {
    report_.mergeCriticalSeconds =
        std::max(report_.mergeCriticalSeconds, seconds);
  }

  // Splice: ascending shard order over disjoint ascending key ranges is
  // the globally sorted stream, so the concatenation is byte-identical to
  // saveAdjacency's CADJ of the same sum (same rows, same framing).
  // appendSegmentFile re-verifies each segment's CRC as it copies.
  sparse::StreamingTripletWriter writer(outPath);
  for (const auto& [shard, segment] : completed) {
    const sparse::TripletSegmentInfo info{segment.triplets, segment.bytes,
                                          segment.crc};
    writer.appendSegmentFile(segment.file, info);
  }
  return writer.finish();
}

sparse::SymmetricAdjacency NetworkSynthesizer::synthesizeAdjacency(
    const table::EventTable& events) {
  report_ = SynthesisReport{};
  report_.backend = config_.backend;
  report_.memoryBudgetBytes = config_.memoryBudgetBytes;
  restoredSegments_.clear();
  executor_->resetTransferCounters();
  util::WallTimer total;
  report_.logEntriesLoaded = events.size();

  sparse::SymmetricAdjacency result;
  if (config_.memoryBudgetBytes == 0) {
    processBatch(events, &result, nullptr);
  } else {
    sparse::SpillingAccumulator sink(sinkOptions(config_));
    processBatch(events, nullptr, &sink);
    util::WallTimer reduceTimer;
    materializeMerge({}, sink, result);
    report_.reduceSeconds += reduceTimer.seconds();
  }
  report_.batches = 1;
  for (FaultEvent& event : executor_->drainFaultEvents()) {
    event.batch = 1;
    if (event.kind == FaultEvent::Kind::kCommandRetry) {
      ++report_.commandRetries;
    } else if (event.kind == FaultEvent::Kind::kRankLost) {
      ++report_.ranksLost;
    } else if (event.kind == FaultEvent::Kind::kWorkerRespawn) {
      ++report_.workersRespawned;
    } else if (event.kind == FaultEvent::Kind::kWorkerReconnect) {
      ++report_.workersReconnected;
    }
    report_.faults.push_back(std::move(event));
  }
  report_.edges = result.edgeCount();
  report_.bytesScattered = executor_->bytesScattered();
  report_.bytesReturned = executor_->bytesReturned();
  report_.totalSeconds = total.seconds();
  return result;
}

graph::Graph NetworkSynthesizer::synthesizeGraph(
    const std::vector<std::filesystem::path>& logFiles) {
  const sparse::SymmetricAdjacency adjacency = synthesizeAdjacency(logFiles);
  return graph::Graph::fromTriplets(adjacency.toTriplets());
}

graph::Graph NetworkSynthesizer::synthesizeGraph(
    const table::EventTable& events) {
  const sparse::SymmetricAdjacency adjacency = synthesizeAdjacency(events);
  return graph::Graph::fromTriplets(adjacency.toTriplets());
}

sparse::SymmetricAdjacency bruteForceAdjacency(const table::EventTable& events,
                                               table::Hour windowStart,
                                               table::Hour windowEnd) {
  // (place, hour) -> set of persons present; dedup handled by the set.
  std::map<std::pair<table::PlaceId, table::Hour>, std::set<table::PersonId>>
      presence;
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const table::Event event = events.row(row);
    const table::Hour from = std::max(event.start, windowStart);
    const table::Hour to = std::min(event.end, windowEnd);
    for (table::Hour hour = from; hour < to; ++hour) {
      presence[{event.place, hour}].insert(event.person);
    }
  }
  sparse::SymmetricAdjacency adjacency;
  for (const auto& [key, persons] : presence) {
    for (auto a = persons.begin(); a != persons.end(); ++a) {
      for (auto b = std::next(a); b != persons.end(); ++b) {
        adjacency.add(*a, *b, 1);
      }
    }
  }
  return adjacency;
}

}  // namespace chisimnet::net

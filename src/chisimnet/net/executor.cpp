#include "chisimnet/net/executor.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::net {

SharedMemoryExecutor::SharedMemoryExecutor(const SynthesisConfig& config)
    : SynthesisExecutor(config), cluster_(config.workers) {}

void SharedMemoryExecutor::scatterPlaces(const table::EventTable& events,
                                         const table::PlaceIndex& index) {
  // Workers share the address space; "scattering" is pinning the slice.
  events_ = &events;
  index_ = &index;
}

std::vector<sparse::CollocationMatrix> SharedMemoryExecutor::mapCollocation() {
  CHISIM_REQUIRE(events_ != nullptr && index_ != nullptr,
                 "mapCollocation before scatterPlaces");
  // Workers pull places dynamically (matches SNOW's dispatch of place-id
  // subsets).
  std::vector<sparse::CollocationMatrix> matrices(index_->placeIds.size());
  cluster_.applyDynamic(
      index_->placeIds.size(), [&](std::size_t group, unsigned) {
        matrices[group] = sparse::buildCollocationMatrix(
            *events_, *index_, group, config_.windowStart, config_.windowEnd);
      });
  events_ = nullptr;
  index_ = nullptr;
  // Drop empty matrices (places with no presence inside the window).
  std::erase_if(matrices,
                [](const sparse::CollocationMatrix& m) { return m.nnz() == 0; });
  return matrices;
}

AdjacencySchedule SharedMemoryExecutor::mapAdjacency(
    const std::vector<sparse::CollocationMatrix>& matrices,
    std::span<const std::uint64_t> weights) {
  CHISIM_REQUIRE(weights.size() == matrices.size(),
                 "stage 5 needs one weight per matrix");
  spillSums_.clear();
  workerSums_.clear();
  if (config_.memoryBudgetBytes > 0) {
    // Budgeted stage 5: each worker sums into a flushing SpillingSum whose
    // threshold is an eighth of its budget share — the sink keeps the other
    // half of the budget for the cross-batch shards and their spill-sort
    // transient. Run-file names carry worker and batch indices so adopted
    // files from earlier batches are never overwritten.
    CHISIM_REQUIRE(!config_.spillDir.empty(),
                   "memory budget requires a spill directory");
    const std::uint64_t threshold = std::max<std::uint64_t>(
        config_.memoryBudgetBytes / (8 * std::max(1u, config_.workers)), 1);
    // Every flush is split at merge-shard boundaries (shard-pure runs).
    const std::uint32_t splitRows = resolvedMergeRowsPerShard(config_);
    for (unsigned w = 0; w < config_.workers; ++w) {
      spillSums_.push_back(std::make_unique<sparse::SpillingSum>(
          config_.spillDir,
          "w" + std::to_string(w) + ".b" + std::to_string(batchCounter_) +
              ".",
          threshold, splitRows, resolvedSpillFrameTriplets(config_)));
    }
    ++batchCounter_;
  } else {
    workerSums_.assign(config_.workers, sparse::SymmetricAdjacency());
  }

  // Workers pull places heaviest first (in place order without balance).
  // No static weight predicts a place's cost well, since most of it is
  // global emits into the worker's map; pulling lets the heaviest places
  // start at once and the light tail even out the finish.
  std::vector<std::size_t> order;
  if (config_.balancedPartition) {
    order = runtime::heaviestFirst(weights);
  } else {
    order.resize(matrices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  AdjacencySchedule schedule;
  schedule.loads.assign(config_.workers, 0);
  cluster_.applyDynamic(order.size(), [&](std::size_t pull, unsigned worker) {
    const std::size_t item = order[pull];
    if (spillSums_.empty()) {
      workerSums_[worker].addCollocation(matrices[item]);
    } else {
      spillSums_[worker]->addCollocation(matrices[item]);
    }
    schedule.loads[worker] += weights[item];
  });
  schedule.imbalance = cluster_.busyImbalance();
  return schedule;
}

void SharedMemoryExecutor::reduce(sparse::SymmetricAdjacency& result) {
  CHISIM_REQUIRE(spillSums_.empty(),
                 "budgeted stage 5 must reduce into a spilling accumulator");
  result.absorb(workerSums_, config_.workers);
  workerSums_.clear();
}

void SharedMemoryExecutor::reduceInto(sparse::SpillingAccumulator& sink) {
  CHISIM_REQUIRE(!spillSums_.empty(),
                 "reduceInto without a budgeted mapAdjacency");
  // The worker maps lived beside the sink's resident shards; their summed
  // historical peaks are reported as the (pessimistic) stage-5 transient.
  std::uint64_t workerPeak = 0;
  for (const auto& sum : spillSums_) {
    workerPeak += sum->peakBytes();
  }
  sink.noteWorkerPeak(workerPeak);
  for (const auto& sum : spillSums_) {
    for (const sparse::SpillRunInfo& run : sum->runs()) {
      sink.adoptRunFile(run);  // already on disk: ownership moves, no copy
    }
    const std::vector<sparse::AdjacencyTriplet> remainder =
        sum->drainInMemory();
    sink.addSortedRun(remainder);
    sink.addKernelStats(sum->kernelStats());
  }
  spillSums_.clear();
}

std::vector<sparse::ShardSegment> SharedMemoryExecutor::mergeSpillShards(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
    const std::function<void(const sparse::ShardSegment&)>& onSegment) {
  CHISIM_REQUIRE(!config_.spillDir.empty(),
                 "sharded merge requires a spill directory");
  // One cluster item per owner, so the owners run concurrently while a
  // shard's merge stays single-threaded (segment bytes never depend on
  // scheduling). Each owner merges its shards one at a time, within its
  // share of the budget.
  const auto owners = static_cast<unsigned>(std::clamp<std::size_t>(
      groups.size(), 1, resolvedReduceShards(config_)));
  const runtime::Partition partition =
      runtime::partitionGreedyLpt(shardMergeWeights(groups), owners);
  const std::uint64_t readerBudget = config_.memoryBudgetBytes / owners;
  std::vector<sparse::ShardSegment> segments(groups.size());
  std::mutex mutex;
  cluster_.applyDynamic(owners, [&](std::size_t owner, unsigned) {
    for (const std::size_t g : partition.assignment[owner]) {
      const sparse::SpillingAccumulator::ShardRunGroup& group = groups[g];
      const std::filesystem::path segmentFile =
          config_.spillDir / ("seg." + std::to_string(group.shard) + ".cseg");
      sparse::ShardSegment segment = sparse::mergeShardRuns(
          group.shard, group.runs, segmentFile, readerBudget);
      segment.owner = static_cast<unsigned>(owner);
      const std::lock_guard<std::mutex> lock(mutex);
      segments[g] = segment;
      onSegment(segment);
    }
  });
  return segments;
}

double SharedMemoryExecutor::adjacencyBusyImbalance() const noexcept {
  return cluster_.busyImbalance();
}

std::vector<std::uint64_t> shardMergeWeights(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups) {
  std::vector<std::uint64_t> weights;
  weights.reserve(groups.size());
  for (const sparse::SpillingAccumulator::ShardRunGroup& group : groups) {
    std::uint64_t triplets = 0;
    for (const sparse::SpillRunInfo& run : group.runs) {
      triplets += run.triplets;
    }
    weights.push_back(triplets);
  }
  return weights;
}

std::unique_ptr<SynthesisExecutor> makeExecutor(const SynthesisConfig& config) {
  if (config.backend == SynthesisBackend::kMessagePassing) {
    return std::make_unique<MessagePassingExecutor>(config);
  }
  return std::make_unique<SharedMemoryExecutor>(config);
}

}  // namespace chisimnet::net

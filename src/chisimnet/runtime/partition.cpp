#include "chisimnet/runtime/partition.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "chisimnet/util/error.hpp"

namespace chisimnet::runtime {

std::uint64_t Partition::makespan() const noexcept {
  std::uint64_t result = 0;
  for (std::uint64_t load : loads) {
    result = std::max(result, load);
  }
  return result;
}

double Partition::imbalance() const noexcept {
  const std::uint64_t total = totalLoad();
  if (total == 0 || loads.empty()) {
    return 1.0;
  }
  const double meanLoad =
      static_cast<double>(total) / static_cast<double>(loads.size());
  return static_cast<double>(makespan()) / meanLoad;
}

std::uint64_t Partition::totalLoad() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t load : loads) {
    total += load;
  }
  return total;
}

namespace {

Partition emptyPartition(std::size_t bins) {
  Partition partition;
  partition.assignment.resize(bins);
  partition.loads.assign(bins, 0);
  return partition;
}

}  // namespace

std::vector<std::size_t> heaviestFirst(
    std::span<const std::uint64_t> weights) {
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&weights](auto a, auto b) {
    return weights[a] > weights[b];
  });
  return order;
}

Partition partitionGreedyLpt(std::span<const std::uint64_t> weights,
                             std::size_t bins) {
  CHISIM_REQUIRE(bins > 0, "need at least one bin");
  Partition partition = emptyPartition(bins);

  // Min-heap of (load, bin).
  using Entry = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t bin = 0; bin < bins; ++bin) {
    heap.emplace(0, bin);
  }
  for (std::size_t item : heaviestFirst(weights)) {
    auto [load, bin] = heap.top();
    heap.pop();
    partition.assignment[bin].push_back(item);
    partition.loads[bin] = load + weights[item];
    heap.emplace(partition.loads[bin], bin);
  }
  return partition;
}

Partition partitionRoundRobin(std::span<const std::uint64_t> weights,
                              std::size_t bins) {
  CHISIM_REQUIRE(bins > 0, "need at least one bin");
  Partition partition = emptyPartition(bins);
  for (std::size_t item = 0; item < weights.size(); ++item) {
    const std::size_t bin = item % bins;
    partition.assignment[bin].push_back(item);
    partition.loads[bin] += weights[item];
  }
  return partition;
}

Partition partitionContiguous(std::span<const std::uint64_t> weights,
                              std::size_t bins) {
  CHISIM_REQUIRE(bins > 0, "need at least one bin");
  Partition partition = emptyPartition(bins);
  const std::size_t count = weights.size();
  for (std::size_t bin = 0; bin < bins; ++bin) {
    const std::size_t begin = count * bin / bins;
    const std::size_t end = count * (bin + 1) / bins;
    for (std::size_t item = begin; item < end; ++item) {
      partition.assignment[bin].push_back(item);
      partition.loads[bin] += weights[item];
    }
  }
  return partition;
}

}  // namespace chisimnet::runtime

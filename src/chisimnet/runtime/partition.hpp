#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// Work partitioning for the adjacency stage (paper §IV.A.3).
///
/// The paper stresses that re-partitioning the collocation-matrix list by
/// nonzero count is "crucial to achieve even load balancing": without it
/// some workers idle while others grind through the few huge places. This
/// module provides the balanced strategy (greedy longest-processing-time,
/// LPT) plus the naive strategies used as the ablation baselines, and the
/// imbalance metrics the benches report.

namespace chisimnet::runtime {

struct Partition {
  /// assignment[w] lists the item indices handled by bin (worker) w.
  std::vector<std::vector<std::size_t>> assignment;
  /// loads[w] is the total weight assigned to bin w.
  std::vector<std::uint64_t> loads;

  /// Largest bin load; proportional to the stage's wall time when per-item
  /// cost tracks weight.
  std::uint64_t makespan() const noexcept;
  /// makespan / mean load; 1.0 is perfect balance.
  double imbalance() const noexcept;
  std::uint64_t totalLoad() const noexcept;
};

/// Item indices by descending weight, ties in ascending index order: the
/// order LPT assigns items in, and the order dynamic pulling hands them out.
std::vector<std::size_t> heaviestFirst(std::span<const std::uint64_t> weights);

/// Greedy LPT: sort items by descending weight, always assign to the
/// currently lightest bin. Guarantees makespan <= (4/3 - 1/(3m)) * OPT.
Partition partitionGreedyLpt(std::span<const std::uint64_t> weights,
                             std::size_t bins);

/// Naive: item i goes to bin i % bins, ignoring weights.
Partition partitionRoundRobin(std::span<const std::uint64_t> weights,
                              std::size_t bins);

/// Naive: contiguous slices of (approximately) equal item counts.
Partition partitionContiguous(std::span<const std::uint64_t> weights,
                              std::size_t bins);

}  // namespace chisimnet::runtime

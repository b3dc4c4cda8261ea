#pragma once

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "chisimnet/graph/graph.hpp"
#include "chisimnet/util/rng.hpp"

/// Community detection (paper §I: "more novel approaches such as community
/// detection algorithms that can capture emergent macro level
/// characteristics of the network").
///
/// Two standard algorithms over the weighted collocation network:
///   - label propagation (Raghavan et al.): near-linear, each vertex
///     repeatedly adopts the weight-dominant label among its neighbors;
///   - Louvain (Blondel et al.): greedy modularity optimization with graph
///     aggregation between passes.
/// plus weighted modularity, the standard partition quality score.
///
/// Every weight sum is an exact integer, so the results do not depend on
/// the order anything is summed in: `workers` only spreads the parts that
/// can run side by side (modularity, Louvain's aggregation), and every
/// output is bit-identical for every worker count.

namespace chisimnet::graph {

struct CommunityAssignment {
  /// communityOf[v] in [0, communityCount) for every vertex.
  std::vector<std::uint32_t> communityOf;
  std::uint32_t communityCount = 0;
  double modularity = 0.0;  ///< of this assignment on the source graph
  unsigned iterations = 0;  ///< sweeps (LP) or levels (Louvain) executed

  /// Sizes of each community, indexed by community id.
  std::vector<std::uint64_t> sizes() const;
};

/// Weighted Newman-Girvan modularity of an arbitrary assignment:
/// Q = (1/2m) Σ_ij [A_ij - k_i k_j / 2m] δ(c_i, c_j).
/// Labels may be any uint32 values; the expectation term is summed in
/// ascending label order. Internal and community weights are summed as
/// integers across `workers` threads, so the value is the same for every
/// worker count (and equals a serial double sum while 2m < 2^53).
double modularity(const Graph& graph,
                  std::span<const std::uint32_t> communityOf,
                  unsigned workers = std::thread::hardware_concurrency());

/// Asynchronous weighted label propagation. Vertices are visited in random
/// order each sweep and adopt the label of largest summed edge weight
/// among their neighbors, ties to the smallest label. Stops when a sweep
/// changes nothing or after maxSweeps.
CommunityAssignment labelPropagation(const Graph& graph, util::Rng& rng,
                                     unsigned maxSweeps = 50);

/// Louvain method: local-move phase to a fixed point, then aggregation,
/// repeated until modularity stops improving by more than 1e-9 or after
/// maxLevels. Deterministic for a given rng seed (vertex visit order is
/// shuffled per sweep). A visited vertex moves to the neighboring
/// community of largest gain w_c - k·Σ_c/2m (exact ties to the smaller
/// community id) only if that gain beats staying by more than 1e-12.
/// The sweeps are serial; modularity and aggregation use `workers`.
CommunityAssignment louvain(
    const Graph& graph, util::Rng& rng, unsigned maxLevels = 10,
    unsigned workers = std::thread::hardware_concurrency());

/// Renumbers labels to a dense [0, count) range in order of first
/// occurrence; returns the count.
std::uint32_t compactLabels(std::vector<std::uint32_t>& labels);

}  // namespace chisimnet::graph

#include "chisimnet/graph/community.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::graph {

namespace {

constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

/// Summed edge weight per community around one vertex: a dense slot per
/// community id plus the list of the ones touched, so reading and clearing
/// cost O(touched), not O(n). A slot holds 1 + the summed weight once its
/// community is touched, so a community reached only by zero-weight edges
/// is still listed, once. add() is branch-free: the community is always
/// written past the list's end and kept only if its slot was empty (a
/// first touch is too frequent and too irregular to predict), so the list
/// holds one spare entry for that store once every community is touched.
/// The list follows row order, so every rule that reads it must not
/// depend on its order.
class NeighborWeights {
 public:
  explicit NeighborWeights(std::size_t universe)
      : slot_(universe, 0), touched_(universe + 1) {}

  void add(std::uint32_t community, std::uint64_t weight) {
    std::uint64_t& slot = slot_[community];
    const bool fresh = slot == 0;
    touched_[touchedCount_] = community;
    touchedCount_ += fresh ? 1 : 0;
    slot += weight + (fresh ? 1 : 0);
  }

  /// Summed weight to `community`, 0 when untouched.
  std::uint64_t weightOf(std::uint32_t community) const {
    const std::uint64_t slot = slot_[community];
    return slot == 0 ? 0 : slot - 1;
  }
  std::span<const std::uint32_t> touched() const noexcept {
    return {touched_.data(), touchedCount_};
  }

  void clear() {
    for (std::uint32_t community : touched()) {
      slot_[community] = 0;
    }
    touchedCount_ = 0;
  }

 private:
  std::vector<std::uint64_t> slot_;
  std::vector<std::uint32_t> touched_;  ///< universe + 1 entries
  std::size_t touchedCount_ = 0;
};

}  // namespace

std::vector<std::uint64_t> CommunityAssignment::sizes() const {
  std::vector<std::uint64_t> result(communityCount, 0);
  for (std::uint32_t community : communityOf) {
    ++result[community];
  }
  return result;
}

std::uint32_t compactLabels(std::vector<std::uint32_t>& labels) {
  const bool dense = std::all_of(
      labels.begin(), labels.end(),
      [&labels](std::uint32_t label) { return label < labels.size(); });
  if (dense) {
    std::vector<std::uint32_t> remap(labels.size(), kAbsent);
    std::uint32_t count = 0;
    for (std::uint32_t& label : labels) {
      if (remap[label] == kAbsent) {
        remap[label] = count++;
      }
      label = remap[label];
    }
    return count;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(labels.size());
  for (std::uint32_t& label : labels) {
    const auto [it, inserted] =
        remap.emplace(label, static_cast<std::uint32_t>(remap.size()));
    label = it->second;
  }
  return static_cast<std::uint32_t>(remap.size());
}

double modularity(const Graph& graph,
                  std::span<const std::uint32_t> communityOf,
                  unsigned workers) {
  CHISIM_REQUIRE(communityOf.size() == graph.vertexCount(),
                 "assignment size must match vertex count");
  const Vertex n = graph.vertexCount();
  if (n == 0) {
    return 0.0;
  }

  // Labels below n index the strength table directly. Larger ones are
  // replaced by their rank among the distinct labels, which keeps the
  // expectation sum in ascending-label order: the skipped labels would
  // only have added exact zeros.
  std::span<const std::uint32_t> labels = communityOf;
  std::vector<std::uint32_t> ranked;
  std::size_t tableSize = 0;
  const std::uint32_t maxLabel =
      *std::max_element(communityOf.begin(), communityOf.end());
  if (maxLabel < n) {
    tableSize = std::size_t{maxLabel} + 1;
  } else {
    std::vector<std::uint32_t> distinct(communityOf.begin(), communityOf.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ranked.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      ranked[v] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), communityOf[v]) -
          distinct.begin());
    }
    labels = ranked;
    tableSize = distinct.size();
  }

  // Integer sums: exact, so neither the slot split nor the order of the
  // serial strength fold can change them. 2m is summed in the same pass
  // rather than by a separate totalWeight() scan: the pass is
  // memory-bound, so one scan fewer is what counts.
  struct alignas(64) Slot {  // a cache line each: every vertex updates one
    std::uint64_t twoM = 0;
    std::uint64_t internal = 0;  // 2 x intra-community edge weight
  };
  workers = std::max(1u, workers);
  std::vector<Slot> slots(workers);
  std::vector<std::uint64_t> vertexStrength(n);
  const auto offsets = graph.rowOffsets();
  const auto neighbors = graph.allNeighbors();
  const auto weights = graph.allWeights();
  runtime::parallelForSlots(n, workers, [&](std::uint64_t u, unsigned slot) {
    const std::uint32_t own = labels[u];
    std::uint64_t strength = 0;
    std::uint64_t internal = 0;
    for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      strength += weights[e];
      internal += labels[neighbors[e]] == own ? weights[e] : 0;
    }
    vertexStrength[u] = strength;
    slots[slot].twoM += strength;
    slots[slot].internal += internal;
  });

  std::uint64_t twoMTotal = 0;
  std::uint64_t internal = 0;
  for (const Slot& slot : slots) {
    twoMTotal += slot.twoM;
    internal += slot.internal;
  }
  const double twoM = static_cast<double>(twoMTotal);
  if (twoM <= 0.0) {
    return 0.0;
  }
  std::vector<std::uint64_t> communityStrength(tableSize, 0);
  for (Vertex v = 0; v < n; ++v) {
    communityStrength[labels[v]] += vertexStrength[v];
  }
  double expectation = 0.0;
  for (std::uint64_t strength : communityStrength) {
    const double share = static_cast<double>(strength) / twoM;
    expectation += share * share;
  }
  return static_cast<double>(internal) / twoM - expectation;
}

CommunityAssignment labelPropagation(const Graph& graph, util::Rng& rng,
                                     unsigned maxSweeps) {
  CommunityAssignment result;
  result.communityOf.resize(graph.vertexCount());
  std::iota(result.communityOf.begin(), result.communityOf.end(), 0u);
  if (graph.vertexCount() == 0) {
    return result;
  }

  std::vector<Vertex> order(graph.vertexCount());
  std::iota(order.begin(), order.end(), 0u);
  NeighborWeights labelWeight(graph.vertexCount());

  for (unsigned sweep = 0; sweep < maxSweeps; ++sweep) {
    result.iterations = sweep + 1;
    rng.shuffle(order);
    bool changed = false;
    for (Vertex v : order) {
      const auto row = graph.neighbors(v);
      if (row.empty()) {
        continue;
      }
      const auto rowWeights = graph.edgeWeights(v);
      for (std::size_t i = 0; i < row.size(); ++i) {
        labelWeight.add(result.communityOf[row[i]], rowWeights[i]);
      }
      // Weight-dominant label; ties to the smallest label.
      std::uint32_t best = labelWeight.touched().front();
      std::uint64_t bestWeight = labelWeight.weightOf(best);
      for (std::uint32_t label : labelWeight.touched()) {
        const std::uint64_t weight = labelWeight.weightOf(label);
        if (weight > bestWeight || (weight == bestWeight && label < best)) {
          best = label;
          bestWeight = weight;
        }
      }
      labelWeight.clear();
      if (best != result.communityOf[v]) {
        result.communityOf[v] = best;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }

  result.communityCount = compactLabels(result.communityOf);
  result.modularity = modularity(graph, result.communityOf);
  return result;
}

namespace {

/// One Louvain level as an integer CSR: node u's row is
/// [offsets[u], offsets[u + 1]) of neighbors/weights, holding no
/// self-loops. strength[u] is u's full weighted degree, self-loops
/// counted twice (an aggregated node's strength is the sum of its
/// members'), so 2m = Σ strength is the same at every level. Level 0
/// views the Graph's own arrays; aggregated levels own theirs. The spans
/// may point into the own* vectors, which a move carries along but a copy
/// would not, so copying is deleted.
struct Level {
  Level() = default;
  Level(const Level&) = delete;
  Level& operator=(const Level&) = delete;
  Level(Level&&) = default;
  Level& operator=(Level&&) = default;

  std::span<const std::uint64_t> offsets;
  std::span<const std::uint32_t> neighbors;
  std::span<const std::uint64_t> weights;
  std::vector<std::uint64_t> strength;

  std::vector<std::uint64_t> ownOffsets;
  std::vector<std::uint32_t> ownNeighbors;
  std::vector<std::uint64_t> ownWeights;

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(strength.size());
  }
};

Level levelZero(const Graph& graph, unsigned workers) {
  Level level;
  level.offsets = graph.rowOffsets();
  level.neighbors = graph.allNeighbors();
  level.weights = graph.allWeights();
  level.strength.resize(graph.vertexCount());
  runtime::parallelFor(graph.vertexCount(), workers, [&](std::uint64_t u) {
    std::uint64_t strength = 0;
    for (std::uint64_t e = level.offsets[u]; e < level.offsets[u + 1]; ++e) {
      strength += level.weights[e];
    }
    level.strength[u] = strength;
  });
  return level;
}

/// One local-move phase to a fixed point; returns the node->community map.
/// The gain of joining community c is w_c - k·Σ_c/2m, evaluated in double
/// from exact integer operands.
std::vector<std::uint32_t> localMoves(const Level& level, std::uint64_t twoM,
                                      util::Rng& rng) {
  const std::uint32_t n = level.size();
  std::vector<std::uint32_t> community(n);
  std::iota(community.begin(), community.end(), 0u);
  std::vector<std::uint64_t> communityStrength = level.strength;
  const double twoMd = static_cast<double>(twoM);

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  NeighborWeights neighborWeight(n);

  bool improved = true;
  while (improved) {
    improved = false;
    rng.shuffle(order);
    for (std::uint32_t node : order) {
      for (std::uint64_t e = level.offsets[node]; e < level.offsets[node + 1];
           ++e) {
        neighborWeight.add(community[level.neighbors[e]], level.weights[e]);
      }
      const std::uint32_t from = community[node];
      const std::uint64_t k = level.strength[node];
      const double kd = static_cast<double>(k);
      communityStrength[from] -= k;
      const double stayGain =
          static_cast<double>(neighborWeight.weightOf(from)) -
          kd * static_cast<double>(communityStrength[from]) / twoMd;
      const double moveThreshold = stayGain + 1e-12;

      // Best other community, exact ties to the smaller id. A gain never
      // exceeds its weight w_c (the subtracted term is >= 0 and rounding
      // is monotone), so a candidate whose weight cannot clear the move
      // threshold, or is below the best gain so far, can neither be moved
      // to nor tie the winner and skips its division.
      std::uint32_t best = kAbsent;
      double bestGain = 0.0;
      for (std::uint32_t candidate : neighborWeight.touched()) {
        const double weight =
            static_cast<double>(neighborWeight.weightOf(candidate));
        if (candidate == from || weight <= moveThreshold ||
            (best != kAbsent && weight < bestGain)) {
          continue;
        }
        const double gain =
            weight -
            kd * static_cast<double>(communityStrength[candidate]) / twoMd;
        if (best == kAbsent || gain > bestGain ||
            (gain == bestGain && candidate < best)) {
          best = candidate;
          bestGain = gain;
        }
      }
      neighborWeight.clear();

      const std::uint32_t target =
          best != kAbsent && bestGain > moveThreshold ? best : from;
      communityStrength[target] += k;
      if (target != from) {
        community[node] = target;
        improved = true;
      }
    }
  }
  return community;
}

/// Collapses each community into one node of the next level. Members are
/// grouped by a counting sort (in node order), each community's row is
/// accumulated on its slot's dense scratch into the slot's buffer, and the
/// rows are concatenated in community order by prefix sum. A row's content
/// and order depend only on the member order, never on the slot.
Level aggregate(const Level& level, std::span<const std::uint32_t> community,
                std::uint32_t communityCount, unsigned workers) {
  const std::uint32_t n = level.size();
  std::vector<std::uint32_t> memberOffsets(std::size_t{communityCount} + 1, 0);
  for (std::uint32_t node = 0; node < n; ++node) {
    ++memberOffsets[community[node] + 1];
  }
  std::partial_sum(memberOffsets.begin(), memberOffsets.end(),
                   memberOffsets.begin());
  std::vector<std::uint32_t> members(n);
  {
    std::vector<std::uint32_t> cursor(memberOffsets.begin(),
                                      memberOffsets.end() - 1);
    for (std::uint32_t node = 0; node < n; ++node) {
      members[cursor[community[node]]++] = node;
    }
  }

  struct RowBuffer {
    NeighborWeights scratch;
    std::vector<std::uint32_t> neighbors;
    std::vector<std::uint64_t> weights;
  };
  workers = std::max(1u, workers);
  std::vector<RowBuffer> buffers;
  buffers.reserve(workers);
  for (unsigned slot = 0; slot < workers; ++slot) {
    buffers.push_back(RowBuffer{NeighborWeights(communityCount), {}, {}});
  }
  std::vector<unsigned> rowSlot(communityCount);
  std::vector<std::uint64_t> rowStart(communityCount);

  Level next;
  next.strength.resize(communityCount);
  next.ownOffsets.assign(std::size_t{communityCount} + 1, 0);
  runtime::parallelForSlots(
      communityCount, workers, [&](std::uint64_t c, unsigned slot) {
        RowBuffer& mine = buffers[slot];
        std::uint64_t strength = 0;
        for (std::uint32_t m = memberOffsets[c]; m < memberOffsets[c + 1];
             ++m) {
          const std::uint32_t node = members[m];
          strength += level.strength[node];
          for (std::uint64_t e = level.offsets[node];
               e < level.offsets[node + 1]; ++e) {
            const std::uint32_t other = community[level.neighbors[e]];
            if (other != c) {
              mine.scratch.add(other, level.weights[e]);
            }
          }
        }
        next.strength[c] = strength;
        rowSlot[c] = slot;
        rowStart[c] = mine.neighbors.size();
        for (std::uint32_t other : mine.scratch.touched()) {
          mine.neighbors.push_back(other);
          mine.weights.push_back(mine.scratch.weightOf(other));
        }
        next.ownOffsets[c + 1] = mine.scratch.touched().size();
        mine.scratch.clear();
      });

  std::partial_sum(next.ownOffsets.begin(), next.ownOffsets.end(),
                   next.ownOffsets.begin());
  next.ownNeighbors.resize(next.ownOffsets.back());
  next.ownWeights.resize(next.ownOffsets.back());
  runtime::parallelFor(communityCount, workers, [&](std::uint64_t c) {
    const RowBuffer& source = buffers[rowSlot[c]];
    const std::uint64_t length = next.ownOffsets[c + 1] - next.ownOffsets[c];
    std::copy_n(source.neighbors.begin() + rowStart[c], length,
                next.ownNeighbors.begin() + next.ownOffsets[c]);
    std::copy_n(source.weights.begin() + rowStart[c], length,
                next.ownWeights.begin() + next.ownOffsets[c]);
  });
  next.offsets = next.ownOffsets;
  next.neighbors = next.ownNeighbors;
  next.weights = next.ownWeights;
  return next;
}

}  // namespace

CommunityAssignment louvain(const Graph& graph, util::Rng& rng,
                            unsigned maxLevels, unsigned workers) {
  CommunityAssignment result;
  result.communityOf.resize(graph.vertexCount());
  std::iota(result.communityOf.begin(), result.communityOf.end(), 0u);
  if (graph.vertexCount() == 0 || graph.edgeCount() == 0) {
    result.communityCount = graph.vertexCount();
    return result;
  }

  workers = std::max(1u, workers);
  Level level = levelZero(graph, workers);
  const std::uint64_t twoM = std::accumulate(
      level.strength.begin(), level.strength.end(), std::uint64_t{0});
  // flat[v] = current community of original vertex v.
  std::vector<std::uint32_t> flat(graph.vertexCount());
  std::iota(flat.begin(), flat.end(), 0u);
  double bestModularity = modularity(graph, flat, workers);

  for (unsigned pass = 0; pass < maxLevels; ++pass) {
    result.iterations = pass + 1;
    std::vector<std::uint32_t> community = localMoves(level, twoM, rng);
    const std::uint32_t count = compactLabels(community);

    std::vector<std::uint32_t> candidate(flat.size());
    for (std::size_t v = 0; v < flat.size(); ++v) {
      candidate[v] = community[flat[v]];
    }
    const double q = modularity(graph, candidate, workers);
    if (q <= bestModularity + 1e-9) {
      break;
    }
    bestModularity = q;
    flat = std::move(candidate);
    if (count == level.size()) {
      break;  // no aggregation possible
    }
    level = aggregate(level, community, count, workers);
  }

  result.communityOf = std::move(flat);
  result.communityCount = compactLabels(result.communityOf);
  result.modularity = modularity(graph, result.communityOf, workers);
  return result;
}

}  // namespace chisimnet::graph

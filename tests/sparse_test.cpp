#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::sparse {
namespace {

using table::Event;

TEST(PackPair, CanonicalOrdering) {
  EXPECT_EQ(packPair(3, 7), packPair(7, 3));
  EXPECT_EQ(pairLow(packPair(3, 7)), 3u);
  EXPECT_EQ(pairHigh(packPair(3, 7)), 7u);
}

TEST(PairCountMap, AddAndGet) {
  PairCountMap map;
  EXPECT_EQ(map.get(42), 0u);
  map.add(42, 3);
  map.add(42, 2);
  EXPECT_EQ(map.get(42), 5u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairCountMap, GrowsPastInitialCapacity) {
  PairCountMap map(4);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    map.add(key, key + 1);
  }
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t key = 0; key < 10000; key += 997) {
    EXPECT_EQ(map.get(key), key + 1);
  }
}

TEST(PairCountMap, MergeSumsCounts) {
  PairCountMap a;
  PairCountMap b;
  a.add(1, 10);
  a.add(2, 20);
  b.add(2, 5);
  b.add(3, 7);
  a.merge(b);
  EXPECT_EQ(a.get(1), 10u);
  EXPECT_EQ(a.get(2), 25u);
  EXPECT_EQ(a.get(3), 7u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(PairCountMap, EntriesReturnsEverything) {
  PairCountMap map;
  map.add(5, 1);
  map.add(9, 2);
  auto entries = map.entries();
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, std::uint64_t>{5, 1}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, std::uint64_t>{9, 2}));
}

TEST(PairCountMap, ReservedKeyRejected) {
  PairCountMap map;
  EXPECT_THROW(map.add(~std::uint64_t{0}, 1), std::invalid_argument);
}

TEST(PairCountMap, ReservePreventsRehash) {
  PairCountMap map;
  map.reserve(5000);
  const std::size_t bytesAfterReserve = map.memoryBytes();
  for (std::uint64_t key = 0; key < 5000; ++key) {
    map.add(key, key + 1);
  }
  // Reserve sized the table for 5000 entries under the load-factor-0.7
  // trigger, so none of the adds grew it.
  EXPECT_EQ(map.memoryBytes(), bytesAfterReserve);
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_EQ(map.get(4999), 5000u);
}

TEST(PairCountMap, MergePreReservesForTheUnion) {
  PairCountMap a;
  PairCountMap b;
  for (std::uint64_t key = 0; key < 3000; ++key) {
    a.add(key, 1);
    b.add(key + 1500, 2);  // half overlapping
  }
  a.merge(b);
  EXPECT_EQ(a.size(), 4500u);
  EXPECT_EQ(a.get(0), 1u);
  EXPECT_EQ(a.get(2000), 3u);
  EXPECT_EQ(a.get(4000), 2u);
  // The merge reserved for the worst-case union (6000 entries) up front,
  // which needs a bigger table than the actual 4500-entry union would —
  // evidence the pre-reserve ran instead of incremental growth.
  PairCountMap sizedForUnion;
  sizedForUnion.reserve(6000);
  EXPECT_GE(a.memoryBytes(), sizedForUnion.memoryBytes());
}

TEST(CollocationMatrix, BuildsFromEventsWithClipping) {
  // Person 1 at place during [0, 5); window is [2, 4) -> hours {0,1} rel.
  const std::vector<Event> events{{0, 5, 1, 0, 9}};
  const CollocationMatrix matrix(9, events, 2, 4);
  EXPECT_EQ(matrix.place(), 9u);
  EXPECT_EQ(matrix.personCount(), 1u);
  EXPECT_EQ(matrix.nnz(), 2u);
  EXPECT_EQ(matrix.sliceHours(), 2u);
  EXPECT_TRUE(matrix.present(0, 0));
  EXPECT_TRUE(matrix.present(0, 1));
  EXPECT_FALSE(matrix.present(0, 2));
}

TEST(CollocationMatrix, DeduplicatesPresence) {
  // Two overlapping events for the same person collapse per hour.
  const std::vector<Event> events{{0, 3, 1, 0, 9}, {2, 5, 1, 1, 9}};
  const CollocationMatrix matrix(9, events, 0, 5);
  EXPECT_EQ(matrix.personCount(), 1u);
  EXPECT_EQ(matrix.nnz(), 5u);
}

TEST(CollocationMatrix, MultiplePersonsSortedRows) {
  const std::vector<Event> events{{0, 2, 7, 0, 1}, {1, 3, 3, 0, 1}};
  const CollocationMatrix matrix(1, events, 0, 4);
  ASSERT_EQ(matrix.personCount(), 2u);
  EXPECT_EQ(matrix.personAt(0), 3u);
  EXPECT_EQ(matrix.personAt(1), 7u);
  EXPECT_EQ(matrix.hoursAt(0).size(), 2u);
  EXPECT_EQ(matrix.hoursAt(1).size(), 2u);
}

TEST(CollocationMatrix, EmptyWindowYieldsEmptyMatrix) {
  const std::vector<Event> events{{0, 2, 1, 0, 1}};
  const CollocationMatrix matrix(1, events, 5, 5);
  EXPECT_EQ(matrix.nnz(), 0u);
  EXPECT_EQ(matrix.personCount(), 0u);
}

/// The scan CollocationMatrix::occupiedHours() used to run on every call
/// (a sliceHours-long bitmap over every person-hour), kept as the oracle
/// for the count now taken where the matrix is built or decoded.
std::uint32_t occupiedHoursOracle(const CollocationMatrix& matrix) {
  std::vector<bool> seen(matrix.sliceHours(), false);
  std::uint32_t count = 0;
  for (std::size_t row = 0; row < matrix.personCount(); ++row) {
    for (const std::uint32_t hour : matrix.hoursAt(row)) {
      if (!seen[hour]) {
        seen[hour] = true;
        ++count;
      }
    }
  }
  return count;
}

TEST(CollocationMatrix, OccupiedHoursMatchTheScanOracle) {
  util::Rng rng(919);
  for (int trial = 0; trial < 200; ++trial) {
    const auto windowStart = static_cast<table::Hour>(rng.uniformBelow(10));
    const auto windowEnd =
        windowStart + static_cast<table::Hour>(rng.uniformBelow(60));
    std::vector<Event> events;
    const std::size_t visits = rng.uniformBelow(40);
    for (std::size_t visit = 0; visit < visits; ++visit) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(80));
      events.push_back(Event{
          start, start + static_cast<table::Hour>(rng.uniformBelow(12)),
          static_cast<table::PersonId>(rng.uniformBelow(30)), 0, 7});
    }
    const CollocationMatrix built(7, events, windowStart, windowEnd);
    EXPECT_EQ(built.occupiedHours(), occupiedHoursOracle(built)) << trial;
    const CollocationMatrix decoded =
        CollocationMatrix::fromBytes(built.toBytes());
    EXPECT_EQ(decoded.occupiedHours(), built.occupiedHours()) << trial;
  }
}

TEST(CollocationMatrix, DecodeRejectsAnHourOutsideTheSlice) {
  const std::vector<Event> events = {Event{0, 2, 5, 0, 1}};
  std::vector<std::byte> bytes = CollocationMatrix(1, events, 0, 2).toBytes();
  // The last u32 is the last hour index; push it past the 2-hour slice.
  bytes[bytes.size() - 4] = std::byte{9};
  EXPECT_THROW(CollocationMatrix::fromBytes(bytes), std::runtime_error);
}

TEST(SymmetricAdjacency, AddAndWeightSymmetric) {
  SymmetricAdjacency adjacency;
  adjacency.add(3, 8, 4);
  adjacency.add(8, 3, 1);
  EXPECT_EQ(adjacency.weight(3, 8), 5u);
  EXPECT_EQ(adjacency.weight(8, 3), 5u);
  EXPECT_EQ(adjacency.edgeCount(), 1u);
}

TEST(SymmetricAdjacency, SelfEdgeRejected) {
  SymmetricAdjacency adjacency;
  EXPECT_THROW(adjacency.add(2, 2, 1), std::invalid_argument);
  EXPECT_EQ(adjacency.weight(2, 2), 0u);
}

TEST(SymmetricAdjacency, ZeroWeightIgnored) {
  SymmetricAdjacency adjacency;
  adjacency.add(1, 2, 0);
  EXPECT_EQ(adjacency.edgeCount(), 0u);
}

TEST(SymmetricAdjacency, TripletsSortedUpperTriangular) {
  SymmetricAdjacency adjacency;
  adjacency.add(9, 2, 1);
  adjacency.add(1, 5, 2);
  adjacency.add(1, 3, 3);
  const auto triplets = adjacency.toTriplets();
  ASSERT_EQ(triplets.size(), 3u);
  EXPECT_TRUE(std::is_sorted(triplets.begin(), triplets.end()));
  for (const AdjacencyTriplet& triplet : triplets) {
    EXPECT_LT(triplet.i, triplet.j);
  }
}

TEST(SymmetricAdjacency, MergeIsMatrixSum) {
  SymmetricAdjacency a;
  SymmetricAdjacency b;
  a.add(1, 2, 3);
  b.add(1, 2, 4);
  b.add(2, 5, 1);
  a.merge(b);
  EXPECT_EQ(a.weight(1, 2), 7u);
  EXPECT_EQ(a.weight(2, 5), 1u);
}

/// Brute-force x·xᵀ over the dense per-hour presence of one place.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
bruteForcePairs(const CollocationMatrix& matrix) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> pairs;
  for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
    std::vector<std::uint32_t> present;
    for (std::size_t row = 0; row < matrix.personCount(); ++row) {
      if (matrix.present(row, hour)) {
        present.push_back(matrix.personAt(row));
      }
    }
    for (std::size_t a = 0; a < present.size(); ++a) {
      for (std::size_t b = a + 1; b < present.size(); ++b) {
        const auto lo = std::min(present[a], present[b]);
        const auto hi = std::max(present[a], present[b]);
        ++pairs[{lo, hi}];
      }
    }
  }
  return pairs;
}

CollocationMatrix randomMatrix(std::uint64_t seed, std::size_t persons,
                               table::Hour hours, std::size_t eventCount) {
  util::Rng rng(seed);
  std::vector<Event> events;
  for (std::size_t i = 0; i < eventCount; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(hours));
    const auto end = start + 1 + static_cast<table::Hour>(rng.uniformBelow(6));
    events.push_back(Event{start, end,
                           static_cast<table::PersonId>(rng.uniformBelow(persons)),
                           0, 77});
  }
  return CollocationMatrix(77, events, 0, hours);
}

class AdjacencyMethodProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AdjacencyMethodProperty, AllMethodsMatchBruteForce) {
  const CollocationMatrix matrix = randomMatrix(GetParam(), 12, 24, 40);
  const auto expected = bruteForcePairs(matrix);

  for (const AdjacencyMethod method :
       {AdjacencyMethod::kSpGemm, AdjacencyMethod::kIntervalIntersection,
        AdjacencyMethod::kLocalAccumulate}) {
    SymmetricAdjacency adjacency;
    adjacency.addCollocation(matrix, method);
    EXPECT_EQ(adjacency.edgeCount(), expected.size());
    for (const auto& [pair, weight] : expected) {
      EXPECT_EQ(adjacency.weight(pair.first, pair.second), weight)
          << "pair (" << pair.first << "," << pair.second << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjacencyMethodProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

void expectMatchesBruteForce(const SymmetricAdjacency& adjacency,
                             const CollocationMatrix& matrix) {
  const auto expected = bruteForcePairs(matrix);
  ASSERT_EQ(adjacency.edgeCount(), expected.size());
  for (const auto& [pair, weight] : expected) {
    EXPECT_EQ(adjacency.weight(pair.first, pair.second), weight)
        << "pair (" << pair.first << "," << pair.second << ")";
  }
}

TEST(LocalAccumulateCrossover, SmallPlaceTakesDensePath) {
  // 12 persons over 24 hours: 66 pair slots, plenty of pair-hours — well
  // inside the dense triangular-array regime.
  const CollocationMatrix matrix = randomMatrix(3, 12, 24, 40);
  SymmetricAdjacency adjacency;
  adjacency.addCollocation(matrix, AdjacencyMethod::kLocalAccumulate);
  EXPECT_EQ(adjacency.kernelStats().densePlaces, 1u);
  EXPECT_EQ(adjacency.kernelStats().hashPlaces, 0u);
  EXPECT_GT(adjacency.kernelStats().globalEmits, 0u);
  expectMatchesBruteForce(adjacency, matrix);
}

TEST(LocalAccumulateCrossover, SparseOverlapTakesHashPath) {
  // 100 persons, each present exactly one hour, two per hour: 4950 pair
  // slots but only 50 pair-hours, so the emit scan over the dense array
  // would dominate — the kernel must pick the local hash.
  std::vector<Event> events;
  for (std::uint32_t person = 0; person < 100; ++person) {
    const table::Hour hour = person % 50;
    events.push_back(
        Event{hour, static_cast<table::Hour>(hour + 1), person, 0, 77});
  }
  const CollocationMatrix matrix(77, events, 0, 50);
  SymmetricAdjacency adjacency;
  adjacency.addCollocation(matrix, AdjacencyMethod::kLocalAccumulate);
  EXPECT_EQ(adjacency.kernelStats().densePlaces, 0u);
  EXPECT_EQ(adjacency.kernelStats().hashPlaces, 1u);
  EXPECT_EQ(adjacency.kernelStats().pairHourUpdates, 50u);
  EXPECT_EQ(adjacency.kernelStats().globalEmits, 50u);
  expectMatchesBruteForce(adjacency, matrix);
}

TEST(LocalAccumulateCrossover, StatsSurviveMerge) {
  SymmetricAdjacency a;
  SymmetricAdjacency b;
  a.addCollocation(randomMatrix(4, 12, 24, 40),
                   AdjacencyMethod::kLocalAccumulate);
  b.addCollocation(randomMatrix(5, 12, 24, 40),
                   AdjacencyMethod::kLocalAccumulate);
  const std::uint64_t updates =
      a.kernelStats().pairHourUpdates + b.kernelStats().pairHourUpdates;
  a.merge(b);
  EXPECT_EQ(a.kernelStats().densePlaces, 2u);
  EXPECT_EQ(a.kernelStats().pairHourUpdates, updates);
}

TEST(MergeSortedTriplets, SumsOverlappingPairs) {
  const std::vector<AdjacencyTriplet> a{{1, 2, 10}, {1, 5, 1}, {3, 4, 2}};
  const std::vector<AdjacencyTriplet> b{{1, 5, 4}, {2, 3, 7}, {3, 4, 1}};
  const auto merged = mergeSortedTriplets(a, b);
  const std::vector<AdjacencyTriplet> expected{
      {1, 2, 10}, {1, 5, 5}, {2, 3, 7}, {3, 4, 3}};
  EXPECT_EQ(merged, expected);
}

TEST(MergeSortedTriplets, DisjointAndEmptyRuns) {
  const std::vector<AdjacencyTriplet> a{{1, 2, 1}, {9, 10, 2}};
  const std::vector<AdjacencyTriplet> b{{4, 6, 3}};
  const auto merged = mergeSortedTriplets(a, b);
  const std::vector<AdjacencyTriplet> expected{{1, 2, 1}, {4, 6, 3}, {9, 10, 2}};
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(mergeSortedTriplets(a, {}), a);
  EXPECT_EQ(mergeSortedTriplets({}, b), b);
  EXPECT_TRUE(mergeSortedTriplets({}, {}).empty());
}

TEST(AdjacencyFromCollocations, SumsAcrossPlaces) {
  // Two places where persons 1 and 2 are collocated for 2 and 3 hours.
  const std::vector<Event> placeA{{0, 2, 1, 0, 10}, {0, 2, 2, 0, 10}};
  const std::vector<Event> placeB{{5, 8, 1, 0, 11}, {5, 8, 2, 0, 11}};
  std::vector<CollocationMatrix> matrices;
  matrices.emplace_back(10, placeA, 0, 10);
  matrices.emplace_back(11, placeB, 0, 10);
  const SymmetricAdjacency adjacency = adjacencyFromCollocations(matrices);
  EXPECT_EQ(adjacency.weight(1, 2), 5u);
}

TEST(BuildCollocationMatrices, OnePerNonEmptyPlace) {
  table::EventTable events;
  events.append(Event{0, 2, 1, 0, 5});
  events.append(Event{0, 2, 2, 0, 5});
  events.append(Event{3, 4, 3, 0, 8});
  events.append(Event{50, 60, 4, 0, 9});  // outside window
  const auto matrices = buildCollocationMatrices(events, 0, 10);
  ASSERT_EQ(matrices.size(), 2u);
  EXPECT_EQ(matrices[0].place(), 5u);
  EXPECT_EQ(matrices[0].personCount(), 2u);
  EXPECT_EQ(matrices[1].place(), 8u);
}

TEST(CollocationMatrix, MemoryBytesPositive) {
  const CollocationMatrix matrix = randomMatrix(3, 5, 10, 10);
  EXPECT_GT(matrix.memoryBytes(), 0u);
}

// ---- row-range shards -------------------------------------------------------

constexpr std::uint32_t kShardWidth = 1u << SymmetricAdjacency::kShardRowBits;
constexpr std::uint32_t kMaxId = 0xFFFFFFFFu;

/// The pairs of one test input, summed by a plain ordered map: the oracle
/// every sharded result is compared against.
using PairSums = std::map<std::pair<std::uint32_t, std::uint32_t>,
                          std::uint64_t>;

void addBoth(SymmetricAdjacency& adjacency, PairSums& sums, std::uint32_t i,
             std::uint32_t j, std::uint64_t weight) {
  adjacency.add(i, j, weight);
  sums[{std::min(i, j), std::max(i, j)}] += weight;
}

std::vector<AdjacencyTriplet> sortedReference(const PairSums& sums) {
  std::vector<AdjacencyTriplet> triplets;
  for (const auto& [pair, weight] : sums) {
    triplets.push_back(AdjacencyTriplet{pair.first, pair.second, weight});
  }
  return triplets;
}

/// CADJ bytes of `triplets`, encoded here field by field from the format
/// description (magic, version, count, LE rows, CRC32 of the rows).
std::vector<char> referenceCadj(const std::vector<AdjacencyTriplet>& triplets) {
  const auto put = [](std::vector<std::byte>& out, std::uint64_t value,
                      int bytes) {
    for (int b = 0; b < bytes; ++b) {
      out.push_back(static_cast<std::byte>(value >> (8 * b)));
    }
  };
  std::vector<std::byte> payload;
  for (const AdjacencyTriplet& triplet : triplets) {
    put(payload, triplet.i, 4);
    put(payload, triplet.j, 4);
    put(payload, triplet.weight, 8);
  }
  std::vector<std::byte> file;
  put(file, 0x4A444143, 4);  // "CADJ"
  put(file, 1, 4);
  put(file, triplets.size(), 8);
  file.insert(file.end(), payload.begin(), payload.end());
  put(file, util::crc32(payload), 4);
  std::vector<char> bytes(file.size());
  std::transform(file.begin(), file.end(), bytes.begin(),
                 [](std::byte b) { return static_cast<char>(b); });
  return bytes;
}

std::vector<char> fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// toTriplets and saveAdjacency at every worker count must equal the
/// brute-force sorted reference bit for bit and byte for byte.
void expectShardedExportMatches(const SymmetricAdjacency& adjacency,
                                const PairSums& sums,
                                const std::string& label) {
  const std::vector<AdjacencyTriplet> reference = sortedReference(sums);
  const std::vector<char> referenceBytes = referenceCadj(reference);
  EXPECT_EQ(adjacency.edgeCount(), reference.size()) << label;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("chisimnet_shard_export_" + label + ".cadj");
  for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    EXPECT_EQ(adjacency.toTriplets(workers), reference)
        << label << " workers " << workers;
    saveAdjacency(adjacency, path, workers);
    EXPECT_EQ(fileBytes(path), referenceBytes)
        << label << " workers " << workers;
  }
  std::filesystem::remove(path);
}

TEST(ShardedAdjacency, ExportMatchesReferenceAcrossShardBoundaries) {
  // Rows k·W−1 and k·W sit in neighboring shards; pairs straddle them in
  // both directions, plus a dense random fill over a few shards.
  SymmetricAdjacency adjacency;
  PairSums sums;
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const std::uint32_t edge = k * kShardWidth;
    addBoth(adjacency, sums, edge - 1, edge, k);
    addBoth(adjacency, sums, edge, edge - 1, 1);  // same pair, reversed
    addBoth(adjacency, sums, edge - 1, edge + 5, 2);
    addBoth(adjacency, sums, edge, edge + 1, 3);
    addBoth(adjacency, sums, edge - 2, edge - 1, 4);
  }
  util::Rng rng(17);
  for (int n = 0; n < 20000; ++n) {
    const auto i = static_cast<std::uint32_t>(rng.uniformBelow(5 * kShardWidth));
    const auto j = static_cast<std::uint32_t>(rng.uniformBelow(5 * kShardWidth));
    if (i != j) {
      addBoth(adjacency, sums, i, j, 1 + rng.uniformBelow(1000));
    }
  }
  EXPECT_EQ(adjacency.shardCount(), 5u);
  expectShardedExportMatches(adjacency, sums, "boundaries");
}

TEST(ShardedAdjacency, ExportMatchesReferenceNearMaxIds) {
  SymmetricAdjacency adjacency;
  PairSums sums;
  addBoth(adjacency, sums, kMaxId - 1, kMaxId, 7);
  addBoth(adjacency, sums, kMaxId - kShardWidth, kMaxId, 1ull << 40);
  addBoth(adjacency, sums, kMaxId - kShardWidth + 1, kMaxId - 1, 3);
  addBoth(adjacency, sums, 0, kMaxId, 2);
  addBoth(adjacency, sums, 1, 2, 5);
  EXPECT_EQ(adjacency.shardCount(), 3u);
  expectShardedExportMatches(adjacency, sums, "max_ids");
}

TEST(ShardedAdjacency, ExportOfEmptyAndSingleShard) {
  expectShardedExportMatches(SymmetricAdjacency(), PairSums(), "empty");
  SymmetricAdjacency single;
  PairSums sums;
  for (std::uint32_t i = 0; i < 60; ++i) {
    for (std::uint32_t j = i + 1; j < 60; j += 3) {
      addBoth(single, sums, i, j, i + j);
    }
  }
  EXPECT_EQ(single.shardCount(), 1u);
  expectShardedExportMatches(single, sums, "single");
}

TEST(ShardedAdjacency, MergedAndFoldedOverlappingSumsExport) {
  // Several sums sharing most of their pairs, combined by serial merge and
  // by the parallel fold: both must export exactly the summed reference.
  PairSums sums;
  std::vector<SymmetricAdjacency> parts(4);
  util::Rng rng(29);
  for (int n = 0; n < 8000; ++n) {
    const auto i = static_cast<std::uint32_t>(rng.uniformBelow(3 * kShardWidth));
    const auto j = static_cast<std::uint32_t>(rng.uniformBelow(3 * kShardWidth));
    if (i == j) {
      continue;
    }
    const std::uint64_t weight = 1 + rng.uniformBelow(50);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (p == 0 || rng.uniformBelow(4) != 0) {  // ~75 % overlap
        addBoth(parts[p], sums, i, j, weight);
      }
    }
  }
  SymmetricAdjacency merged;
  for (const SymmetricAdjacency& part : parts) {
    merged.merge(part);
  }
  expectShardedExportMatches(merged, sums, "merged");
  SymmetricAdjacency folded;
  folded.absorb(parts, 3);
  expectShardedExportMatches(folded, sums, "folded");
}

TEST(ShardedAdjacency, StorageGrowsWithPopulatedRowsOnly) {
  // Ids near 2^32 map to shard ~2^21: no shard (or directory entry) below
  // it may be allocated.
  SymmetricAdjacency adjacency;
  adjacency.add(kMaxId - 1, kMaxId, 1);
  adjacency.add(3, 4, 1);
  EXPECT_EQ(adjacency.shardCount(), 2u);
  EXPECT_LT(adjacency.memoryBytes(), std::size_t{16} << 10);
  EXPECT_EQ(adjacency.weight(kMaxId, kMaxId - 1), 1u);
  EXPECT_EQ(adjacency.weight(kMaxId - 2, kMaxId), 0u);
  EXPECT_EQ(adjacency.weight(5000, 6000), 0u);
}

TEST(ShardedAdjacency, AddAllSumsAnyOrderAndSkipsZeroWeights) {
  const std::vector<AdjacencyTriplet> sorted{
      {1, 2, 3}, {1, kShardWidth, 4}, {kShardWidth, kShardWidth + 1, 0},
      {3 * kShardWidth, kMaxId, 5}};
  SymmetricAdjacency adjacency;
  adjacency.add(1, 2, 10);
  SpanTripletSource source(sorted);
  adjacency.addAll(source);
  EXPECT_EQ(adjacency.weight(1, 2), 13u);
  EXPECT_EQ(adjacency.weight(1, kShardWidth), 4u);
  EXPECT_EQ(adjacency.weight(3 * kShardWidth, kMaxId), 5u);
  EXPECT_EQ(adjacency.edgeCount(), 3u);
  EXPECT_EQ(adjacency.shardCount(), 2u);  // the zero-weight row adds none
  const std::vector<AdjacencyTriplet> shuffled{
      {3 * kShardWidth, kMaxId, 1}, {1, 2, 1}, {5, 9, 2}, {1, 2, 1}};
  SpanTripletSource unsorted(shuffled);
  adjacency.addAll(unsorted);
  EXPECT_EQ(adjacency.weight(1, 2), 15u);
  EXPECT_EQ(adjacency.weight(5, 9), 2u);
  EXPECT_EQ(adjacency.weight(3 * kShardWidth, kMaxId), 6u);
  const std::vector<AdjacencyTriplet> lower{{4, 3, 1}};
  SpanTripletSource bad(lower);
  EXPECT_THROW(adjacency.addAll(bad), std::invalid_argument);
}

}  // namespace
}  // namespace chisimnet::sparse

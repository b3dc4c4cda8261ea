#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "chisimnet/table/event_table.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::table {
namespace {

Event makeEvent(Hour start, Hour end, PersonId person, PlaceId place,
                ActivityId activity = 0) {
  return Event{start, end, person, activity, place};
}

/// Random table for property sweeps.
EventTable randomTable(std::uint64_t seed, std::size_t rows, Hour horizon,
                       PersonId persons, PlaceId places) {
  util::Rng rng(seed);
  EventTable table;
  for (std::size_t i = 0; i < rows; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(horizon));
    const Hour end =
        start + 1 + static_cast<Hour>(rng.uniformBelow(12));
    table.append(makeEvent(start, end,
                           static_cast<PersonId>(rng.uniformBelow(persons)),
                           static_cast<PlaceId>(rng.uniformBelow(places)),
                           static_cast<ActivityId>(rng.uniformBelow(5))));
  }
  return table;
}

TEST(Event, SchemaIs20Bytes) { EXPECT_EQ(sizeof(Event), 20u); }

TEST(Event, OverlapsWindowSemantics) {
  const Event event = makeEvent(10, 14, 0, 0);
  EXPECT_TRUE(overlapsWindow(event, 10, 14));
  EXPECT_TRUE(overlapsWindow(event, 13, 20));
  EXPECT_TRUE(overlapsWindow(event, 0, 11));
  EXPECT_FALSE(overlapsWindow(event, 14, 20));  // half-open: end excluded
  EXPECT_FALSE(overlapsWindow(event, 0, 10));   // half-open: start excluded
  EXPECT_TRUE(overlapsWindow(event, 0, 100));
}

TEST(EventTable, AppendAndRowRoundTrip) {
  EventTable table;
  const Event event = makeEvent(1, 5, 42, 7, 3);
  table.append(event);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.row(0), event);
}

TEST(EventTable, RowOutOfRangeThrows) {
  EventTable table;
  EXPECT_THROW(table.row(0), std::invalid_argument);
}

TEST(EventTable, BulkConstructionMatchesAppend) {
  const std::vector<Event> events{makeEvent(0, 2, 1, 1), makeEvent(3, 4, 2, 2)};
  const EventTable table{std::span<const Event>(events)};
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.row(0), events[0]);
  EXPECT_EQ(table.row(1), events[1]);
}

TEST(EventTable, SortByStartOrdersRows) {
  EventTable table = randomTable(1, 500, 100, 50, 20);
  table.sortByStart();
  ASSERT_TRUE(table.isSortedByStart());
  const auto starts = table.startColumn();
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
}

TEST(EventTable, SortKeepsRowIntegrity) {
  EventTable table;
  table.append(makeEvent(5, 6, 100, 200, 1));
  table.append(makeEvent(1, 9, 101, 201, 2));
  table.sortByStart();
  EXPECT_EQ(table.row(0), makeEvent(1, 9, 101, 201, 2));
  EXPECT_EQ(table.row(1), makeEvent(5, 6, 100, 200, 1));
}

TEST(EventTable, SortIsIdempotent) {
  EventTable table = randomTable(2, 100, 50, 10, 5);
  table.sortByStart();
  const Event first = table.row(0);
  table.sortByStart();
  EXPECT_EQ(table.row(0), first);
}

TEST(EventTable, SubsetQueriesRequireSort) {
  EventTable table = randomTable(3, 10, 50, 5, 5);
  EXPECT_THROW(table.rowsStartingIn(0, 10), std::invalid_argument);
  EXPECT_THROW(table.rowsOverlapping(0, 10), std::invalid_argument);
}

TEST(EventTable, RowsStartingInMatchesLinearScan) {
  EventTable table = randomTable(4, 2000, 200, 100, 40);
  table.sortByStart();
  for (Hour lo : {0u, 10u, 77u, 150u}) {
    const Hour hi = lo + 25;
    const auto rows = table.rowsStartingIn(lo, hi);
    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < table.size(); ++i) {
      const Event event = table.row(i);
      if (event.start >= lo && event.start < hi) {
        ++expected;
      }
    }
    EXPECT_EQ(rows.size(), expected) << "window [" << lo << "," << hi << ")";
    for (RowIndex row : rows) {
      const Event event = table.row(row);
      EXPECT_GE(event.start, lo);
      EXPECT_LT(event.start, hi);
    }
  }
}

class OverlapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapProperty, RowsOverlappingMatchesLinearScan) {
  const std::uint64_t seed = GetParam();
  EventTable table = randomTable(seed, 1500, 300, 80, 30);
  table.sortByStart();
  util::Rng rng(seed + 1000);
  for (int trial = 0; trial < 10; ++trial) {
    const Hour lo = static_cast<Hour>(rng.uniformBelow(300));
    const Hour hi = lo + 1 + static_cast<Hour>(rng.uniformBelow(60));
    auto rows = table.rowsOverlapping(lo, hi);
    std::vector<RowIndex> expected;
    for (std::uint64_t i = 0; i < table.size(); ++i) {
      if (overlapsWindow(table.row(i), lo, hi)) {
        expected.push_back(i);
      }
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expected) << "seed=" << seed << " window=[" << lo << ","
                              << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(EventTable, RowsOverlappingEmptyWindow) {
  EventTable table = randomTable(6, 100, 50, 10, 5);
  table.sortByStart();
  EXPECT_TRUE(table.rowsOverlapping(10, 10).empty());
  EXPECT_TRUE(table.rowsOverlapping(20, 10).empty());
}

TEST(EventTable, RowsOverlappingCatchesLongStraddlers) {
  EventTable table;
  table.append(makeEvent(0, 100, 1, 1));   // long event straddling everything
  for (Hour h = 1; h < 50; ++h) {
    table.append(makeEvent(h, h + 1, 2, 2));
  }
  table.sortByStart();
  const auto rows = table.rowsOverlapping(80, 90);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(table.row(rows[0]).person, 1u);
}

TEST(EventTable, SelectRowsPreservesOrder) {
  EventTable table = randomTable(7, 50, 30, 10, 5);
  const std::vector<RowIndex> picks{9, 3, 27};
  const EventTable subset = table.selectRows(picks);
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.row(0), table.row(9));
  EXPECT_EQ(subset.row(1), table.row(3));
  EXPECT_EQ(subset.row(2), table.row(27));
}

TEST(EventTable, FilterKeepsMatching) {
  EventTable table = randomTable(8, 400, 100, 20, 10);
  const EventTable filtered =
      table.filter([](const Event& event) { return event.person < 5; });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < table.size(); ++i) {
    expected += table.row(i).person < 5 ? 1 : 0;
  }
  EXPECT_EQ(filtered.size(), expected);
  for (std::uint64_t i = 0; i < filtered.size(); ++i) {
    EXPECT_LT(filtered.row(i).person, 5u);
  }
}

TEST(EventTable, UniquePlacesAndPersonsSortedDistinct) {
  EventTable table;
  table.append(makeEvent(0, 1, 5, 9));
  table.append(makeEvent(1, 2, 5, 3));
  table.append(makeEvent(2, 3, 2, 9));
  const auto places = table.uniquePlaces();
  const auto persons = table.uniquePersons();
  EXPECT_EQ(places, (std::vector<PlaceId>{3, 9}));
  EXPECT_EQ(persons, (std::vector<PersonId>{2, 5}));
}

TEST(EventTable, PlaceIndexGroupsAllRows) {
  EventTable table = randomTable(9, 800, 100, 40, 15);
  const PlaceIndex index = table.buildPlaceIndex();
  EXPECT_EQ(index.placeIds.size() + 1, index.offsets.size());
  EXPECT_EQ(index.rows.size(), table.size());

  std::uint64_t total = 0;
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    const PlaceId place = index.placeIds[group];
    for (RowIndex row : index.groupRows(group)) {
      EXPECT_EQ(table.row(row).place, place);
      ++total;
    }
  }
  EXPECT_EQ(total, table.size());
}

TEST(EventTable, PlaceIndexFind) {
  EventTable table;
  table.append(makeEvent(0, 1, 0, 10));
  table.append(makeEvent(0, 1, 0, 30));
  const PlaceIndex index = table.buildPlaceIndex();
  EXPECT_EQ(index.find(10), 0u);
  EXPECT_EQ(index.find(30), 1u);
  EXPECT_EQ(index.find(20), PlaceIndex::npos);
}

/// The sort + binary-search build that the dense counting sort replaced,
/// kept as the oracle every PlaceIndex must equal exactly.
PlaceIndex oraclePlaceIndex(const EventTable& table) {
  PlaceIndex index;
  index.placeIds = table.uniquePlaces();
  index.offsets.assign(index.placeIds.size() + 1, 0);
  const auto places = table.placeColumn();
  for (const PlaceId place : places) {
    ++index.offsets[index.find(place) + 1];
  }
  for (std::size_t g = 1; g <= index.placeIds.size(); ++g) {
    index.offsets[g] += index.offsets[g - 1];
  }
  index.rows.resize(table.size());
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::uint64_t i = 0; i < table.size(); ++i) {
    index.rows[cursor[index.find(places[i])]++] = i;
  }
  return index;
}

void expectOracleIndex(const EventTable& table, const std::string& label) {
  const PlaceIndex got = table.buildPlaceIndex();
  const PlaceIndex want = oraclePlaceIndex(table);
  EXPECT_EQ(got.placeIds, want.placeIds) << label;
  EXPECT_EQ(got.offsets, want.offsets) << label;
  EXPECT_EQ(got.rows, want.rows) << label;
}

/// A table whose place column is exactly `places`.
EventTable tableAtPlaces(const std::vector<PlaceId>& places) {
  EventTable table;
  for (std::size_t i = 0; i < places.size(); ++i) {
    table.append(makeEvent(static_cast<Hour>(i), static_cast<Hour>(i + 1),
                           static_cast<PersonId>(i), places[i]));
  }
  return table;
}

TEST(EventTable, PlaceIndexMatchesOracleOnRandomTables) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(seed + 300);
    const std::size_t rows = 1 + rng.uniformBelow(2000);
    // Dense: ids drawn below the row count, well inside the table bound.
    expectOracleIndex(
        randomTable(seed, rows, 100, 50,
                    static_cast<PlaceId>(1 + rng.uniformBelow(rows))),
        "dense seed " + std::to_string(seed));
    // Sparse: ids anywhere in the 32-bit range, far past the bound.
    std::vector<PlaceId> places(rows);
    for (PlaceId& place : places) {
      place = rng.uniformBelow(8) == 0
                  ? places[rng.uniformBelow(rows)]
                  : static_cast<PlaceId>(rng.next());
    }
    expectOracleIndex(tableAtPlaces(places),
                      "sparse seed " + std::to_string(seed));
  }
}

TEST(EventTable, PlaceIndexMatchesOracleOnEdgeCases) {
  constexpr PlaceId kMax = std::numeric_limits<PlaceId>::max();
  const EventTable empty;
  const PlaceIndex emptyIndex = empty.buildPlaceIndex();
  EXPECT_TRUE(emptyIndex.placeIds.empty());
  EXPECT_EQ(emptyIndex.offsets, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(emptyIndex.rows.empty());
  expectOracleIndex(empty, "empty");
  expectOracleIndex(tableAtPlaces({0}), "single id 0");
  expectOracleIndex(tableAtPlaces({kMax}), "single id UINT32_MAX");
  expectOracleIndex(tableAtPlaces({kMax, 0, kMax, 7}), "UINT32_MAX mixed");
  // The dense table admits ids below 4 entries per row: with 5 rows, 19
  // is the last id at the bound and 20 the first past it.
  expectOracleIndex(tableAtPlaces({19, 3, 0, 19, 3}), "at the bound");
  expectOracleIndex(tableAtPlaces({20, 3, 0, 20, 3}), "past the bound");
  expectOracleIndex(tableAtPlaces(std::vector<PlaceId>(50, 9)),
                    "one place");
  const PlaceIndex onePlace =
      tableAtPlaces(std::vector<PlaceId>(50, 9)).buildPlaceIndex();
  EXPECT_EQ(onePlace.placeIds, (std::vector<PlaceId>{9}));
  EXPECT_EQ(onePlace.offsets, (std::vector<std::uint64_t>{0, 50}));
}

TEST(EventTable, MaxEnd) {
  EventTable table;
  EXPECT_EQ(table.maxEnd(), 0u);
  table.append(makeEvent(0, 7, 0, 0));
  table.append(makeEvent(2, 3, 0, 0));
  EXPECT_EQ(table.maxEnd(), 7u);
}

TEST(EventTable, ClearResets) {
  EventTable table = randomTable(10, 10, 10, 5, 5);
  table.sortByStart();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.isSortedByStart());
}

}  // namespace
}  // namespace chisimnet::table

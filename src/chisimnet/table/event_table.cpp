#include "chisimnet/table/event_table.hpp"

#include <algorithm>
#include <numeric>

#include "chisimnet/util/error.hpp"

namespace chisimnet::table {

std::size_t PlaceIndex::find(PlaceId place) const noexcept {
  const auto it = std::lower_bound(placeIds.begin(), placeIds.end(), place);
  if (it == placeIds.end() || *it != place) {
    return npos;
  }
  return static_cast<std::size_t>(it - placeIds.begin());
}

EventTable::EventTable(std::span<const Event> events) { appendAll(events); }

void EventTable::append(const Event& event) {
  start_.push_back(event.start);
  end_.push_back(event.end);
  person_.push_back(event.person);
  activity_.push_back(event.activity);
  place_.push_back(event.place);
  sortedByStart_ = false;
}

void EventTable::appendAll(std::span<const Event> events) {
  reserve(size() + events.size());
  for (const Event& event : events) {
    append(event);
  }
}

void EventTable::reserve(std::uint64_t rows) {
  start_.reserve(rows);
  end_.reserve(rows);
  person_.reserve(rows);
  activity_.reserve(rows);
  place_.reserve(rows);
}

void EventTable::clear() {
  start_.clear();
  end_.clear();
  person_.clear();
  activity_.clear();
  place_.clear();
  runningMaxEnd_.clear();
  sortedByStart_ = false;
}

Event EventTable::row(RowIndex index) const {
  CHISIM_REQUIRE(index < size(), "row index out of range");
  return Event{start_[index], end_[index], person_[index], activity_[index],
               place_[index]};
}

void EventTable::sortByStart() {
  if (sortedByStart_) {
    return;
  }
  std::vector<RowIndex> order(size());
  std::iota(order.begin(), order.end(), RowIndex{0});
  std::sort(order.begin(), order.end(), [this](RowIndex a, RowIndex b) {
    if (start_[a] != start_[b]) return start_[a] < start_[b];
    if (end_[a] != end_[b]) return end_[a] < end_[b];
    return person_[a] < person_[b];
  });

  const auto permute = [&order](auto& column) {
    using Column = std::remove_reference_t<decltype(column)>;
    Column permuted;
    permuted.reserve(column.size());
    for (RowIndex source : order) {
      permuted.push_back(column[source]);
    }
    column = std::move(permuted);
  };
  permute(start_);
  permute(end_);
  permute(person_);
  permute(activity_);
  permute(place_);

  runningMaxEnd_.resize(size());
  Hour runningMax = 0;
  for (std::uint64_t i = 0; i < size(); ++i) {
    runningMax = std::max(runningMax, end_[i]);
    runningMaxEnd_[i] = runningMax;
  }
  sortedByStart_ = true;
}

std::vector<RowIndex> EventTable::rowsStartingIn(Hour windowStart,
                                                 Hour windowEnd) const {
  CHISIM_REQUIRE(sortedByStart_, "rowsStartingIn requires sortByStart()");
  const auto lo = std::lower_bound(start_.begin(), start_.end(), windowStart);
  const auto hi = std::lower_bound(lo, start_.end(), windowEnd);
  std::vector<RowIndex> rows;
  rows.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    rows.push_back(static_cast<RowIndex>(it - start_.begin()));
  }
  return rows;
}

std::vector<RowIndex> EventTable::rowsOverlapping(Hour windowStart,
                                                  Hour windowEnd) const {
  CHISIM_REQUIRE(sortedByStart_, "rowsOverlapping requires sortByStart()");
  std::vector<RowIndex> rows;
  if (windowStart >= windowEnd || empty()) {
    return rows;
  }
  // Rows at or beyond hiIdx start at/after windowEnd: no overlap possible.
  const auto hiIt = std::lower_bound(start_.begin(), start_.end(), windowEnd);
  const auto hiIdx = static_cast<std::uint64_t>(hiIt - start_.begin());
  if (hiIdx == 0) {
    return rows;
  }
  // runningMaxEnd_ is non-decreasing, so the first row whose prefix max end
  // exceeds windowStart marks the earliest possible overlap.
  const auto loIt = std::upper_bound(runningMaxEnd_.begin(),
                                     runningMaxEnd_.begin() + hiIdx, windowStart);
  for (auto i = static_cast<std::uint64_t>(loIt - runningMaxEnd_.begin());
       i < hiIdx; ++i) {
    if (end_[i] > windowStart) {
      rows.push_back(i);
    }
  }
  return rows;
}

EventTable EventTable::selectRows(std::span<const RowIndex> rowIndices) const {
  EventTable result;
  result.reserve(rowIndices.size());
  for (RowIndex index : rowIndices) {
    result.append(row(index));
  }
  return result;
}

EventTable EventTable::filter(
    const std::function<bool(const Event&)>& predicate) const {
  EventTable result;
  for (std::uint64_t i = 0; i < size(); ++i) {
    const Event event = row(i);
    if (predicate(event)) {
      result.append(event);
    }
  }
  return result;
}

namespace {

/// A dense place-id table costs one 8-byte cursor per id up to the largest
/// one. It is used only when that range is within this many entries per
/// row (the bound `graph::Graph` applies to its label table), so a forged
/// id near UINT32_MAX cannot size it.
constexpr std::uint64_t kDenseIdsPerRow = 4;

bool denseIdsFit(PlaceId maxPlace, std::uint64_t rows) {
  return maxPlace < kDenseIdsPerRow * rows;
}

template <typename T>
std::vector<T> sortedUnique(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

std::vector<PlaceId> EventTable::uniquePlaces() const {
  return sortedUnique(std::vector<PlaceId>(place_.begin(), place_.end()));
}

std::vector<PersonId> EventTable::uniquePersons() const {
  return sortedUnique(std::vector<PersonId>(person_.begin(), person_.end()));
}

PlaceIndex EventTable::buildPlaceIndex() const {
  PlaceIndex index;
  const PlaceId maxPlace =
      place_.empty() ? 0 : *std::max_element(place_.begin(), place_.end());
  if (!place_.empty() && denseIdsFit(maxPlace, size())) {
    // Counting sort over a dense id table: one pass counts rows per id,
    // the prefix sum turns counts into group offsets, a second pass
    // places every row in ascending row order.
    std::vector<std::uint64_t> cursor(std::uint64_t{maxPlace} + 1, 0);
    for (const PlaceId place : place_) {
      ++cursor[place];
    }
    index.offsets.push_back(0);
    std::uint64_t offset = 0;
    for (std::uint64_t place = 0; place < cursor.size(); ++place) {
      const std::uint64_t count = cursor[place];
      cursor[place] = offset;
      if (count != 0) {
        offset += count;
        index.placeIds.push_back(static_cast<PlaceId>(place));
        index.offsets.push_back(offset);
      }
    }
    index.rows.resize(size());
    for (std::uint64_t i = 0; i < size(); ++i) {
      index.rows[cursor[place_[i]]++] = i;
    }
    return index;
  }

  // Sparse ids: the table would be sized by the largest id, not by the
  // rows, so group through the sorted unique ids instead.
  index.placeIds = uniquePlaces();
  index.offsets.assign(index.placeIds.size() + 1, 0);
  for (PlaceId place : place_) {
    const std::size_t group = index.find(place);
    ++index.offsets[group + 1];
  }
  for (std::size_t g = 1; g <= index.placeIds.size(); ++g) {
    index.offsets[g] += index.offsets[g - 1];
  }
  index.rows.resize(size());
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::uint64_t i = 0; i < size(); ++i) {
    const std::size_t group = index.find(place_[i]);
    index.rows[cursor[group]++] = i;
  }
  return index;
}

Hour EventTable::maxEnd() const noexcept {
  Hour result = 0;
  for (Hour value : end_) {
    result = std::max(result, value);
  }
  return result;
}

}  // namespace chisimnet::table

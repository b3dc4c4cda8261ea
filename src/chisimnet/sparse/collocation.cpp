#include "chisimnet/sparse/collocation.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

struct Presence {
  table::PersonId person;
  std::uint32_t hour;

  friend auto operator<=>(const Presence&, const Presence&) = default;
};

/// Expands events at one place into deduplicated (person, relative hour)
/// presences clipped to the window.
std::vector<Presence> expandPresences(std::span<const table::Event> events,
                                      table::Hour windowStart,
                                      table::Hour windowEnd) {
  std::vector<Presence> presences;
  for (const table::Event& event : events) {
    const table::Hour from = std::max(event.start, windowStart);
    const table::Hour to = std::min(event.end, windowEnd);
    for (table::Hour hour = from; hour < to; ++hour) {
      presences.push_back(Presence{event.person, hour - windowStart});
    }
  }
  std::sort(presences.begin(), presences.end());
  presences.erase(std::unique(presences.begin(), presences.end()),
                  presences.end());
  return presences;
}

/// Distinct values in `hours`, each of which must lie in the slice.
std::uint32_t countOccupiedHours(std::span<const std::uint32_t> hours,
                                 std::uint32_t sliceHours) {
  std::vector<std::uint8_t> seen(sliceHours, 0);
  std::uint32_t count = 0;
  for (const std::uint32_t hour : hours) {
    CHISIM_CHECK(hour < sliceHours,
                 "collocation matrix hour outside its slice");
    count += seen[hour] == 0 ? 1 : 0;
    seen[hour] = 1;
  }
  return count;
}

}  // namespace

CollocationMatrix::CollocationMatrix(table::PlaceId place,
                                     std::span<const table::Event> events,
                                     table::Hour windowStart,
                                     table::Hour windowEnd)
    : place_(place) {
  CHISIM_REQUIRE(windowStart <= windowEnd, "window must be non-empty or empty");
  sliceHours_ = windowEnd - windowStart;

  const std::vector<Presence> presences =
      expandPresences(events, windowStart, windowEnd);

  offsets_.push_back(0);
  hours_.reserve(presences.size());
  for (const Presence& presence : presences) {
    if (persons_.empty() || persons_.back() != presence.person) {
      persons_.push_back(presence.person);
      offsets_.push_back(hours_.size());
    }
    hours_.push_back(presence.hour);
    offsets_.back() = hours_.size();
  }
  if (persons_.empty()) {
    offsets_.assign(1, 0);
  }
  occupiedHours_ = countOccupiedHours(hours_, sliceHours_);
}

bool CollocationMatrix::present(std::size_t row, std::uint32_t hour) const noexcept {
  const auto span = hoursAt(row);
  return std::binary_search(span.begin(), span.end(), hour);
}

std::vector<std::byte> CollocationMatrix::toBytes() const {
  // Layout: place u32, sliceHours u32, personCount u64, nnz u64,
  //         persons (u32 each), offsets (u64 each), hours (u32 each).
  std::vector<std::byte> bytes;
  bytes.reserve(24 + persons_.size() * 4 + offsets_.size() * 8 +
                hours_.size() * 4);
  const auto put32 = [&bytes](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::byte>(value >> shift));
    }
  };
  const auto put64 = [&put32](std::uint64_t value) {
    put32(static_cast<std::uint32_t>(value));
    put32(static_cast<std::uint32_t>(value >> 32));
  };
  put32(place_);
  put32(sliceHours_);
  put64(persons_.size());
  put64(hours_.size());
  for (table::PersonId person : persons_) {
    put32(person);
  }
  for (std::uint64_t offset : offsets_) {
    put64(offset);
  }
  for (std::uint32_t hour : hours_) {
    put32(hour);
  }
  return bytes;
}

CollocationMatrix CollocationMatrix::fromBytes(std::span<const std::byte> bytes) {
  std::size_t cursor = 0;
  const auto take32 = [&bytes, &cursor]() {
    CHISIM_CHECK(cursor + 4 <= bytes.size(), "truncated collocation matrix");
    const std::uint32_t value =
        static_cast<std::uint32_t>(bytes[cursor]) |
        (static_cast<std::uint32_t>(bytes[cursor + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[cursor + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[cursor + 3]) << 24);
    cursor += 4;
    return value;
  };
  const auto take64 = [&take32]() {
    const std::uint64_t low = take32();
    const std::uint64_t high = take32();
    return low | (high << 32);
  };

  CollocationMatrix matrix;
  matrix.place_ = take32();
  matrix.sliceHours_ = take32();
  const std::uint64_t personCount = take64();
  const std::uint64_t nnz = take64();
  matrix.persons_.resize(personCount);
  for (table::PersonId& person : matrix.persons_) {
    person = take32();
  }
  matrix.offsets_.resize(personCount + 1);
  for (std::uint64_t& offset : matrix.offsets_) {
    offset = take64();
  }
  matrix.hours_.resize(nnz);
  for (std::uint32_t& hour : matrix.hours_) {
    hour = take32();
  }
  CHISIM_CHECK(cursor == bytes.size(), "trailing bytes in collocation matrix");
  CHISIM_CHECK(matrix.offsets_.front() == 0 && matrix.offsets_.back() == nnz,
               "corrupt collocation matrix offsets");
  matrix.occupiedHours_ = countOccupiedHours(matrix.hours_, matrix.sliceHours_);
  return matrix;
}

std::size_t CollocationMatrix::memoryBytes() const noexcept {
  return persons_.size() * sizeof(table::PersonId) +
         offsets_.size() * sizeof(std::uint64_t) +
         hours_.size() * sizeof(std::uint32_t);
}

std::vector<CollocationMatrix> buildCollocationMatrices(
    const table::EventTable& table, table::Hour windowStart,
    table::Hour windowEnd) {
  const table::PlaceIndex index = table.buildPlaceIndex();
  std::vector<CollocationMatrix> matrices;
  matrices.reserve(index.placeIds.size());
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    CollocationMatrix matrix =
        buildCollocationMatrix(table, index, group, windowStart, windowEnd);
    if (matrix.nnz() > 0) {
      matrices.push_back(std::move(matrix));
    }
  }
  return matrices;
}

CollocationMatrix buildCollocationMatrix(const table::EventTable& table,
                                         const table::PlaceIndex& index,
                                         std::size_t group,
                                         table::Hour windowStart,
                                         table::Hour windowEnd) {
  CHISIM_REQUIRE(group < index.placeIds.size(), "group out of range");
  std::vector<table::Event> events;
  const auto rows = index.groupRows(group);
  events.reserve(rows.size());
  for (table::RowIndex rowIndex : rows) {
    events.push_back(table.row(rowIndex));
  }
  return CollocationMatrix(index.placeIds[group], events, windowStart, windowEnd);
}

}  // namespace chisimnet::sparse

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"

/// The paper's per-place kernel as written: A += x·xᵀ by sparse column
/// outer products, one global insert per pair-hour. A reference only: the
/// kernel tests require the library's adjacency to equal it, and
/// bench_spgemm gates the library kernel's speed against it.

namespace chisimnet::sparse::oracle {

/// Adds one place's x·xᵀ to `adjacency`: for every hour column, 1 for
/// every pair of persons present in it.
inline void addViaSpGemm(SymmetricAdjacency& adjacency,
                         const CollocationMatrix& matrix) {
  const std::size_t personCount = matrix.personCount();
  if (personCount < 2) {
    return;
  }
  // Counting-sort transpose of the per-person hour lists into per-hour
  // columns of local rows.
  std::vector<std::uint64_t> offsets(matrix.sliceHours() + 1, 0);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (const std::uint32_t hour : matrix.hoursAt(row)) {
      ++offsets[hour + 1];
    }
  }
  for (std::size_t h = 1; h < offsets.size(); ++h) {
    offsets[h] += offsets[h - 1];
  }
  std::vector<std::uint32_t> rows(matrix.nnz());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (const std::uint32_t hour : matrix.hoursAt(row)) {
      rows[cursor[hour]++] = static_cast<std::uint32_t>(row);
    }
  }
  for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
    for (std::uint64_t a = offsets[hour]; a < offsets[hour + 1]; ++a) {
      const table::PersonId personA = matrix.personAt(rows[a]);
      for (std::uint64_t b = a + 1; b < offsets[hour + 1]; ++b) {
        adjacency.add(personA, matrix.personAt(rows[b]), 1);
      }
    }
  }
}

/// Σ over `matrices` of x·xᵀ through addViaSpGemm.
inline SymmetricAdjacency spgemmAdjacency(
    std::span<const CollocationMatrix> matrices) {
  SymmetricAdjacency adjacency;
  for (const CollocationMatrix& matrix : matrices) {
    addViaSpGemm(adjacency, matrix);
  }
  return adjacency;
}

}  // namespace chisimnet::sparse::oracle

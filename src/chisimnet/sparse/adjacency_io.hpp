#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"

/// Persistence for the synthesized sparse triangular adjacency matrix.
///
/// The paper synthesizes the network once on the cluster, then loads the
/// resulting ~10 GB sparse matrix on a workstation for analysis and
/// visualization (§V.A). CADJ1 is a compact binary container for the sorted
/// upper-triangular triplets: header (magic, version, edge count), payload
/// of (i, j, weight) rows with u32 ids and u64 weights, and a CRC32 footer
/// over the payload so a truncated transfer is detected at load.

namespace chisimnet::sparse {

/// Writes the adjacency as sorted triplets. Overwrites `path`. The shards
/// are sorted and encoded concurrently on up to `workers` threads and
/// written in shard order; the bytes do not depend on `workers`.
void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path,
                   unsigned workers = std::thread::hardware_concurrency());

/// Writes triplets that are already in CADJ order: upper-triangular and
/// strictly (i, j)-ascending, which is checked (out-of-order or duplicate
/// rows throw). Streams the payload in 1 MiB chunks with a chained CRC.
void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path);

/// The CADJ row encoder every writer shares: writes `rows` at `out` as
/// 16-byte little-endian (i, j, weight) records. Each row must be
/// upper-triangular with a packed key strictly above `lastKey`, which is
/// advanced to the last row's key (every valid key is above 0, so 0 admits
/// any first row).
void encodeTripletRows(std::span<const AdjacencyTriplet> rows, std::byte* out,
                       std::uint64_t& lastKey);

/// CADJ decode failure: the file, the byte offset the failure was detected
/// at, and the reason, all of it also in what().
class CadjError : public std::runtime_error {
 public:
  CadjError(std::filesystem::path file, std::uint64_t byteOffset,
            const std::string& reason);

  const std::filesystem::path& file() const noexcept { return file_; }
  std::uint64_t byteOffset() const noexcept { return byteOffset_; }
  /// The underlying failure, without the location prefix.
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::filesystem::path file_;
  std::uint64_t byteOffset_;
  std::string reason_;
};

/// Loads triplets; validates magic, version, the header count against the
/// file size (before allocating), and the CRC. The payload's 1 MiB chunks
/// are read (pread) straight into the result and CRCed on up to `workers`
/// threads, so only the triplets are held in full. Throws CadjError: at the
/// footer offset on a CRC mismatch, at a chunk's offset if the file shrinks
/// while it is read.
std::vector<AdjacencyTriplet> loadTriplets(
    const std::filesystem::path& path,
    unsigned workers = std::thread::hardware_concurrency());

/// Loads into an accumulator (e.g. to sum stored partial matrices).
SymmetricAdjacency loadAdjacency(const std::filesystem::path& path);

/// Identity of a finished CADJ payload segment: a headerless file of
/// LE-encoded (i, j, weight) rows covering one sorted key range, produced
/// by a per-shard external merge and later concatenated into the final
/// CADJ via StreamingTripletWriter::appendSegmentFile.
struct TripletSegmentInfo {
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;  ///< file size = 16 × triplets
  std::uint32_t crc = 0;    ///< crc32 over the segment's bytes
};

/// Encoded CADJ payload on its way to a stream: rows are encoded into a
/// 1 MiB buffer (order-checked across every append), and each flushed
/// chunk is chained into one CRC over all the payload written. Shared by
/// the segment and CADJ writers, so both emit identical payload bytes.
class PayloadBuffer {
 public:
  explicit PayloadBuffer(std::ostream& out) : out_(&out) {}

  void append(std::span<const AdjacencyTriplet> rows);
  /// Writes already-encoded rows after everything appended so far.
  void appendEncoded(std::span<const std::byte> bytes);
  /// The same, for rows whose crc32 the caller already took: it is folded
  /// into the chained CRC (util::crc32Combine) instead of rehashing.
  void appendEncoded(std::span<const std::byte> bytes, std::uint32_t bytesCrc);
  void flush();

  std::uint32_t crc() const noexcept { return crc_; }
  std::uint64_t bytesWritten() const noexcept { return written_; }

 private:
  std::ostream* out_;
  std::vector<std::byte> bytes_;
  std::size_t used_ = 0;
  std::uint64_t lastKey_ = 0;
  std::uint32_t crc_ = 0;
  std::uint64_t written_ = 0;
};

/// Streams sorted triplets into a raw payload-segment file (tmp+rename, so
/// a segment that exists under its real name is always whole). The byte
/// encoding is exactly StreamingTripletWriter's payload encoding, which is
/// what makes a shard-ordered concatenation of segments reproduce the
/// serial writer's payload bit for bit.
class TripletSegmentWriter {
 public:
  explicit TripletSegmentWriter(std::filesystem::path path);
  ~TripletSegmentWriter();

  TripletSegmentWriter(const TripletSegmentWriter&) = delete;
  TripletSegmentWriter& operator=(const TripletSegmentWriter&) = delete;

  /// Rows must arrive upper-triangular (i < j) and strictly ascending.
  void append(const AdjacencyTriplet& triplet);

  /// Flushes and renames the .tmp into place.
  TripletSegmentInfo finish();

 private:
  std::filesystem::path path_;
  std::filesystem::path tmp_;
  std::ofstream out_;
  PayloadBuffer payload_{out_};
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// Streams triplets into a CADJ1 file without materializing them: the
/// header count is patched and the payload CRC chained incrementally at
/// finish(), producing bytes identical to saveTriplets() on the same
/// sequence. This is how a memory-budgeted synthesis writes its final
/// external-merge stream straight to disk.
class StreamingTripletWriter {
 public:
  explicit StreamingTripletWriter(const std::filesystem::path& path);

  /// Rows must arrive upper-triangular (i < j) and strictly ascending
  /// (checked across appends; spliced segments are not decoded).
  void append(const AdjacencyTriplet& triplet);
  void append(std::span<const AdjacencyTriplet> rows);

  /// Splices `rows` rows already encoded by encodeTripletRows, in order
  /// after every earlier append.
  void appendEncoded(std::span<const std::byte> bytes, std::uint64_t rows);

  /// Splices a finished payload segment (TripletSegmentWriter output) into
  /// the stream by raw byte copy: no decode, no re-encode. Each copied
  /// byte is hashed once: the CRC is checked against `info.crc` so a
  /// segment corrupted at rest (or a stale resume artifact) fails loudly
  /// instead of poisoning the output, and folded into the chained payload
  /// CRC.
  /// Segments must be appended in ascending key order relative to every
  /// other append.
  void appendSegmentFile(const std::filesystem::path& segment,
                         const TripletSegmentInfo& info);

  /// Writes the CRC footer, patches the header count; returns the count.
  std::uint64_t finish();

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  PayloadBuffer payload_{out_};
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

}  // namespace chisimnet::sparse

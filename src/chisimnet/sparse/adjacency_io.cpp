#include "chisimnet/sparse/adjacency_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <mutex>
#include <system_error>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kMagic[4] = {'C', 'A', 'D', 'J'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRowBytes = 4 + 4 + 8;
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8;  // magic, version, count
constexpr std::uint64_t kRowsPerChunk = 64 * 1024;  // 1 MiB chunk buffer

static_assert(sizeof(AdjacencyTriplet) == kRowBytes &&
                  offsetof(AdjacencyTriplet, j) == 4 &&
                  offsetof(AdjacencyTriplet, weight) == 8,
              "a CADJ row is read straight into an AdjacencyTriplet");

/// A read-only file for positioned reads from many threads at once.
class FileDescriptor {
 public:
  explicit FileDescriptor(const std::filesystem::path& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw std::system_error(errno, std::generic_category(),
                              "cannot open adjacency file: " + path.string());
    }
  }
  ~FileDescriptor() { ::close(fd_); }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  std::uint64_t size() const {
    struct stat status {};
    if (::fstat(fd_, &status) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "cannot stat adjacency file");
    }
    return static_cast<std::uint64_t>(status.st_size);
  }

  /// Fills `bytes` from `offset`, looping on short reads. False when the
  /// file ends first.
  bool readAt(std::span<std::byte> bytes, std::uint64_t offset) const {
    while (!bytes.empty()) {
      const ssize_t got = ::pread(fd_, bytes.data(), bytes.size(),
                                  static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got < 0) {
        throw std::system_error(errno, std::generic_category(),
                                "adjacency file read failed");
      }
      if (got == 0) {
        return false;
      }
      bytes = bytes.subspan(static_cast<std::size_t>(got));
      offset += static_cast<std::uint64_t>(got);
    }
    return true;
  }

 private:
  int fd_;
};

void store32(std::byte* out, std::uint32_t value) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &value, sizeof value);
  } else {
    for (int shift = 0; shift < 32; shift += 8) {
      *out++ = static_cast<std::byte>(value >> shift);
    }
  }
}

}  // namespace

void encodeTripletRows(std::span<const AdjacencyTriplet> rows, std::byte* out,
                       std::uint64_t& lastKey) {
  for (const AdjacencyTriplet& triplet : rows) {
    CHISIM_REQUIRE(triplet.i < triplet.j,
                   "triplets must be upper-triangular (i < j)");
    const std::uint64_t key = packPair(triplet.i, triplet.j);
    CHISIM_REQUIRE(key > lastKey,
                   "triplets must be strictly (i, j)-ascending (CADJ order)");
    lastKey = key;
    store32(out, triplet.i);
    store32(out + 4, triplet.j);
    store32(out + 8, static_cast<std::uint32_t>(triplet.weight));
    store32(out + 12, static_cast<std::uint32_t>(triplet.weight >> 32));
    out += kRowBytes;
  }
}

void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path) {
  StreamingTripletWriter writer(path);
  writer.append(triplets);
  writer.finish();
}

void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path, unsigned workers) {
  // Each shard is a disjoint ascending key range, so the payload is the
  // concatenation of the shards' sorted rows. The shards are sorted and
  // encoded in parallel; whichever thread completes the next segment in
  // shard order writes it (and any completed successors), chaining the
  // CRC, while the other threads keep encoding.
  StreamingTripletWriter writer(path);
  const std::size_t shards = adjacency.shardCount();
  std::vector<std::vector<std::byte>> segments(shards);
  std::vector<std::uint64_t> rows(shards, 0);
  std::vector<bool> ready(shards, false);
  std::size_t nextToWrite = 0;
  bool writing = false;
  std::mutex mutex;
  adjacency.forEachSortedShard(
      workers, [&](std::size_t shard, std::span<const AdjacencyTriplet> sorted) {
        std::vector<std::byte> bytes(sorted.size() * kRowBytes);
        std::uint64_t lastKey = 0;
        encodeTripletRows(sorted, bytes.data(), lastKey);
        std::unique_lock<std::mutex> lock(mutex);
        segments[shard] = std::move(bytes);
        rows[shard] = sorted.size();
        ready[shard] = true;
        if (writing) {
          return;  // the current writer will reach this segment
        }
        writing = true;
        while (nextToWrite < shards && ready[nextToWrite]) {
          const std::size_t next = nextToWrite;
          lock.unlock();
          writer.appendEncoded(segments[next], rows[next]);
          std::vector<std::byte>().swap(segments[next]);
          lock.lock();
          ++nextToWrite;
        }
        writing = false;
      });
  writer.finish();
}

CadjError::CadjError(std::filesystem::path file, std::uint64_t byteOffset,
                     const std::string& reason)
    : std::runtime_error("CADJ file " + file.string() + " at byte offset " +
                         std::to_string(byteOffset) + ": " + reason),
      file_(std::move(file)),
      byteOffset_(byteOffset),
      reason_(reason) {}

std::vector<AdjacencyTriplet> loadTriplets(const std::filesystem::path& path,
                                           unsigned workers) {
  const auto fail = [&path](std::uint64_t offset, const std::string& reason) {
    throw CadjError(path, offset, reason);
  };
  // One open: the size, the header and the payload all come from it.
  const FileDescriptor file(path);
  const std::uint64_t fileBytes = file.size();
  const std::uint64_t framing = kHeaderBytes + 4;  // header + CRC footer
  std::byte header[kHeaderBytes];
  const std::uint64_t headerBytes = std::min(fileBytes, kHeaderBytes);
  if (!file.readAt(std::span(header, headerBytes), 0)) {
    fail(0, "header ends early: the file shrank while it was read");
  }
  if (headerBytes < 4 || std::memcmp(header, kMagic, 4) != 0) {
    fail(0, "not a CADJ file");
  }
  if (fileBytes < framing) {
    fail(4, "file of " + std::to_string(fileBytes) +
                " bytes is shorter than the CADJ framing");
  }
  const std::uint32_t version = util::loadLe32(header + 4);
  if (version != kVersion) {
    fail(4, "unsupported CADJ version " + std::to_string(version));
  }
  // The file must be exactly header + count rows + footer. Checked before
  // anything is sized by the untrusted count, without overflowing.
  const std::uint64_t count = util::loadLe64(header + 8);
  const std::uint64_t payloadBytes = fileBytes - framing;
  if (payloadBytes % kRowBytes != 0 || count != payloadBytes / kRowBytes) {
    fail(8, "header count " + std::to_string(count) + " does not match the " +
                std::to_string(fileBytes) + "-byte file, which holds " +
                std::to_string(payloadBytes / kRowBytes) + " rows and " +
                std::to_string(payloadBytes % kRowBytes) + " stray bytes");
  }

  // Each 1 MiB chunk is read straight into its slice of the result, CRCed
  // on its own and decoded in place, on up to `workers` threads; the chunk
  // CRCs then fold in file order into the CRC of the whole payload.
  std::vector<AdjacencyTriplet> triplets(count);
  const std::uint64_t chunks = (count + kRowsPerChunk - 1) / kRowsPerChunk;
  std::vector<std::uint32_t> chunkCrcs(chunks);
  std::vector<std::uint8_t> chunkShort(chunks, 0);
  runtime::parallelFor(chunks, workers, [&](std::uint64_t chunk) {
    const std::uint64_t first = chunk * kRowsPerChunk;
    const std::uint64_t rows = std::min(count - first, kRowsPerChunk);
    const std::span<std::byte> bytes(
        reinterpret_cast<std::byte*>(triplets.data() + first),
        rows * kRowBytes);
    if (!file.readAt(bytes, kHeaderBytes + first * kRowBytes)) {
      chunkShort[chunk] = 1;
      return;
    }
    chunkCrcs[chunk] = util::crc32(bytes);
    if constexpr (std::endian::native != std::endian::little) {
      for (AdjacencyTriplet& triplet :
           std::span(triplets).subspan(first, rows)) {
        std::byte row[kRowBytes];
        std::memcpy(row, &triplet, kRowBytes);
        triplet.i = util::loadLe32(row);
        triplet.j = util::loadLe32(row + 4);
        triplet.weight = util::loadLe64(row + 8);
      }
    }
  });
  const auto shortChunk = std::find(chunkShort.begin(), chunkShort.end(), 1);
  if (shortChunk != chunkShort.end()) {
    fail(kHeaderBytes +
             static_cast<std::uint64_t>(shortChunk - chunkShort.begin()) *
                 kRowsPerChunk * kRowBytes,
         "payload chunk ends early: the file shrank while it was read");
  }
  std::uint32_t crc = 0;
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const std::uint64_t rows =
        std::min(count - chunk * kRowsPerChunk, kRowsPerChunk);
    crc = util::crc32Combine(crc, chunkCrcs[chunk], rows * kRowBytes);
  }
  const std::uint64_t footerOffset = kHeaderBytes + count * kRowBytes;
  std::byte footer[4];
  if (!file.readAt(footer, footerOffset)) {
    fail(footerOffset, "CRC footer missing: the file shrank while it was read");
  }
  if (util::loadLe32(footer) != crc) {
    fail(footerOffset, "adjacency CRC mismatch (corrupt or truncated)");
  }
  return triplets;
}

void PayloadBuffer::append(std::span<const AdjacencyTriplet> rows) {
  if (bytes_.empty()) {
    bytes_.resize(kRowsPerChunk * kRowBytes);
  }
  while (!rows.empty()) {
    const std::size_t room = (bytes_.size() - used_) / kRowBytes;
    const std::span<const AdjacencyTriplet> part =
        rows.first(std::min(room, rows.size()));
    encodeTripletRows(part, bytes_.data() + used_, lastKey_);
    used_ += part.size() * kRowBytes;
    rows = rows.subspan(part.size());
    if (used_ == bytes_.size()) {
      flush();
    }
  }
}

void PayloadBuffer::appendEncoded(std::span<const std::byte> bytes) {
  appendEncoded(bytes, util::crc32(bytes));
}

void PayloadBuffer::appendEncoded(std::span<const std::byte> bytes,
                                  std::uint32_t bytesCrc) {
  flush();  // everything buffered so far precedes these bytes
  // Folded, not rehashed: still equals crc32(whole payload).
  crc_ = util::crc32Combine(crc_, bytesCrc, bytes.size());
  util::writeBytes(*out_, bytes);
  written_ += bytes.size();
}

void PayloadBuffer::flush() {
  if (used_ == 0) {
    return;
  }
  const std::span<const std::byte> pending(bytes_.data(), used_);
  crc_ = util::crc32(pending, crc_);
  util::writeBytes(*out_, pending);
  written_ += used_;
  used_ = 0;
}

TripletSegmentWriter::TripletSegmentWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp") {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out_.good(),
               "cannot open segment file for writing: " + tmp_.string());
}

TripletSegmentWriter::~TripletSegmentWriter() {
  if (!finished_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void TripletSegmentWriter::append(const AdjacencyTriplet& triplet) {
  payload_.append(std::span(&triplet, 1));
  ++count_;
}

TripletSegmentInfo TripletSegmentWriter::finish() {
  CHISIM_REQUIRE(!finished_, "segment already finished");
  payload_.flush();
  out_.flush();
  CHISIM_CHECK(out_.good(), "segment write failed: " + tmp_.string());
  out_.close();
  std::filesystem::rename(tmp_, path_);
  finished_ = true;
  return TripletSegmentInfo{count_, payload_.bytesWritten(), payload_.crc()};
}

StreamingTripletWriter::StreamingTripletWriter(
    const std::filesystem::path& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  CHISIM_CHECK(out_.good(),
               "cannot open adjacency file for writing: " + path.string());
  out_.write(kMagic, 4);
  util::writeU32(out_, kVersion);
  util::writeU64(out_, 0);  // edge count, patched by finish()
}

void StreamingTripletWriter::append(const AdjacencyTriplet& triplet) {
  append(std::span(&triplet, 1));
}

void StreamingTripletWriter::append(std::span<const AdjacencyTriplet> rows) {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  payload_.append(rows);
  count_ += rows.size();
}

void StreamingTripletWriter::appendEncoded(std::span<const std::byte> bytes,
                                           std::uint64_t rows) {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  CHISIM_REQUIRE(bytes.size() == rows * kRowBytes,
                 "encoded segment size does not match its row count");
  payload_.appendEncoded(bytes);
  count_ += rows;
}

void StreamingTripletWriter::appendSegmentFile(
    const std::filesystem::path& segment, const TripletSegmentInfo& info) {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  std::ifstream in(segment, std::ios::binary);
  CHISIM_CHECK(in.good(), "cannot open segment file: " + segment.string());
  std::vector<std::byte> chunk(kRowBytes * kRowsPerChunk);
  std::uint64_t copied = 0;
  std::uint32_t segmentCrc = 0;
  while (copied < info.bytes) {
    const std::uint64_t want = std::min<std::uint64_t>(
        chunk.size(), info.bytes - copied);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(want));
    CHISIM_CHECK(in.gcount() == static_cast<std::streamsize>(want),
                 "segment file truncated: " + segment.string());
    // One hash per byte: the chunk's CRC is folded into both the segment
    // check and the payload's chained CRC.
    const std::span<const std::byte> bytes(chunk.data(), want);
    const std::uint32_t chunkCrc = util::crc32(bytes);
    segmentCrc = util::crc32Combine(segmentCrc, chunkCrc, want);
    payload_.appendEncoded(bytes, chunkCrc);
    copied += want;
  }
  CHISIM_CHECK(segmentCrc == info.crc,
               "segment CRC mismatch (corrupt or stale): " + segment.string());
  count_ += info.triplets;
}

std::uint64_t StreamingTripletWriter::finish() {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  payload_.flush();
  util::writeU32(out_, payload_.crc());
  out_.seekp(8);
  util::writeU64(out_, count_);
  out_.flush();
  CHISIM_CHECK(out_.good(), "adjacency write failed: " + path_.string());
  finished_ = true;
  return count_;
}

SymmetricAdjacency loadAdjacency(const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets = loadTriplets(path);
  SpanTripletSource source(triplets);
  SymmetricAdjacency adjacency;
  adjacency.addAll(source);
  return adjacency;
}

}  // namespace chisimnet::sparse

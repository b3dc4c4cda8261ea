#include "chisimnet/sparse/adjacency_io.hpp"

#include <algorithm>
#include <fstream>
#include <system_error>

#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kMagic[4] = {'C', 'A', 'D', 'J'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRowBytes = 4 + 4 + 8;
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8;  // magic, version, count
constexpr std::uint64_t kRowsPerChunk = 64 * 1024;  // 1 MiB decode buffer

}  // namespace

void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out.good(), "cannot open adjacency file for writing: " +
                               path.string());
  out.write(kMagic, 4);
  util::writeU32(out, kVersion);
  util::writeU64(out, triplets.size());

  std::vector<std::byte> payload;
  payload.reserve(triplets.size() * kRowBytes);
  const auto put32 = [&payload](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      payload.push_back(static_cast<std::byte>(value >> shift));
    }
  };
  for (const AdjacencyTriplet& triplet : triplets) {
    CHISIM_REQUIRE(triplet.i < triplet.j,
                   "triplets must be upper-triangular (i < j)");
    put32(triplet.i);
    put32(triplet.j);
    put32(static_cast<std::uint32_t>(triplet.weight));
    put32(static_cast<std::uint32_t>(triplet.weight >> 32));
  }
  util::writeBytes(out, payload);
  util::writeU32(out, util::crc32(payload));
  out.flush();
  CHISIM_CHECK(out.good(), "adjacency write failed: " + path.string());
}

void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets = adjacency.toTriplets();
  saveTriplets(triplets, path);
}

CadjError::CadjError(std::filesystem::path file, std::uint64_t byteOffset,
                     const std::string& reason)
    : std::runtime_error("CADJ file " + file.string() + " at byte offset " +
                         std::to_string(byteOffset) + ": " + reason),
      file_(std::move(file)),
      byteOffset_(byteOffset),
      reason_(reason) {}

std::vector<AdjacencyTriplet> loadTriplets(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  CHISIM_CHECK(in.good(), "cannot open adjacency file: " + path.string());
  const auto fail = [&path](std::uint64_t offset, const std::string& reason) {
    throw CadjError(path, offset, reason);
  };
  const std::uint64_t fileBytes = std::filesystem::file_size(path);
  const std::uint64_t framing = kHeaderBytes + 4;  // header + CRC footer
  char magic[4];
  in.read(magic, 4);
  if (in.gcount() != 4 || !std::equal(magic, magic + 4, kMagic)) {
    fail(0, "not a CADJ file");
  }
  if (fileBytes < framing) {
    fail(4, "file of " + std::to_string(fileBytes) +
                " bytes is shorter than the CADJ framing");
  }
  const std::uint32_t version = util::readU32(in);
  if (version != kVersion) {
    fail(4, "unsupported CADJ version " + std::to_string(version));
  }
  // The file must be exactly header + count rows + footer. Checked before
  // anything is sized by the untrusted count, without overflowing.
  const std::uint64_t count = util::readU64(in);
  const std::uint64_t payloadBytes = fileBytes - framing;
  if (payloadBytes % kRowBytes != 0 || count != payloadBytes / kRowBytes) {
    fail(8, "header count " + std::to_string(count) + " does not match the " +
                std::to_string(fileBytes) + "-byte file, which holds " +
                std::to_string(payloadBytes / kRowBytes) + " rows and " +
                std::to_string(payloadBytes % kRowBytes) + " stray bytes");
  }

  std::vector<AdjacencyTriplet> triplets(count);
  std::vector<std::byte> chunk(kRowBytes *
                               std::min<std::uint64_t>(count, kRowsPerChunk));
  std::uint32_t crc = 0;
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t rows =
        std::min<std::uint64_t>(count - done, kRowsPerChunk);
    const std::span<std::byte> bytes(chunk.data(), rows * kRowBytes);
    util::readBytes(in, bytes);
    crc = util::crc32(bytes, crc);  // chained: equals crc32(whole payload)
    std::size_t cursor = 0;
    const auto take32 = [&bytes, &cursor]() {
      const std::uint32_t value =
          static_cast<std::uint32_t>(bytes[cursor]) |
          (static_cast<std::uint32_t>(bytes[cursor + 1]) << 8) |
          (static_cast<std::uint32_t>(bytes[cursor + 2]) << 16) |
          (static_cast<std::uint32_t>(bytes[cursor + 3]) << 24);
      cursor += 4;
      return value;
    };
    for (std::uint64_t row = done; row < done + rows; ++row) {
      AdjacencyTriplet& triplet = triplets[row];
      triplet.i = take32();
      triplet.j = take32();
      const std::uint64_t low = take32();
      const std::uint64_t high = take32();
      triplet.weight = low | (high << 32);
    }
    done += rows;
  }
  if (util::readU32(in) != crc) {
    fail(kHeaderBytes + count * kRowBytes,
         "adjacency CRC mismatch (corrupt or truncated)");
  }
  return triplets;
}

TripletSegmentWriter::TripletSegmentWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp") {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out_.good(),
               "cannot open segment file for writing: " + tmp_.string());
  buffer_.reserve(kRowBytes * 4096);
}

TripletSegmentWriter::~TripletSegmentWriter() {
  if (!finished_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void TripletSegmentWriter::append(const AdjacencyTriplet& triplet) {
  CHISIM_REQUIRE(triplet.i < triplet.j,
                 "triplets must be upper-triangular (i < j)");
  const auto put32 = [this](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      buffer_.push_back(static_cast<std::byte>(value >> shift));
    }
  };
  put32(triplet.i);
  put32(triplet.j);
  put32(static_cast<std::uint32_t>(triplet.weight));
  put32(static_cast<std::uint32_t>(triplet.weight >> 32));
  ++count_;
  if (buffer_.size() >= kRowBytes * 4096) {
    flushBuffer();
  }
}

void TripletSegmentWriter::flushBuffer() {
  if (buffer_.empty()) {
    return;
  }
  crc_ = util::crc32(buffer_, crc_);
  bytes_ += buffer_.size();
  util::writeBytes(out_, buffer_);
  buffer_.clear();
}

TripletSegmentInfo TripletSegmentWriter::finish() {
  CHISIM_REQUIRE(!finished_, "segment already finished");
  flushBuffer();
  out_.flush();
  CHISIM_CHECK(out_.good(), "segment write failed: " + tmp_.string());
  out_.close();
  std::filesystem::rename(tmp_, path_);
  finished_ = true;
  return TripletSegmentInfo{count_, bytes_, crc_};
}

StreamingTripletWriter::StreamingTripletWriter(
    const std::filesystem::path& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  CHISIM_CHECK(out_.good(),
               "cannot open adjacency file for writing: " + path.string());
  out_.write(kMagic, 4);
  util::writeU32(out_, kVersion);
  util::writeU64(out_, 0);  // edge count, patched by finish()
  buffer_.reserve(kRowBytes * 4096);
}

void StreamingTripletWriter::append(const AdjacencyTriplet& triplet) {
  CHISIM_REQUIRE(triplet.i < triplet.j,
                 "triplets must be upper-triangular (i < j)");
  const auto put32 = [this](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      buffer_.push_back(static_cast<std::byte>(value >> shift));
    }
  };
  put32(triplet.i);
  put32(triplet.j);
  put32(static_cast<std::uint32_t>(triplet.weight));
  put32(static_cast<std::uint32_t>(triplet.weight >> 32));
  ++count_;
  if (buffer_.size() >= kRowBytes * 4096) {
    flushBuffer();
  }
}

void StreamingTripletWriter::flushBuffer() {
  if (buffer_.empty()) {
    return;
  }
  crc_ = util::crc32(buffer_, crc_);  // chained: equals crc32(whole payload)
  util::writeBytes(out_, buffer_);
  buffer_.clear();
}

void StreamingTripletWriter::appendSegmentFile(
    const std::filesystem::path& segment, const TripletSegmentInfo& info) {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  flushBuffer();  // everything appended so far must precede the segment
  std::ifstream in(segment, std::ios::binary);
  CHISIM_CHECK(in.good(), "cannot open segment file: " + segment.string());
  std::vector<std::byte> chunk(kRowBytes * 4096);
  std::uint64_t copied = 0;
  std::uint32_t segmentCrc = 0;
  while (copied < info.bytes) {
    const std::uint64_t want = std::min<std::uint64_t>(
        chunk.size(), info.bytes - copied);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(want));
    CHISIM_CHECK(in.gcount() == static_cast<std::streamsize>(want),
                 "segment file truncated: " + segment.string());
    const std::span<const std::byte> bytes(chunk.data(), want);
    segmentCrc = util::crc32(bytes, segmentCrc);
    crc_ = util::crc32(bytes, crc_);  // chained: composes across segments
    util::writeBytes(out_, bytes);
    copied += want;
  }
  CHISIM_CHECK(segmentCrc == info.crc,
               "segment CRC mismatch (corrupt or stale): " + segment.string());
  count_ += info.triplets;
}

std::uint64_t StreamingTripletWriter::finish() {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  flushBuffer();
  util::writeU32(out_, crc_);
  out_.seekp(8);
  util::writeU64(out_, count_);
  out_.flush();
  CHISIM_CHECK(out_.good(), "adjacency write failed: " + path_.string());
  finished_ = true;
  return count_;
}

SymmetricAdjacency loadAdjacency(const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets = loadTriplets(path);
  SymmetricAdjacency adjacency(triplets.size());
  for (const AdjacencyTriplet& triplet : triplets) {
    adjacency.add(triplet.i, triplet.j, triplet.weight);
  }
  return adjacency;
}

}  // namespace chisimnet::sparse

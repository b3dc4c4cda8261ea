#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"

/// Shard-owned external-merge suite: the shard merge plan (straddler
/// splitting, empty and single-row shards, unknown-range runs), per-shard
/// segment merges whose concatenation must be byte-identical to the CADJ
/// of the summed runs, budget-bounded multi-pass owner merges (bit-identical
/// to one pass, per-owner reader bytes within the share on both backends),
/// the one-hash segment splice, the orphaned-.tmp fresh-start sweep,
/// end-to-end byte identity across shard counts and backends, the extended
/// checkpoint manifest (key ranges + merge segments), cross-mode resume
/// under a sharded merge, and kill-during-merge resume that re-merges only
/// the unfinished shards.

namespace chisimnet::sparse {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

/// A strictly key-ascending random run: distinct (i, j) pairs, sorted.
std::vector<AdjacencyTriplet> makeRun(util::Rng& rng, std::size_t size,
                                      std::uint32_t personSpace) {
  std::map<std::uint64_t, std::uint64_t> byKey;
  while (byKey.size() < size) {
    const auto a = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    const auto b = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    if (a == b) {
      continue;
    }
    byKey[packPair(a, b)] += 1 + rng.uniformBelow(100);
  }
  std::vector<AdjacencyTriplet> run;
  run.reserve(byKey.size());
  for (const auto& [key, weight] : byKey) {
    run.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return run;
}

std::vector<AdjacencyTriplet> bruteForceSum(
    const std::vector<std::vector<AdjacencyTriplet>>& runs) {
  std::map<std::uint64_t, std::uint64_t> sum;
  for (const auto& run : runs) {
    for (const AdjacencyTriplet& triplet : run) {
      sum[packPair(triplet.i, triplet.j)] += triplet.weight;
    }
  }
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(sum.size());
  for (const auto& [key, weight] : sum) {
    merged.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return merged;
}

std::string fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

/// Merges every group serially through mergeShardRuns and splices the
/// segments ascending — the driver's sharded tail, minus the executor.
std::vector<AdjacencyTriplet> mergePlanToTriplets(
    const std::vector<SpillingAccumulator::ShardRunGroup>& plan,
    const std::filesystem::path& dir) {
  std::vector<AdjacencyTriplet> out;
  for (const auto& group : plan) {
    const ShardSegment segment = mergeShardRuns(
        group.shard, group.runs,
        dir / ("seg." + std::to_string(group.shard) + ".cseg"), kUnbounded);
    // A segment is a raw CADJ payload, not a CSPL1 run — read it directly.
    std::ifstream in(segment.file, std::ios::binary);
    std::vector<char> bytes(static_cast<std::size_t>(segment.bytes));
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_EQ(static_cast<std::uint64_t>(in.gcount()), segment.bytes);
    for (std::uint64_t row = 0; row < segment.triplets; ++row) {
      const char* base = bytes.data() + row * 16;
      auto load32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, base + at, 4);
        return v;
      };
      std::uint64_t weight = 0;
      std::memcpy(&weight, base + 8, 8);
      out.push_back(AdjacencyTriplet{load32(0), load32(4), weight});
    }
  }
  return out;
}

// ---- shard merge plan ----

TEST(ShardMergePlanTest, StraddlingRunsAreSplitShardPure) {
  ScratchDir scratch("chisimnet_shard_plan_straddle");
  util::Rng rng(101);
  // Row space 64 over 4-row shards: runs from whole-space spills straddle
  // many shard boundaries. (64 persons cap out at C(64,2) = 2016 distinct
  // pairs; stay well below so makeRun terminates.)
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 1500, 64);

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 4;
  SpillingAccumulator accumulator(options);
  // Adopted whole-space runs (the shape a stage-5 worker produces without
  // splitRows routing) straddle many 4-row shards; plain add()+spillAll
  // runs are shard-pure by construction. Mix both so the plan has to split
  // and regroup.
  const std::size_t slice = adds.size() / 5;
  for (std::size_t begin = 0; begin < adds.size(); begin += slice) {
    const std::size_t end = std::min(adds.size(), begin + slice);
    if ((begin / slice) % 2 == 0) {
      SpillRunWriter writer(scratch.path() /
                            ("w0.x" + std::to_string(begin) + ".spl"));
      writer.append(std::span<const AdjacencyTriplet>(adds.data() + begin,
                                                      end - begin));
      accumulator.adoptRunFile(writer.finish());
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        accumulator.add(adds[i].i, adds[i].j, adds[i].weight);
      }
      accumulator.spillAll();
    }
  }
  const auto plan = accumulator.buildShardMergePlan();
  ASSERT_FALSE(plan.empty());
  std::uint32_t previousShard = 0;
  bool first = true;
  for (const auto& group : plan) {
    EXPECT_TRUE(first || group.shard > previousShard) << "ascending shards";
    previousShard = group.shard;
    first = false;
    for (const SpillRunInfo& run : group.runs) {
      EXPECT_EQ(run.shardOf(options.rowsPerShard),
                static_cast<std::int64_t>(group.shard))
          << run.file;
    }
  }
  // liveRuns() reflects the split set the plan references.
  EXPECT_GT(accumulator.stats().runsSplit, 0u);
  std::size_t planned = 0;
  for (const auto& group : plan) {
    planned += group.runs.size();
  }
  EXPECT_EQ(planned, accumulator.liveRuns().size());

  EXPECT_EQ(
      mergePlanToTriplets(plan, scratch.path()), bruteForceSum({adds}));
}

TEST(ShardMergePlanTest, EmptyAndSingleRowShards) {
  ScratchDir scratch("chisimnet_shard_plan_sparse_rows");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 1;  // every row its own shard
  SpillingAccumulator accumulator(options);
  // Rows 2, 7 and 40 only: shards in between stay empty and absent.
  accumulator.add(2, 90, 1);
  accumulator.add(7, 8, 2);
  accumulator.add(7, 9, 3);
  accumulator.add(40, 41, 4);
  accumulator.spillAll();
  const auto plan = accumulator.buildShardMergePlan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].shard, 2u);
  EXPECT_EQ(plan[1].shard, 7u);
  EXPECT_EQ(plan[2].shard, 40u);
  const std::vector<AdjacencyTriplet> want = {
      AdjacencyTriplet{2, 90, 1}, AdjacencyTriplet{7, 8, 2},
      AdjacencyTriplet{7, 9, 3}, AdjacencyTriplet{40, 41, 4}};
  EXPECT_EQ(mergePlanToTriplets(plan, scratch.path()), want);
}

TEST(ShardMergePlanTest, EmptyAccumulatorYieldsEmptyPlan) {
  ScratchDir scratch("chisimnet_shard_plan_empty");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  EXPECT_TRUE(accumulator.buildShardMergePlan().empty());
}

TEST(ShardMergePlanTest, UnknownRangeRunIsSplit) {
  ScratchDir scratch("chisimnet_shard_plan_unknown_range");
  util::Rng rng(103);
  // C(32,2) = 496 distinct pairs max; stay below so makeRun terminates.
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 400, 32);
  SpillRunInfo info;
  {
    SpillRunWriter writer(scratch.path() / "run.0.spl");
    writer.append(std::span<const AdjacencyTriplet>(run));
    info = writer.finish();
  }
  // Model a pre-range manifest: the restored run has no recorded key range
  // and must be treated as a potential straddler.
  info.hasKeyRange = false;
  info.firstKey = 0;
  info.lastKey = 0;
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 8;
  SpillingAccumulator accumulator(options);
  accumulator.restoreRunFile(info);
  const auto plan = accumulator.buildShardMergePlan();
  EXPECT_GT(accumulator.stats().runsSplit, 0u);
  EXPECT_EQ(mergePlanToTriplets(plan, scratch.path()), run);
}

// ---- segment concatenation vs the CADJ of the summed runs ----

TEST(ShardMergeTest, SegmentsConcatenateByteIdenticalToSerialCadj) {
  ScratchDir scratch("chisimnet_shard_concat");
  util::Rng rng(107);
  // 96 persons allow C(96,2) = 4560 distinct pairs; stay below that.
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 3000, 96);

  // Reference: the summed rows written in one piece.
  const std::filesystem::path serialOut = scratch.path() / "serial.cadj";
  saveTriplets(bruteForceSum({adds}), serialOut);
  const std::string serialBytes = fileBytes(serialOut);

  // Unbounded owners merge each shard in one pass; a 2 KiB reader budget
  // forces intermediate passes. Both splice to the same bytes.
  for (const std::uint64_t readerBudget : {kUnbounded, std::uint64_t{2048}}) {
    const std::string label = "reader budget " + std::to_string(readerBudget);
    SpillingAccumulator::Options options;
    options.dir = scratch.path() / ("sharded" + std::to_string(readerBudget));
    options.rowsPerShard = 16;  // 96-row space -> several shards
    SpillingAccumulator accumulator(options);
    const std::size_t slice = adds.size() / 7;
    for (std::size_t begin = 0; begin < adds.size(); begin += slice) {
      const std::size_t end = std::min(adds.size(), begin + slice);
      for (std::size_t i = begin; i < end; ++i) {
        accumulator.add(adds[i].i, adds[i].j, adds[i].weight);
      }
      accumulator.spillAll();
    }
    const auto plan = accumulator.buildShardMergePlan();
    ASSERT_GT(plan.size(), 1u) << label;
    const std::filesystem::path out = scratch.path() / (label + ".cadj");
    StreamingTripletWriter writer(out);
    std::uint64_t passes = 0;
    for (const auto& group : plan) {
      const ShardSegment segment = mergeShardRuns(
          group.shard, group.runs,
          options.dir / ("seg." + std::to_string(group.shard) + ".cseg"),
          readerBudget);
      passes += segment.passes;
      writer.appendSegmentFile(segment.file,
                               TripletSegmentInfo{segment.triplets,
                                                  segment.bytes, segment.crc});
    }
    writer.finish();
    EXPECT_EQ(fileBytes(out), serialBytes) << label;
    EXPECT_EQ(passes > 0, readerBudget != kUnbounded) << label;
  }
}

/// Writes `count` runs of 20..119 random rows over persons
/// [rowBase, rowBase + 64), appending each run's rows to `contents`.
std::vector<SpillRunInfo> writeShardRuns(
    const std::filesystem::path& dir, const std::string& prefix,
    util::Rng& rng, int count, std::uint32_t rowBase,
    std::vector<std::vector<AdjacencyTriplet>>& contents) {
  std::vector<SpillRunInfo> runs;
  for (int r = 0; r < count; ++r) {
    std::vector<AdjacencyTriplet> run =
        makeRun(rng, 20 + rng.uniformBelow(100), 64);
    for (AdjacencyTriplet& triplet : run) {
      triplet.i += rowBase;
      triplet.j += rowBase;
    }
    SpillRunWriter writer(dir / (prefix + std::to_string(r) + ".spl"));
    writer.append(std::span<const AdjacencyTriplet>(run));
    runs.push_back(writer.finish());
    contents.push_back(std::move(run));
  }
  return runs;
}

/// Acceptance (a): a shard with more runs than the byte bound admits is
/// merged in at least two passes, the segment is bit-identical to one
/// unbounded TripletMerger pass, and no pass holds more reader bytes than
/// the bound.
TEST(OwnerMergeTest, MultiPassMergeIsBitIdenticalToOnePass) {
  ScratchDir scratch("chisimnet_owner_multipass");
  util::Rng rng(113);
  std::vector<std::vector<AdjacencyTriplet>> contents;
  const std::vector<SpillRunInfo> runs =
      writeShardRuns(scratch.path(), "run.", rng, 40, 0, contents);
  std::uint64_t openBytes = 0;
  for (const SpillRunInfo& run : runs) {
    openBytes += spillReaderBytes(run);
  }
  const ShardSegment onePass = mergeShardRuns(
      0, runs, scratch.path() / "one.cseg", kUnbounded);
  EXPECT_EQ(onePass.passes, 0u);
  EXPECT_EQ(onePass.peakReaderBytes, openBytes);
  const std::string want = fileBytes(onePass.file);

  for (const std::uint64_t readerBudget :
       {openBytes / 2, openBytes / 5, std::uint64_t{4096}}) {
    const std::string label = "reader budget " + std::to_string(readerBudget);
    const std::filesystem::path file =
        scratch.path() / ("multi" + std::to_string(readerBudget) + ".cseg");
    const ShardSegment segment = mergeShardRuns(0, runs, file, readerBudget);
    EXPECT_GE(segment.passes, 1u) << label;  // plus the final pass
    EXPECT_LE(segment.peakReaderBytes, readerBudget) << label;
    EXPECT_GT(segment.passBytes, 0u) << label;
    EXPECT_EQ(segment.triplets, onePass.triplets) << label;
    EXPECT_EQ(segment.crc, onePass.crc) << label;
    EXPECT_EQ(fileBytes(file), want) << label;
  }
  // Intermediate runs are the merge's own: none outlive it, and the
  // inputs stay.
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    EXPECT_EQ(entry.path().filename().string().find(".cseg.p"),
              std::string::npos)
        << entry.path();
  }
  for (const SpillRunInfo& run : runs) {
    EXPECT_TRUE(std::filesystem::exists(run.file)) << run.file;
  }
}

/// Acceptance (a), owner level: at owners {1, 2, 3, 4, 7} on both
/// backends, every owner's passes stay within budget / owners, the
/// heaviest shards force intermediate passes, and the spliced segments
/// equal the summed runs.
TEST(OwnerMergeTest, PerOwnerReaderBytesStayWithinTheShare) {
  ScratchDir scratch("chisimnet_owner_share");
  util::Rng rng(127);
  constexpr std::uint32_t kRowsPerShard = 64;
  std::vector<std::vector<AdjacencyTriplet>> contents;
  std::vector<SpillingAccumulator::ShardRunGroup> groups;
  for (std::uint32_t shard = 0; shard < 7; ++shard) {
    groups.push_back(SpillingAccumulator::ShardRunGroup{
        shard, writeShardRuns(scratch.path(),
                              "s" + std::to_string(shard) + ".", rng, 30,
                              shard * kRowsPerShard, contents)});
  }
  const std::filesystem::path reference = scratch.path() / "reference.cadj";
  saveTriplets(bruteForceSum(contents), reference);
  const std::string want = fileBytes(reference);

  // 28 KiB over 7 owners still covers two of these (<= 1.9 KiB) runs.
  constexpr std::uint64_t kBudget = 28 * 1024;
  for (const net::SynthesisBackend backend :
       {net::SynthesisBackend::kSharedMemory,
        net::SynthesisBackend::kMessagePassing}) {
    for (const unsigned owners : {1u, 2u, 3u, 4u, 7u}) {
      const std::string label = std::string(net::backendName(backend)) +
                                " owners " + std::to_string(owners);
      net::SynthesisConfig config;
      config.windowEnd = 1;
      config.backend = backend;
      config.workers = owners;
      config.reduceShards = owners;
      config.memoryBudgetBytes = kBudget;
      config.spillDir = scratch.path();
      const auto executor = net::makeExecutor(config);
      std::vector<ShardSegment> segments =
          executor->mergeSpillShards(groups, [](const ShardSegment&) {});
      ASSERT_EQ(segments.size(), groups.size()) << label;
      std::sort(segments.begin(), segments.end(),
                [](const ShardSegment& a, const ShardSegment& b) {
                  return a.shard < b.shard;
                });
      std::map<unsigned, std::uint64_t> ownerPeak;
      SpillStats stats;
      for (const ShardSegment& segment : segments) {
        ownerPeak[segment.owner] =
            std::max(ownerPeak[segment.owner], segment.peakReaderBytes);
        stats.addSegment(segment);
      }
      EXPECT_EQ(ownerPeak.size(), owners) << label;
      for (const auto& [owner, peak] : ownerPeak) {
        EXPECT_LE(peak, kBudget / owners) << label << " owner " << owner;
      }
      EXPECT_LE(stats.peakMergeReaderBytes, kBudget / owners) << label;
      EXPECT_GT(stats.compactions, 0u) << label;
      const std::filesystem::path out =
          scratch.path() / ("out_" + label + ".cadj");
      StreamingTripletWriter writer(out);
      for (const ShardSegment& segment : segments) {
        writer.appendSegmentFile(segment.file,
                                 TripletSegmentInfo{segment.triplets,
                                                    segment.bytes,
                                                    segment.crc});
      }
      writer.finish();
      EXPECT_EQ(fileBytes(out), want) << label;
    }
  }
}

// ---- the segment splice ----

/// The splice hashes each segment byte once: the folded payload CRC must
/// equal the CRC of the whole payload, and a flipped byte in any segment
/// must still fail with that segment's path.
TEST(SegmentSpliceTest, OneHashChecksEverySegmentAndFoldsThePayloadCrc) {
  ScratchDir scratch("chisimnet_segment_splice");
  util::Rng rng(131);
  std::vector<std::filesystem::path> files;
  std::vector<TripletSegmentInfo> infos;
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    // Shard 1 spans more than one 1 MiB splice chunk.
    const std::size_t rows = shard == 1 ? 70000 : 500;
    std::vector<AdjacencyTriplet> run = makeRun(rng, rows, 1u << 12);
    files.push_back(scratch.path() /
                    ("seg." + std::to_string(shard) + ".cseg"));
    TripletSegmentWriter writer(files.back());
    for (AdjacencyTriplet triplet : run) {
      triplet.i += shard << 12;
      triplet.j += shard << 12;
      writer.append(triplet);
    }
    infos.push_back(writer.finish());
  }
  const auto splice = [&](const std::filesystem::path& out) {
    StreamingTripletWriter writer(out);
    for (std::size_t at = 0; at < files.size(); ++at) {
      writer.appendSegmentFile(files[at], infos[at]);
    }
    writer.finish();
  };
  const std::filesystem::path out = scratch.path() / "spliced.cadj";
  splice(out);
  const std::string bytes = fileBytes(out);
  ASSERT_GT(bytes.size(), 20u);
  const std::span<const std::byte> payload(
      reinterpret_cast<const std::byte*>(bytes.data()) + 16,
      bytes.size() - 20);
  EXPECT_EQ(util::loadLe32(reinterpret_cast<const std::byte*>(
                bytes.data() + bytes.size() - 4)),
            util::crc32(payload));
  EXPECT_EQ(loadTriplets(out).size(),
            infos[0].triplets + infos[1].triplets + infos[2].triplets);

  for (std::size_t victim = 0; victim < files.size(); ++victim) {
    const std::string original = fileBytes(files[victim]);
    {
      std::fstream file(files[victim],
                        std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(static_cast<std::streamoff>(original.size() / 2));
      const char flipped =
          static_cast<char>(original[original.size() / 2] ^ 0x10);
      file.write(&flipped, 1);
    }
    try {
      splice(scratch.path() / "corrupt.cadj");
      FAIL() << "a flipped byte in segment " << victim << " must fail";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(files[victim].string()), std::string::npos) << what;
    }
    std::ofstream(files[victim], std::ios::binary | std::ios::trunc)
        << original;
  }
}

// ---- fresh-start GC of orphaned .tmp run files ----

TEST(SpillGcTest, FreshStartSweepsOrphanedTmpRuns) {
  ScratchDir scratch("chisimnet_shard_tmp_sweep");
  // A SIGKILL during spill-write leaves a complete-but-unrenamed .tmp; a
  // fresh (non-checkpoint) accumulator over the same directory must sweep
  // it instead of letting husks accumulate across restarts.
  const std::filesystem::path orphan = scratch.path() / "run.3.spl.tmp";
  {
    std::ofstream husk(orphan, std::ios::binary);
    husk << "torn spill write";
  }
  // Foreign prefixes are not ours to clean.
  const std::filesystem::path foreign = scratch.path() / "other.1.spl.tmp";
  {
    std::ofstream keep(foreign, std::ios::binary);
    keep << "different prefix";
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(foreign));
  // The sweep must not disturb numbering of real runs.
  accumulator.add(1, 2, 3);
  accumulator.spillAll();
  ASSERT_EQ(accumulator.liveRuns().size(), 1u);
  EXPECT_EQ(mergePlanToTriplets(accumulator.buildShardMergePlan(),
                                scratch.path()),
            (std::vector<AdjacencyTriplet>{AdjacencyTriplet{1, 2, 3}}));
}

}  // namespace
}  // namespace chisimnet::sparse

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultInjected;
using runtime::FaultPlan;
using runtime::FaultSpec;
using table::Event;
using table::Hour;

struct FuzzCase {
  table::EventTable events;
  Hour windowStart = 0;
  Hour windowEnd = 0;
};

FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons = static_cast<std::uint32_t>(40 + rng.uniformBelow(80));
  const auto places = static_cast<std::uint32_t>(4 + rng.uniformBelow(10));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(8));
  out.windowEnd =
      out.windowStart + 24 + static_cast<Hour>(rng.uniformBelow(48));
  const std::size_t count = 200 + rng.uniformBelow(200);
  for (std::size_t i = 0; i < count; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(out.windowEnd + 8));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

std::vector<std::filesystem::path> writePlacePartitionedFiles(
    const table::EventTable& events, const std::filesystem::path& dir,
    int fileCount) {
  std::vector<std::vector<Event>> buffers(
      static_cast<std::size_t>(fileCount));
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const Event event = events.row(row);
    buffers[event.place % static_cast<std::uint32_t>(fileCount)].push_back(
        event);
  }
  std::vector<std::filesystem::path> files;
  for (int i = 0; i < fileCount; ++i) {
    const auto path = elog::logFilePath(dir, i);
    elog::ChunkedLogWriter writer(path);
    auto& buffer = buffers[static_cast<std::size_t>(i)];
    std::sort(buffer.begin(), buffer.end());
    for (std::size_t begin = 0; begin < buffer.size(); begin += 32) {
      const std::size_t end = std::min(buffer.size(), begin + 32);
      writer.writeChunk(
          std::span<const Event>(buffer.data() + begin, end - begin));
    }
    writer.close();
    files.push_back(path);
  }
  return files;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

std::string fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---- byte identity across shard counts and backends ----

/// Acceptance: the final CADJ must be byte-identical across reduce-shard
/// counts, both backends and the serial baseline — and identical to
/// saveAdjacency of the unbudgeted dense result.
TEST(ShardedSynthesisTest, ByteIdenticalAcrossShardCountsAndBackends) {
  const FuzzCase fuzz = makeCase(301);
  ScratchDir scratch("chisimnet_shard_synth_identity");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;

  // Reference bytes: the unbudgeted dense result through saveAdjacency.
  const std::filesystem::path densePath = scratch.path() / "dense.cadj";
  {
    NetworkSynthesizer dense(config);
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), densePath);
  }
  const std::string want = fileBytes(densePath);

  config.memoryBudgetBytes = std::uint64_t{32} << 20;
  config.mergeRowsPerShard = 8;  // small rows force a multi-shard layout
  int variant = 0;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    for (const unsigned reduceShards : {1u, 3u, 5u}) {
      const std::string label = std::string(backendName(backend)) +
                                " shards " + std::to_string(reduceShards);
      config.backend = backend;
      config.reduceShards = reduceShards;
      ScratchDir spill("chisimnet_shard_synth_identity_spill_" +
                       std::to_string(variant));
      config.spillDir = spill.path();
      const std::filesystem::path out =
          scratch.path() / ("v" + std::to_string(variant) + ".cadj");
      ++variant;
      NetworkSynthesizer synthesizer(config);
      synthesizer.synthesizeToFile(files, out);
      EXPECT_EQ(fileBytes(out), want) << label;
      const SynthesisReport& report = synthesizer.report();
      // The owners that ran: shared memory runs every configured owner
      // that has a segment; message passing at most one per rank, so 5
      // configured owners on 3 ranks are 3.
      ASSERT_GE(report.mergeSegmentsWritten, 5u) << label;
      const unsigned ran = backend == SynthesisBackend::kMessagePassing
                               ? std::min(reduceShards, config.workers)
                               : reduceShards;
      EXPECT_EQ(report.reduceShardsUsed, ran) << label;
      if (reduceShards > 1) {
        EXPECT_GE(report.mergeSeconds, report.mergeCriticalSeconds) << label;
      }
    }
    // One segment has one owner, whatever the configured count.
    const std::string label =
        std::string(backendName(backend)) + " one segment";
    config.backend = backend;
    config.reduceShards = 4;
    config.mergeRowsPerShard = 0;
    ScratchDir spill("chisimnet_shard_synth_identity_spill_" +
                     std::to_string(variant));
    config.spillDir = spill.path();
    const std::filesystem::path out =
        scratch.path() / ("v" + std::to_string(variant) + ".cadj");
    ++variant;
    NetworkSynthesizer synthesizer(config);
    synthesizer.synthesizeToFile(files, out);
    EXPECT_EQ(fileBytes(out), want) << label;
    EXPECT_EQ(synthesizer.report().mergeSegmentsWritten, 1u) << label;
    EXPECT_EQ(synthesizer.report().reduceShardsUsed, 1u) << label;
    config.mergeRowsPerShard = 8;
  }
}

// ---- checkpoint manifest: key ranges + merge segments ----

TEST(ShardedCheckpointTest, ManifestRoundTripsRangesAndMergeSegments) {
  ScratchDir scratch("chisimnet_shard_manifest");
  const auto spillDir = scratch.path() / "spill";
  std::filesystem::create_directories(spillDir);
  sparse::SpillRunInfo run;
  {
    sparse::SpillRunWriter writer(spillDir / "run.0.spl");
    writer.append(sparse::AdjacencyTriplet{3, 9, 5});
    writer.append(sparse::AdjacencyTriplet{7, 8, 2});
    run = writer.finish();
  }
  ASSERT_TRUE(run.hasKeyRange);
  // A fake segment file the manifest references; only identity fields are
  // round-tripped here, content is irrelevant.
  {
    std::ofstream segment(spillDir / "seg.0.cseg", std::ios::binary);
    segment << "payload";
  }
  std::ofstream(spillDir / "seg.9.cseg") << "orphan";      // GC target
  std::ofstream(spillDir / "seg.4.cseg.tmp") << "husk";    // GC target

  CheckpointManifest manifest;
  manifest.spillMode = true;
  manifest.filesConsumed = 2;
  manifest.batchesDone = 1;
  manifest.configHash = 0xC0FFEE;
  manifest.spillRuns.push_back(SpillRunEntry{run.file.filename().string(),
                                             run.triplets, run.bytes,
                                             run.hasKeyRange, run.firstKey,
                                             run.lastKey});
  manifest.mergeSegments.push_back(
      MergeSegmentEntry{0, "seg.0.cseg", 2, 32, 0xABCD1234});
  saveSpillCheckpoint(scratch.path(), manifest, spillDir);

  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->spillRuns.size(), 1u);
  EXPECT_TRUE(loaded->spillRuns[0].hasKeyRange);
  EXPECT_EQ(loaded->spillRuns[0].firstKey, run.firstKey);
  EXPECT_EQ(loaded->spillRuns[0].lastKey, run.lastKey);
  ASSERT_EQ(loaded->mergeSegments.size(), 1u);
  EXPECT_EQ(loaded->mergeSegments[0].shard, 0u);
  EXPECT_EQ(loaded->mergeSegments[0].file, "seg.0.cseg");
  EXPECT_EQ(loaded->mergeSegments[0].triplets, 2u);
  EXPECT_EQ(loaded->mergeSegments[0].bytes, 32u);
  EXPECT_EQ(loaded->mergeSegments[0].crc, 0xABCD1234u);
  // GC: the referenced segment survives; the orphan and .tmp husk go.
  EXPECT_TRUE(std::filesystem::exists(spillDir / "seg.0.cseg"));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "seg.9.cseg"));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "seg.4.cseg.tmp"));
}

// ---- kill during the sharded merge ----

/// Acceptance: kill the run between per-shard segments (spill.shard site),
/// resume, and require (a) byte-identical output and (b) that only the
/// unfinished shards were re-merged — the checkpointed segments splice in.
TEST(ShardedSynthesisTest, KillDuringMergeResumesOnlyUnfinishedShards) {
  const FuzzCase fuzz = makeCase(303);
  ScratchDir scratch("chisimnet_shard_kill_merge");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  ScratchDir checkpoints("chisimnet_shard_kill_merge_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.filesPerBatch = 2;
  config.memoryBudgetBytes = std::uint64_t{32} << 20;
  config.reduceShards = 3;
  config.mergeRowsPerShard = 8;

  // Reference: uninterrupted sharded run, no checkpointing.
  const std::filesystem::path referencePath = scratch.path() / "ref.cadj";
  std::uint64_t totalSegments = 0;
  {
    NetworkSynthesizer reference(config);
    reference.synthesizeToFile(files, referencePath);
    totalSegments = reference.report().mergeSegmentsWritten;
  }
  const std::string want = fileBytes(referencePath);

  ASSERT_GE(totalSegments, 4u) << "case must leave unfinished shards after "
                                  "every owner dies";

  config.checkpointDir = checkpoints.path();
  {
    // Arm every hit from 2 on: the executor keeps surviving owners merging
    // after one throws, so a single-hit fault would let them finish the
    // whole plan before the exception surfaces. With all later hits armed,
    // each owner dies right after its next checkpointed segment — at most
    // one extra segment per concurrently-running owner completes.
    FaultPlan plan;
    for (std::uint64_t hit = 2; hit <= 64; ++hit) {
      plan.at("spill.shard",
              FaultSpec{.action = FaultAction::kThrow, .hit = hit});
    }
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer interrupted(config);
    EXPECT_THROW(
        interrupted.synthesizeToFile(files, scratch.path() / "dead.cadj"),
        FaultInjected);
  }
  // The manifest names the finished segments: at least the two that
  // checkpointed before the first throw, but not the full plan.
  const auto manifest = loadCheckpointManifest(checkpoints.path());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(manifest->spillMode);
  const std::size_t finished = manifest->mergeSegments.size();
  ASSERT_GE(finished, 2u);
  ASSERT_LT(finished, totalSegments);
  for (const MergeSegmentEntry& segment : manifest->mergeSegments) {
    EXPECT_TRUE(std::filesystem::exists(checkpoints.path() / "spill" /
                                        segment.file))
        << segment.file;
  }

  config.resume = true;
  const std::filesystem::path resumedPath = scratch.path() / "resumed.cadj";
  NetworkSynthesizer resumed(config);
  resumed.synthesizeToFile(files, resumedPath);
  EXPECT_EQ(fileBytes(resumedPath), want);
  const SynthesisReport& report = resumed.report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.mergeSegmentsReused, finished);
  EXPECT_GT(report.mergeSegmentsWritten, 0u);
  EXPECT_EQ(report.mergeSegmentsWritten + report.mergeSegmentsReused,
            totalSegments);
}

// ---- cross-mode resume under the sharded merge ----

/// A dense (unbudgeted) checkpoint resumed into a budgeted sharded-merge
/// run, and a sharded spill checkpoint resumed into a dense run: both must
/// reproduce the uninterrupted bytes. The budget and shard knobs stay
/// outside the config hash, so the cross-mode switch is legal.
TEST(ShardedSynthesisTest, CrossModeResumeUnderShardedMerge) {
  const FuzzCase fuzz = makeCase(307);
  ScratchDir scratch("chisimnet_shard_cross_mode");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

  SynthesisConfig base;
  base.windowStart = fuzz.windowStart;
  base.windowEnd = fuzz.windowEnd;
  base.workers = 2;
  base.filesPerBatch = 2;

  // Reference bytes from the unbudgeted dense path.
  const std::filesystem::path densePath = scratch.path() / "dense.cadj";
  {
    NetworkSynthesizer dense(base);
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), densePath);
  }
  const std::string want = fileBytes(densePath);

  // dense checkpoint -> sharded budgeted resume.
  {
    ScratchDir checkpoints("chisimnet_shard_cross_mode_d2s");
    SynthesisConfig config = base;
    config.checkpointDir = checkpoints.path();
    {
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files), FaultInjected);
    }
    config.resume = true;
    config.memoryBudgetBytes = std::uint64_t{32} << 20;
    config.reduceShards = 3;
    config.mergeRowsPerShard = 8;
    const std::filesystem::path out = scratch.path() / "d2s.cadj";
    NetworkSynthesizer resumed(config);
    resumed.synthesizeToFile(files, out);
    EXPECT_EQ(fileBytes(out), want) << "dense -> sharded spill";
    EXPECT_GT(resumed.report().mergeSegmentsWritten, 0u);
  }

  // sharded spill checkpoint -> dense resume (the 6-field manifest entries
  // must parse and fold into the dense map).
  {
    ScratchDir checkpoints("chisimnet_shard_cross_mode_s2d");
    SynthesisConfig config = base;
    config.checkpointDir = checkpoints.path();
    config.memoryBudgetBytes = std::uint64_t{32} << 20;
    config.reduceShards = 3;
    config.mergeRowsPerShard = 8;
    {
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(
          interrupted.synthesizeToFile(files, scratch.path() / "dead.cadj"),
          FaultInjected);
    }
    config.resume = true;
    config.memoryBudgetBytes = 0;
    config.reduceShards = 0;
    config.mergeRowsPerShard = 0;
    const std::filesystem::path out = scratch.path() / "s2d.cadj";
    NetworkSynthesizer resumed(config);
    sparse::saveAdjacency(resumed.synthesizeAdjacency(files), out);
    EXPECT_EQ(fileBytes(out), want) << "sharded spill -> dense";
  }
}

}  // namespace
}  // namespace chisimnet::net

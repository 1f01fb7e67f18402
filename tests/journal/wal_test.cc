#include "src/journal/wal.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/journal/crc32.h"
#include "src/obs/metrics.h"
#include "src/util/file_io.h"
#include "src/util/rng.h"

namespace ras {
namespace journal {
namespace {

// Commit fsyncs issued by every journal in this process so far.
int64_t Syncs() {
  return obs::MetricRegistry::Default().counter("ras_journal_syncs_total", "").Value();
}

std::string TestPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".wal";
}

TEST(Crc32Test, KnownVectorAndChaining) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining via the seed equals hashing the concatenation.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));
  EXPECT_NE(Crc32("123456789"), Crc32("123456780"));
}

// The bytewise table-driven CRC the sliced implementation must equal.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (unsigned char c : data) {
    crc ^= c;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::string buffer;
  for (int i = 0; i < 80; ++i) {
    buffer += static_cast<char>((i * 151 + 7) & 0xFF);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      std::string_view data(buffer.data() + offset, length);
      const uint32_t expected = BytewiseCrc32(data, 0);
      ASSERT_EQ(Crc32(data), expected) << "offset " << offset << " length " << length;
      // Chaining at every split point equals the one-shot CRC.
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(Crc32(data.substr(split), Crc32(data.substr(0, split))), expected)
            << "offset " << offset << " length " << length << " split " << split;
      }
    }
  }
}

TEST(Crc32Test, CombineEqualsTheCrcOfTheConcatenation) {
  Rng rng(34);
  for (size_t length = 0; length <= 300; ++length) {
    std::string data;
    for (size_t i = 0; i < length; ++i) {
      data += static_cast<char>(rng.UniformInt(0, 255));
    }
    const uint32_t expected = Crc32(data);
    ASSERT_EQ(Crc32RunOf(data).crc, expected);
    for (size_t split = 0; split <= length; ++split) {
      const std::string_view a = std::string_view(data).substr(0, split);
      const std::string_view b = std::string_view(data).substr(split);
      ASSERT_EQ(Crc32Combine(Crc32(a), Crc32(b), b.size()), expected)
          << "length " << length << " split " << split;
      const Crc32Run joined = Crc32Combine(Crc32RunOf(a), Crc32RunOf(b));
      ASSERT_EQ(joined.crc, expected) << "length " << length << " split " << split;
      ASSERT_EQ(joined.shift, Crc32RunOf(data).shift) << "length " << length;
    }
  }
  // Lengths far past the short-line table, and runs that join in any grouping.
  std::string big(70000, '\0');
  for (char& c : big) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  const std::string_view view(big);
  for (size_t split : {size_t{1}, size_t{4096}, size_t{65537}}) {
    EXPECT_EQ(Crc32Combine(Crc32(view.substr(0, split)), Crc32(view.substr(split)),
                           big.size() - split),
              Crc32(big));
  }
  const Crc32Run x = Crc32RunOf(view.substr(0, 300));
  const Crc32Run y = Crc32RunOf(view.substr(300, 5000));
  const Crc32Run z = Crc32RunOf(view.substr(5300));
  const Crc32Run left = Crc32Combine(Crc32Combine(x, y), z);
  const Crc32Run right = Crc32Combine(x, Crc32Combine(y, z));
  EXPECT_EQ(left.crc, Crc32(big));
  EXPECT_EQ(right.crc, Crc32(big));
  EXPECT_EQ(left.shift, right.shift);
}

TEST(WalTest, AppendScanRoundTrip) {
  std::string path = TestPath("roundtrip");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(7).ok());
  Result<uint64_t> g1 = wal.Append(RecordKind::kReservationAdmit, "reservation|1|svc");
  Result<uint64_t> g2 = wal.Append(RecordKind::kApplyTargets, "0=1,1=-,2=1");
  Result<uint64_t> g3 = wal.Append(RecordKind::kDigest, "deadbeef");
  ASSERT_TRUE(g1.ok() && g2.ok() && g3.ok());
  EXPECT_EQ(*g1, 7u);
  EXPECT_EQ(*g3, 9u);
  wal.Close();

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn());
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].generation, 7u);
  EXPECT_EQ(scan->records[0].kind, RecordKind::kReservationAdmit);
  EXPECT_EQ(scan->records[0].payload, "reservation|1|svc");
  EXPECT_EQ(scan->records[1].payload, "0=1,1=-,2=1");
  EXPECT_EQ(scan->records[2].kind, RecordKind::kDigest);
}

TEST(WalTest, PayloadWithPipesAndNewlinesSurvives) {
  std::string path = TestPath("escaping");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  std::string nasty = "name|with|pipes\nand a newline|";
  ASSERT_TRUE(wal.Append(RecordKind::kReservationAdmit, nasty).ok());
  wal.Close();
  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, nasty);
}

TEST(WalTest, MissingFileScansEmpty) {
  Result<JournalScan> scan = WriteAheadJournal::Scan(TestPath("never-created"));
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_FALSE(scan->torn());
}

TEST(WalTest, TornAppendIsDroppedAndTruncatable) {
  std::string path = TestPath("torn");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|0|1|1|-|0|0|0").ok());
  ASSERT_TRUE(wal.AppendTorn(RecordKind::kApplyTargets, "0=1,1=2,2=3").ok());

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn());
  EXPECT_EQ(scan->records.size(), 1u) << "torn record must not replay";
  EXPECT_GT(scan->torn_bytes, 0u);
  EXPECT_EQ(scan->torn_reason, "record missing trailing newline");

  // Recovery truncates the tail in place; the next scan is clean.
  WriteAheadJournal recovered(path);
  ASSERT_TRUE(recovered.TruncateTo(scan->valid_bytes).ok());
  Result<JournalScan> rescan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->torn());
  EXPECT_EQ(rescan->records.size(), 1u);
}

TEST(WalTest, FlippedByteStopsTheScan) {
  std::string path = TestPath("flip");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "11111111").ok());
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "22222222").ok());
  wal.Close();

  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string corrupted = *content;
  // Flip a payload byte of the second record.
  corrupted[corrupted.find("22222222") + 3] = 'X';
  ASSERT_TRUE(AtomicWriteFile(path, corrupted).ok());

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(scan->torn());
  EXPECT_EQ(scan->torn_reason, "CRC mismatch");
}

TEST(WalTest, NonMonotonicGenerationRejected) {
  std::string path = TestPath("monotonic");
  std::remove(path.c_str());
  // Two journals writing the same generation range, concatenated by hand —
  // the replayed half must stop where generations stop increasing.
  WriteAheadJournal a(path);
  ASSERT_TRUE(a.OpenAppend(5).ok());
  ASSERT_TRUE(a.Append(RecordKind::kDigest, "aaaaaaaa").ok());
  a.Close();
  WriteAheadJournal b(path);
  ASSERT_TRUE(b.OpenAppend(5).ok());  // Same generation again: invalid.
  ASSERT_TRUE(b.Append(RecordKind::kDigest, "bbbbbbbb").ok());
  b.Close();

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].payload, "aaaaaaaa");
  EXPECT_EQ(scan->torn_reason, "generation went backwards");
}

TEST(WalTest, ResetEmptiesButGenerationsContinue) {
  std::string path = TestPath("reset");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "11111111").ok());
  ASSERT_TRUE(wal.Reset().ok());
  Result<uint64_t> next = wal.Append(RecordKind::kDigest, "22222222");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u) << "generations never restart";
  wal.Close();

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].generation, 2u);
}

TEST(WalTest, BufferedAppendsCommitWithOneSync) {
  std::string path = TestPath("group-commit");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(3).ok());
  const int64_t syncs = Syncs();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|" + std::to_string(i),
                           /*commit=*/false)
                    .ok());
  }
  EXPECT_EQ(Syncs(), syncs) << "buffered appends must not fsync";
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "cafef00d", /*commit=*/true).ok());
  EXPECT_EQ(Syncs(), syncs + 1);
  wal.Close();

  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn());
  ASSERT_EQ(scan->records.size(), 5u);
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].generation, 3u + i) << "generations must be contiguous";
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scan->records[i].kind, RecordKind::kServerDelta);
    EXPECT_EQ(scan->records[i].payload, "server|" + std::to_string(i));
  }
  EXPECT_EQ(scan->records[4].kind, RecordKind::kDigest);
}

TEST(WalTest, DroppingTheUnsyncedTailKeepsTheCommittedPrefix) {
  std::string path = TestPath("power-loss");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kReservationAdmit, "reservation|1|svc").ok());
  ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|0", /*commit=*/false).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "11111111").ok());
  ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|1", /*commit=*/false).ok());
  ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|2", /*commit=*/false).ok());

  // Flushed: a process death here would keep all five records.
  Result<JournalScan> flushed = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->records.size(), 5u);

  ASSERT_TRUE(wal.DropUnsyncedTail().ok());
  EXPECT_FALSE(wal.open());
  Result<JournalScan> scan = WriteAheadJournal::Scan(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->torn()) << "the lost tail must end on a record boundary";
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[1].payload, "server|0") << "a delta before a commit is durable";
  EXPECT_EQ(scan->records[2].kind, RecordKind::kDigest);
  EXPECT_EQ(scan->records[2].generation, 3u);
}

TEST(WalTest, SyncWithNothingPendingIssuesNoFsync) {
  std::string path = TestPath("idle-sync");
  std::remove(path.c_str());
  WriteAheadJournal wal(path);
  ASSERT_TRUE(wal.OpenAppend(1).ok());
  const int64_t syncs = Syncs();
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(Syncs(), syncs) << "nothing appended yet";
  ASSERT_TRUE(wal.Append(RecordKind::kDigest, "11111111").ok());
  EXPECT_EQ(Syncs(), syncs + 1);
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(Syncs(), syncs + 1) << "the commit already covered every byte";
  ASSERT_TRUE(wal.Append(RecordKind::kServerDelta, "server|0", /*commit=*/false).ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(Syncs(), syncs + 2);
  ASSERT_TRUE(wal.Reset().ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(Syncs(), syncs + 2) << "an emptied journal has nothing pending";
}

TEST(WalTest, KindNamesRoundTrip) {
  for (int k = 0; k < kNumRecordKinds; ++k) {
    RecordKind kind = static_cast<RecordKind>(k);
    Result<RecordKind> back = RecordKindFromName(RecordKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(RecordKindFromName("nonsense").ok());
}

}  // namespace
}  // namespace journal
}  // namespace ras

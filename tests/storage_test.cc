#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/hash.h"
#include "storage/node_store.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

std::string TempPath(std::string name) {
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  // FileStreamStore::Open no longer truncates; tests want a fresh log.
  // The store also keeps sidecars (durable watermark, quarantined tail)
  // next to the log — stale ones would leak state across test runs.
  std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".wm").c_str());
  std::remove((path + ".quarantine").c_str());
  return path;
}

// ---------------------------------------------------------------------------
// StreamStore
// ---------------------------------------------------------------------------

class StreamStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      std::unique_ptr<FileStreamStore> fs;
      ASSERT_TRUE(FileStreamStore::Open(
                      TempPath("stream_" +
                               std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()) +
                               ".log"),
                      &fs)
                      .ok());
      store_ = std::move(fs);
    } else {
      store_ = std::make_unique<MemoryStreamStore>();
    }
  }

  std::unique_ptr<StreamStore> store_;
};

TEST_P(StreamStoreTest, AppendAssignsDenseIndexes) {
  uint64_t idx;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store_->Append(Slice(std::string_view("rec")), &idx).ok());
    EXPECT_EQ(idx, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(store_->Count(), 10u);
}

TEST_P(StreamStoreTest, ReadBackMatches) {
  Random rng(11);
  std::vector<Bytes> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(rng.NextBytes(rng.Range(0, 300)));
    uint64_t idx;
    ASSERT_TRUE(store_->Append(Slice(records.back()), &idx).ok());
  }
  for (int i = 0; i < 50; ++i) {
    Bytes out;
    ASSERT_TRUE(store_->Read(i, &out).ok());
    EXPECT_EQ(out, records[i]);
  }
}

TEST_P(StreamStoreTest, ReadPastEndIsNotFound) {
  Bytes out;
  EXPECT_TRUE(store_->Read(0, &out).IsNotFound());
  uint64_t idx;
  ASSERT_TRUE(store_->Append(Slice(std::string_view("x")), &idx).ok());
  EXPECT_TRUE(store_->Read(1, &out).IsNotFound());
}

TEST_P(StreamStoreTest, OverwriteSmallerRecord) {
  uint64_t idx;
  ASSERT_TRUE(
      store_->Append(Slice(std::string_view("original-payload")), &idx).ok());
  ASSERT_TRUE(store_->Overwrite(idx, Slice(std::string_view("digest"))).ok());
  Bytes out;
  ASSERT_TRUE(store_->Read(idx, &out).ok());
  EXPECT_EQ(out, StringToBytes("digest"));
}

TEST_P(StreamStoreTest, OverwriteMissingIndexFails) {
  EXPECT_TRUE(store_->Overwrite(3, Slice(std::string_view("x"))).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(MemoryAndFile, StreamStoreTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "File" : "Memory";
                         });

TEST(FileStreamStoreTest, OverwriteLargerIsRejected) {
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(TempPath("grow.log"), &fs).ok());
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("ab")), &idx).ok());
  EXPECT_TRUE(
      fs->Overwrite(idx, Slice(std::string_view("abcdef"))).IsNotSupported());
}

TEST(FileStreamStoreTest, DetectsOnDiskCorruption) {
  std::string path = TempPath("corrupt.log");
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("sensitive-record")), &idx).ok());

  // Flip a payload byte behind the store's back.
  const long payload_off =
      static_cast<long>(FileStreamStore::kFrameHeaderSize) + 3;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  uint8_t b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b ^= 0xff;
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  Bytes out;
  EXPECT_TRUE(fs->Read(idx, &out).IsCorruption());
}

TEST(FileStreamStoreTest, ReopenRebuildsIndexAcrossProcesses) {
  std::string path = TempPath("reopen.log");
  std::remove(path.c_str());
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("first-record")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("second")), &idx).ok());
    // Shrinking in-place rewrite (occult-style) before the "crash".
    ASSERT_TRUE(fs->Overwrite(0, Slice(std::string_view("tomb"))).ok());
  }  // close
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  ASSERT_EQ(fs->Count(), 2u);
  Bytes out;
  ASSERT_TRUE(fs->Read(0, &out).ok());
  EXPECT_EQ(out, StringToBytes("tomb"));
  ASSERT_TRUE(fs->Read(1, &out).ok());
  EXPECT_EQ(out, StringToBytes("second"));
  // Appending after reopen lands after the existing frames.
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("third")), &idx).ok());
  EXPECT_EQ(idx, 2u);
  ASSERT_TRUE(fs->Read(2, &out).ok());
  EXPECT_EQ(out, StringToBytes("third"));
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fseek(f, 0, SEEK_END), 0);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(FileStreamStoreTest, TornFinalFrameDroppedOnReopen) {
  std::string path = TempPath("torn.log");
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("complete")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("will-be-torn")), &idx).ok());
  }
  // Simulate a crash mid-append: chop bytes off the final frame. Without a
  // durable watermark (legacy image) the torn tail must be quarantined, not
  // reported as corruption.
  ASSERT_EQ(truncate(path.c_str(), FileSize(path) - 5), 0);
  std::remove((path + ".wm").c_str());

  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  EXPECT_EQ(fs->Count(), 1u);
  Bytes out;
  ASSERT_TRUE(fs->Read(0, &out).ok());
  EXPECT_EQ(out, StringToBytes("complete"));
  EXPECT_TRUE(fs->recovery_report().tail_quarantined);
  EXPECT_TRUE(fs->recovery_report().watermark_missing);
  EXPECT_GT(fs->recovery_report().quarantined_bytes, 0u);
  EXPECT_TRUE(fs->Fsck().ok());
  // Appends keep working after tail repair.
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("after-repair")), &idx).ok());
  EXPECT_EQ(idx, 1u);
}

TEST(FileStreamStoreTest, TruncationBelowWatermarkIsCorruption) {
  std::string path = TempPath("torn_below_wm.log");
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("acked-one")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("acked-two")), &idx).ok());
  }
  // Both appends were acknowledged (watermark covers them); losing tail
  // bytes now is silent data loss, which Open must refuse to paper over.
  ASSERT_EQ(truncate(path.c_str(), FileSize(path) - 5), 0);

  std::unique_ptr<FileStreamStore> fs;
  EXPECT_TRUE(FileStreamStore::Open(path, &fs).IsCorruption());
}

TEST(FileStreamStoreTest, NoWatermarkDamageQuarantinesFromDamagedFrame) {
  std::string path = TempPath("midstream.log");
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("first")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("second")), &idx).ok());
  }
  std::remove((path + ".wm").c_str());
  // Damage the FIRST frame's payload. Without a watermark there is no
  // proof either frame was ever acknowledged, so the lenient legacy policy
  // treats everything from the damaged frame on as a torn tail — the valid
  // frame 1 is quarantined along with it rather than renumbered.
  const long payload_off =
      static_cast<long>(FileStreamStore::kFrameHeaderSize) + 1;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  uint8_t b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b ^= 0x01;
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  EXPECT_EQ(fs->Count(), 0u);
  EXPECT_TRUE(fs->recovery_report().tail_quarantined);
  EXPECT_TRUE(fs->recovery_report().watermark_missing);
}

TEST(FileStreamStoreTest, PayloadFlipBelowWatermarkFailsOpen) {
  std::string path = TempPath("flip_below_wm.log");
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("first")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("second")), &idx).ok());
  }
  const long payload_off =
      static_cast<long>(FileStreamStore::kFrameHeaderSize) + 1;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  uint8_t b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b ^= 0x01;
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  std::fclose(f);

  std::unique_ptr<FileStreamStore> fs;
  EXPECT_TRUE(FileStreamStore::Open(path, &fs).IsCorruption());
}

TEST(FileStreamStoreTest, ReorderedFramesAreDetectedBySequence) {
  std::string path = TempPath("reorder.log");
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  uint64_t idx;
  // Equal-size payloads so swapped frames still parse geometrically.
  ASSERT_TRUE(fs->Append(Slice(std::string_view("payload-A")), &idx).ok());
  ASSERT_TRUE(fs->Append(Slice(std::string_view("payload-B")), &idx).ok());
  const size_t frame_size = FileStreamStore::kFrameHeaderSize + 9;

  // Swap the two frames wholesale (headers carry their own seq + crc, so
  // each frame is self-consistent — only the sequence check can catch it).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> a(frame_size), b2(frame_size);
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(std::fread(a.data(), 1, frame_size, f), frame_size);
  ASSERT_EQ(std::fread(b2.data(), 1, frame_size, f), frame_size);
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(b2.data(), 1, frame_size, f), frame_size);
  ASSERT_EQ(std::fwrite(a.data(), 1, frame_size, f), frame_size);
  std::fclose(f);

  // The open handle's Read revalidates the header: frame 0 now claims seq 1.
  Bytes out;
  EXPECT_TRUE(fs->Read(0, &out).IsCorruption());
  // And a fresh Open refuses the image outright (damage below watermark).
  std::unique_ptr<FileStreamStore> fs2;
  EXPECT_TRUE(FileStreamStore::Open(path, &fs2).IsCorruption());
}

TEST(FileStreamStoreTest, FsckFlagsTrailingGarbage) {
  std::string path = TempPath("fsck_trailing.log");
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("record")), &idx).ok());
  ASSERT_TRUE(fs->Fsck().ok());

  // Garbage appended behind the store's back.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite("junk", 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_TRUE(fs->Fsck().IsCorruption());
}

TEST(FileStreamStoreTest, FsckFlagsPayloadDamage) {
  std::string path = TempPath("fsck_payload.log");
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  uint64_t idx;
  ASSERT_TRUE(fs->Append(Slice(std::string_view("aaaa")), &idx).ok());
  ASSERT_TRUE(fs->Append(Slice(std::string_view("bbbb")), &idx).ok());
  ASSERT_TRUE(fs->Fsck().ok());

  const long payload_off =
      static_cast<long>(FileStreamStore::kFrameHeaderSize) + 2;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, payload_off, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite("X", 1, 1, f), 1u);
  std::fclose(f);
  Status s = fs->Fsck();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("frame 0"), std::string::npos);
}

TEST(FileStreamStoreTest, WatermarkSurvivesReopen) {
  std::string path = TempPath("wm_reopen.log");
  uint64_t durable = 0;
  {
    std::unique_ptr<FileStreamStore> fs;
    ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
    uint64_t idx;
    ASSERT_TRUE(fs->Append(Slice(std::string_view("one")), &idx).ok());
    ASSERT_TRUE(fs->Append(Slice(std::string_view("two")), &idx).ok());
    durable = fs->DurableWatermark();
    EXPECT_EQ(durable, static_cast<uint64_t>(FileSize(path)));
  }
  std::unique_ptr<FileStreamStore> fs;
  ASSERT_TRUE(FileStreamStore::Open(path, &fs).ok());
  EXPECT_EQ(fs->DurableWatermark(), durable);
  EXPECT_FALSE(fs->recovery_report().watermark_missing);
  EXPECT_FALSE(fs->recovery_report().tail_quarantined);
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xcbf43926 (IEEE).
  Bytes data = StringToBytes("123456789");
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xcbf43926u);
}

// ---------------------------------------------------------------------------
// NodeStore
// ---------------------------------------------------------------------------

TEST(MemoryNodeStoreTest, PutGetRoundTrip) {
  NodeStore store;
  Digest key = Sha256::Hash(std::string_view("node-1"));
  Bytes value = StringToBytes("serialized-node");
  store.Put(key, Slice(value));
  EXPECT_TRUE(store.Contains(key));
  Bytes out;
  ASSERT_TRUE(store.Get(key, &out).ok());
  EXPECT_EQ(out, value);
  EXPECT_EQ(store.Size(), 1u);
}

TEST(MemoryNodeStoreTest, GetMissingIsNotFound) {
  NodeStore store;
  Bytes out;
  EXPECT_TRUE(store.Get(Sha256::Hash(std::string_view("missing")), &out).IsNotFound());
}

TEST(MemoryNodeStoreTest, PutIsIdempotent) {
  NodeStore store;
  Digest key = Sha256::Hash(std::string_view("k"));
  store.Put(key, Slice(std::string_view("v")));
  store.Put(key, Slice(std::string_view("v")));
  EXPECT_EQ(store.Size(), 1u);
}

}  // namespace
}  // namespace ledgerdb

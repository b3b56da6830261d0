// Tests for the embedded provenance database: CRUD, prefix scans,
// durability across re-open, corruption recovery, compaction, and the
// ProvenanceStore adapter.

#include "src/provdb/provdb.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/common/random.h"
#include "src/common/strings.h"

namespace hiway {
namespace {

class ProvDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           StrFormat("provdb-test-%d-%s", getpid(),
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "prov.db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ProvDbTest, PutGetDelete) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Put("k1", "v1").ok());
  ASSERT_TRUE((*db)->Put("k2", "v2").ok());
  EXPECT_EQ(*(*db)->Get("k1"), "v1");
  EXPECT_TRUE((*db)->Contains("k2"));
  EXPECT_TRUE((*db)->Get("k3").status().IsNotFound());
  ASSERT_TRUE((*db)->Delete("k1").ok());
  EXPECT_FALSE((*db)->Contains("k1"));
  EXPECT_TRUE((*db)->Delete("k1").IsNotFound());
  EXPECT_EQ((*db)->size(), 1u);
}

TEST_F(ProvDbTest, OverwriteKeepsLatest) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "old").ok());
  ASSERT_TRUE((*db)->Put("k", "new").ok());
  EXPECT_EQ(*(*db)->Get("k"), "new");
  EXPECT_EQ((*db)->size(), 1u);
}

TEST_F(ProvDbTest, SurvivesReopen) {
  {
    auto db = ProvDb::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("a", "1").ok());
    ASSERT_TRUE((*db)->Put("b", "2").ok());
    ASSERT_TRUE((*db)->Delete("a").ok());
  }
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->size(), 1u);
  EXPECT_FALSE((*db)->Contains("a"));
  EXPECT_EQ(*(*db)->Get("b"), "2");
  EXPECT_EQ((*db)->corrupt_records_dropped(), 0);
}

TEST_F(ProvDbTest, PrefixScanInKeyOrder) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("ev/002", "b").ok());
  ASSERT_TRUE((*db)->Put("ev/001", "a").ok());
  ASSERT_TRUE((*db)->Put("other/1", "x").ok());
  ASSERT_TRUE((*db)->Put("ev/010", "c").ok());
  auto scan = (*db)->Scan("ev/");
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_EQ(scan[0].first, "ev/001");
  EXPECT_EQ(scan[1].first, "ev/002");
  EXPECT_EQ(scan[2].first, "ev/010");
  EXPECT_EQ((*db)->Scan("zzz").size(), 0u);
  EXPECT_EQ((*db)->Scan("").size(), 4u);  // empty prefix = everything
}

TEST_F(ProvDbTest, BinarySafeKeysAndValues) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  std::string key("k\0ey", 4);
  std::string value("\x00\xff\x7f binary\n", 10);
  ASSERT_TRUE((*db)->Put(key, value).ok());
  EXPECT_EQ(*(*db)->Get(key), value);
}

TEST_F(ProvDbTest, TornTailIsDroppedOnOpen) {
  {
    auto db = ProvDb::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("good", "record").ok());
  }
  {  // Simulate a crash mid-append: write half a record.
    FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x20\x00\x00\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->corrupt_records_dropped(), 1);
  EXPECT_EQ(*(*db)->Get("good"), "record");
  // The log was truncated: appends after recovery survive a re-open.
  ASSERT_TRUE((*db)->Put("after", "crash").ok());
  db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Get("after"), "crash");
}

TEST_F(ProvDbTest, FlippedBitIsDetected) {
  {
    auto db = ProvDb::Open(path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("k", "aaaaaaaaaaaaaaaa").ok());
  }
  {
    FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);  // flip a byte inside the value
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->corrupt_records_dropped(), 1);
  EXPECT_FALSE((*db)->Contains("k"));
}

TEST_F(ProvDbTest, CompactionReclaimsSpaceAndPreservesData) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        (*db)->Put("hot", StrFormat("version-%d", i)).ok());  // overwrites
  }
  ASSERT_TRUE((*db)->Put("cold", "steady").ok());
  int64_t before = (*db)->log_bytes();
  auto reclaimed = (*db)->Compact();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(*reclaimed, 0);
  EXPECT_LT((*db)->log_bytes(), before);
  EXPECT_EQ(*(*db)->Get("hot"), "version-99");
  EXPECT_EQ(*(*db)->Get("cold"), "steady");
  // Compacted log replays correctly.
  db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Get("hot"), "version-99");
}

TEST_F(ProvDbTest, RandomOpsMatchReferenceMap) {
  Rng rng(2024);
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> reference;
  for (int op = 0; op < 2000; ++op) {
    std::string key = StrFormat("k%02d", static_cast<int>(rng.UniformInt(50)));
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      std::string value = StrFormat("v%llu",
                                    (unsigned long long)rng.NextUint64());
      ASSERT_TRUE((*db)->Put(key, value).ok());
      reference[key] = value;
    } else if (dice < 0.85) {
      Status st = (*db)->Delete(key);
      if (reference.erase(key) > 0) {
        EXPECT_TRUE(st.ok());
      } else {
        EXPECT_TRUE(st.IsNotFound());
      }
    } else if (dice < 0.95) {
      auto got = (*db)->Get(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(got.status().IsNotFound());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, it->second);
      }
    } else {
      ASSERT_TRUE((*db)->Compact().ok());
    }
  }
  // Reopen and compare everything.
  db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->size(), reference.size());
  for (const auto& [k, v] : reference) {
    EXPECT_EQ(*(*db)->Get(k), v);
  }
}

TEST_F(ProvDbTest, ProvenanceStoreAdapterRoundTrips) {
  auto db = ProvDb::Open(path_);
  ASSERT_TRUE(db.ok());
  // A manager whose every shard lives in the one ProvDb (single-segment
  // legacy layout, still supported through the factory hook).
  ProvDb* raw = db->get();
  ProvenanceManager manager(
      [raw](const std::string&) -> Result<std::unique_ptr<ProvenanceStore>> {
        return std::unique_ptr<ProvenanceStore>(
            std::make_unique<ProvDbProvenanceStore>(raw));
      });
  std::string run = manager.BeginWorkflow("wf", 0.0);
  TaskResult result;
  result.id = 1;
  result.signature = "align";
  result.node = 2;
  result.started_at = 1.0;
  result.finished_at = 11.0;
  result.status = Status::OK();
  manager.shard(run)->RecordTaskEnd(result, "node-002");
  manager.shard(run)->RecordWorkflowEnd(12.0, true);
  ProvDbProvenanceStore store(raw);
  EXPECT_EQ(store.size(), 3u);
  auto events = store.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].signature, "align");
  EXPECT_DOUBLE_EQ(*manager.View().LatestRuntime("align", 2), 10.0);

  // A second adapter over the same db continues the sequence.
  ProvDbProvenanceStore store2(db->get());
  EXPECT_EQ(store2.size(), 3u);
  ProvenanceEvent extra;
  extra.type = ProvenanceEventType::kWorkflowStart;
  extra.run_id = "r2";
  store2.Append(extra);
  EXPECT_EQ(store2.Events().size(), 4u);
  store2.Clear();
  EXPECT_EQ(store2.size(), 0u);
}

// ------------------------------------------- multi-segment directories --

class ProvDbDirectoryTest : public ProvDbTest {
 protected:
  std::string SegmentFile(const std::string& id) const {
    return (dir_ / "segments" / (id + ".provlog")).string();
  }
  std::string SegmentsDir() const { return (dir_ / "segments").string(); }
};

TEST_F(ProvDbDirectoryTest, TornTailTruncatesOnlyThatShard) {
  {
    auto dir = ProvDbDirectory::Open(SegmentsDir());
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    auto a = (*dir)->OpenSegment("wf-run-0");
    auto b = (*dir)->OpenSegment("wf-run-1");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE((*a)->Put("ev/0", "a0").ok());
    ASSERT_TRUE((*a)->Put("ev/1", "a1").ok());
    ASSERT_TRUE((*b)->Put("ev/0", "b0").ok());
  }
  {  // Crash mid-append in shard 0's log only.
    FILE* f = std::fopen(SegmentFile("wf-run-0").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x20\x00\x00\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto dir = ProvDbDirectory::Open(SegmentsDir());
  ASSERT_TRUE(dir.ok());
  ASSERT_EQ((*dir)->segment_ids().size(), 2u);
  ProvDb* a = (*dir)->segment("wf-run-0");
  ProvDb* b = (*dir)->segment("wf-run-1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The torn shard lost only its tail; the other shard is untouched.
  EXPECT_EQ(a->corrupt_records_dropped(), 1);
  EXPECT_EQ(a->size(), 2u);
  EXPECT_EQ(*a->Get("ev/1"), "a1");
  EXPECT_EQ(b->corrupt_records_dropped(), 0);
  EXPECT_EQ(*b->Get("ev/0"), "b0");
}

TEST_F(ProvDbDirectoryTest, CompactSealedSegmentWhileAnotherAppends) {
  auto dir = ProvDbDirectory::Open(SegmentsDir());
  ASSERT_TRUE(dir.ok());
  auto sealed = (*dir)->OpenSegment("sealed-run");
  auto active = (*dir)->OpenSegment("active-run");
  ASSERT_TRUE(sealed.ok());
  ASSERT_TRUE(active.ok());
  // The sealed shard accumulated overwrites worth reclaiming.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*sealed)->Put("hot-key", StrFormat("v%d", i)).ok());
  }
  ASSERT_TRUE((*active)->Put("ev/before", "x").ok());
  auto reclaimed = (*dir)->CompactSegment("sealed-run");
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(*reclaimed, 0);
  // The active shard keeps appending through and after the compaction.
  ASSERT_TRUE((*active)->Put("ev/after", "y").ok());
  EXPECT_EQ(*(*sealed)->Get("hot-key"), "v49");
  EXPECT_EQ(*(*active)->Get("ev/after"), "y");
  EXPECT_TRUE((*dir)->CompactSegment("no-such-run").status().IsNotFound());
}

TEST_F(ProvDbDirectoryTest, ReopenRecoversAllSegments) {
  {
    auto dir = ProvDbDirectory::Open(SegmentsDir());
    ASSERT_TRUE(dir.ok());
    for (int i = 0; i < 5; ++i) {
      auto seg = (*dir)->OpenSegment(StrFormat("wf-run-%d", i));
      ASSERT_TRUE(seg.ok());
      ASSERT_TRUE((*seg)->Put("ev/0", StrFormat("payload-%d", i)).ok());
    }
  }
  auto dir = ProvDbDirectory::Open(SegmentsDir());
  ASSERT_TRUE(dir.ok());
  auto ids = (*dir)->segment_ids();
  ASSERT_EQ(ids.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ProvDb* seg = (*dir)->segment(StrFormat("wf-run-%d", i));
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(*seg->Get("ev/0"), StrFormat("payload-%d", i));
  }
}

TEST_F(ProvDbDirectoryTest, ShardIdsAreSanitisedForTheFilesystem) {
  EXPECT_EQ(ProvDbDirectory::SanitizeShardId("wf-run-0"), "wf-run-0");
  EXPECT_EQ(ProvDbDirectory::SanitizeShardId("a/b c*"), "a_b_c_");
  EXPECT_EQ(ProvDbDirectory::SanitizeShardId(""), "_");
  auto dir = ProvDbDirectory::Open(SegmentsDir());
  ASSERT_TRUE(dir.ok());
  auto seg = (*dir)->OpenSegment("odd/run id");
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE((*seg)->Put("k", "v").ok());
  // Lookup by the original id resolves to the same sanitised segment.
  EXPECT_EQ((*dir)->segment("odd/run id"), *seg);
  EXPECT_TRUE(std::filesystem::exists(SegmentFile("odd_run_id")));
}

// End-to-end: a durable sharded manager survives a restart — prior runs
// come back as sealed shards, queries span old and new history, and new
// run ids / seqs never collide with the adopted past.
TEST_F(ProvDbDirectoryTest, ShardedProvenanceSurvivesRestart) {
  std::string first_run;
  {
    auto sharded = OpenShardedProvenance(SegmentsDir());
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    first_run = sharded->manager->BeginWorkflow("wf", 0.0);
    TaskResult result;
    result.id = 1;
    result.signature = "align";
    result.node = 2;
    result.started_at = 1.0;
    result.finished_at = 11.0;
    result.status = Status::OK();
    sharded->manager->shard(first_run)->RecordTaskEnd(result, "node-002");
    sharded->manager->shard(first_run)->RecordWorkflowEnd(12.0, true);
  }
  auto sharded = OpenShardedProvenance(SegmentsDir());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->manager->shard_count(), 1u);
  ProvenanceShard* adopted = sharded->manager->shard(first_run);
  ASSERT_NE(adopted, nullptr);
  EXPECT_TRUE(adopted->sealed());
  EXPECT_DOUBLE_EQ(*sharded->manager->View().LatestRuntime("align", 2), 10.0);

  std::string second_run = sharded->manager->BeginWorkflow("wf", 100.0);
  EXPECT_NE(second_run, first_run);
  TaskResult result;
  result.id = 2;
  result.signature = "align";
  result.node = 2;
  result.started_at = 100.0;
  result.finished_at = 103.0;
  result.status = Status::OK();
  sharded->manager->shard(second_run)->RecordTaskEnd(result, "node-002");
  // Merged history: adopted events first, new events after (their seqs
  // resumed past the old ones).
  auto events = sharded->manager->Events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().run_id, first_run);
  EXPECT_EQ(events.back().run_id, second_run);
  EXPECT_DOUBLE_EQ(*sharded->manager->View().LatestRuntime("align", 2), 3.0);
}

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

}  // namespace
}  // namespace hiway

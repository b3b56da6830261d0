// Tests for the simulated HDFS: placement invariants, locality metadata,
// data movement costs, failures and re-replication.

#include "src/hdfs/dfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/strings.h"

namespace hiway {
namespace {

struct DfsRig {
  SimEngine engine;
  FlowNetwork net{&engine};
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Dfs> dfs;

  explicit DfsRig(int nodes, DfsOptions options = DfsOptions{},
                  double s3_mbps = 0.0) {
    NodeSpec node;
    node.disk_bw_mbps = 100.0;
    node.nic_bw_mbps = 100.0;
    ClusterSpec spec = ClusterSpec::Uniform(nodes, node, 1000.0);
    spec.s3_bw_mbps = s3_mbps;
    cluster = std::make_unique<Cluster>(&engine, &net, spec);
    dfs = std::make_unique<Dfs>(cluster.get(), options);
  }
};

TEST(DfsTest, IngestAndStat) {
  DfsRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 100 << 20).ok());
  auto info = rig.dfs->Stat("/a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size_bytes, 100 << 20);
  EXPECT_EQ(info->blocks.size(), 1u);  // < 128 MB block size
  EXPECT_TRUE(rig.dfs->Exists("/a"));
  EXPECT_FALSE(rig.dfs->Exists("/b"));
  EXPECT_TRUE(rig.dfs->Stat("/b").status().IsNotFound());
}

TEST(DfsTest, FilesSplitIntoBlocks) {
  DfsOptions options;
  options.block_size_bytes = 64 << 20;
  DfsRig rig(4, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/big", 200 << 20).ok());
  auto info = rig.dfs->Stat("/big");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->blocks.size(), 4u);  // 64+64+64+8
  int64_t total = 0;
  for (const DfsBlock& b : info->blocks) total += b.size_bytes;
  EXPECT_EQ(total, 200 << 20);
  EXPECT_EQ(info->blocks.back().size_bytes, 8 << 20);
}

TEST(DfsTest, ReplicasAreDistinctNodes) {
  DfsOptions options;
  options.replication = 3;
  DfsRig rig(8, options);
  for (int i = 0; i < 20; ++i) {
    std::string path = StrFormat("/f%d", i);
    ASSERT_TRUE(rig.dfs->IngestFile(path, 10 << 20).ok());
    auto info = rig.dfs->Stat(path);
    for (const DfsBlock& block : info->blocks) {
      std::set<NodeId> distinct(block.replicas.begin(),
                                block.replicas.end());
      EXPECT_EQ(distinct.size(), 3u);
    }
  }
}

TEST(DfsTest, ReplicationClampedToClusterSize) {
  DfsOptions options;
  options.replication = 5;
  DfsRig rig(2, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 1 << 20).ok());
  EXPECT_EQ(rig.dfs->Stat("/a")->blocks[0].replicas.size(), 2u);
}

TEST(DfsTest, FavoredNodeGetsFirstReplica) {
  DfsRig rig(6);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20, NodeId{3}).ok());
  EXPECT_EQ(rig.dfs->Stat("/a")->blocks[0].replicas.front(), 3);
}

TEST(DfsTest, FirstDatanodeExcludesMasters) {
  DfsOptions options;
  options.first_datanode = 2;
  options.replication = 3;
  DfsRig rig(6, options);
  for (int i = 0; i < 10; ++i) {
    std::string path = StrFormat("/f%d", i);
    ASSERT_TRUE(rig.dfs->IngestFile(path, 10 << 20, NodeId{0}).ok());
    auto info = rig.dfs->Stat(path);
    ASSERT_TRUE(info.ok());
    for (NodeId replica : info->blocks[0].replicas) {
      EXPECT_GE(replica, 2);
    }
  }
  EXPECT_EQ(rig.dfs->StoredBytes(0), 0);
  EXPECT_EQ(rig.dfs->StoredBytes(1), 0);
}

TEST(DfsTest, LocalBytesMatchesPlacement) {
  DfsRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20, NodeId{1}).ok());
  EXPECT_EQ(rig.dfs->LocalBytes("/a", 1), 10 << 20);
  int64_t total_local = 0;
  for (NodeId n = 0; n < 4; ++n) total_local += rig.dfs->LocalBytes("/a", n);
  EXPECT_EQ(total_local, 3 * (10 << 20));  // replication 3
  EXPECT_EQ(rig.dfs->LocalBytes("/missing", 0), 0);
}

TEST(DfsTest, DuplicateIngestRejected) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 1).ok());
  EXPECT_TRUE(rig.dfs->IngestFile("/a", 1).IsAlreadyExists());
}

TEST(DfsTest, DeleteRemovesFile) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 1).ok());
  ASSERT_TRUE(rig.dfs->Delete("/a").ok());
  EXPECT_FALSE(rig.dfs->Exists("/a"));
  EXPECT_TRUE(rig.dfs->Delete("/a").IsNotFound());
}

TEST(DfsTest, LocalReadIsDiskOnly) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 100 << 20, NodeId{0}).ok());
  Status read_status = Status::RuntimeError("not called");
  rig.dfs->ReadToNode("/a", 0, [&](Status st) { read_status = st; });
  rig.engine.Run();
  EXPECT_TRUE(read_status.ok());
  // 100 MB at 100 MB/s disk = 1 s; no switch traffic.
  EXPECT_NEAR(rig.engine.Now(), 1.0, 1e-6);
  EXPECT_NEAR(rig.net.Stats(rig.cluster->switch_resource()).mean_rate, 0.0,
              1e-9);
  EXPECT_EQ(rig.dfs->counters().blocks_read_local, 1);
  EXPECT_EQ(rig.dfs->counters().blocks_read_remote, 0);
}

TEST(DfsTest, RemoteReadCrossesSwitch) {
  DfsOptions options;
  options.replication = 1;
  DfsRig rig(3, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 50 << 20, NodeId{0}).ok());
  bool done = false;
  rig.dfs->ReadToNode("/a", 2, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  rig.engine.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.dfs->counters().blocks_read_remote, 1);
  EXPECT_GT(rig.net.Stats(rig.cluster->switch_resource()).peak_rate, 0.0);
}

TEST(DfsTest, WriteCreatesReplicatedFile) {
  DfsRig rig(4);
  Status write_status = Status::RuntimeError("not called");
  rig.dfs->WriteFromNode("/out", 64 << 20, 1,
                         [&](Status st) { write_status = st; });
  rig.engine.Run();
  EXPECT_TRUE(write_status.ok());
  auto info = rig.dfs->Stat("/out");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->blocks[0].replicas.size(), 3u);
  EXPECT_EQ(info->blocks[0].replicas.front(), 1);  // writer-local first
  EXPECT_GT(rig.engine.Now(), 0.0);
}

TEST(DfsTest, WriteOfExistingPathFails) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/x", 1).ok());
  Status st = Status::OK();
  rig.dfs->WriteFromNode("/x", 1, 0, [&](Status s) { st = s; });
  rig.engine.Run();
  EXPECT_TRUE(st.IsAlreadyExists());
}

TEST(DfsTest, ZeroByteWriteAndRead) {
  DfsRig rig(2);
  bool wrote = false;
  rig.dfs->WriteFromNode("/empty", 0, 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    wrote = true;
  });
  rig.engine.Run();
  EXPECT_TRUE(wrote);
  bool read = false;
  rig.dfs->ReadToNode("/empty", 1, [&](Status st) {
    EXPECT_TRUE(st.ok());
    read = true;
  });
  rig.engine.Run();
  EXPECT_TRUE(read);
}

TEST(DfsTest, ReadOfMissingFileFailsAsync) {
  DfsRig rig(2);
  Status st = Status::OK();
  rig.dfs->ReadToNode("/nope", 0, [&](Status s) { st = s; });
  rig.engine.Run();
  EXPECT_TRUE(st.IsNotFound());
}

TEST(DfsTest, NodeDeathLosesReplicasButDataSurvives) {
  DfsRig rig(4);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20).ok());
  NodeId victim = rig.dfs->Stat("/a")->blocks[0].replicas[0];
  rig.dfs->KillNode(victim);
  EXPECT_TRUE(rig.dfs->AllFilesReadable());  // 2 replicas left
  EXPECT_EQ(rig.dfs->Stat("/a")->blocks[0].replicas.size(), 2u);
  EXPECT_EQ(rig.dfs->LocalBytes("/a", victim), 0);
}

TEST(DfsTest, LosingAllReplicasIsDetected) {
  DfsOptions options;
  options.replication = 1;
  DfsRig rig(2, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20).ok());
  NodeId holder = rig.dfs->Stat("/a")->blocks[0].replicas[0];
  rig.dfs->KillNode(holder);
  EXPECT_FALSE(rig.dfs->AllFilesReadable());
  Status st = Status::OK();
  rig.dfs->ReadToNode("/a", holder == 0 ? 1 : 0,
                      [&](Status s) { st = s; });
  rig.engine.Run();
  EXPECT_TRUE(st.IsIoError());
}

TEST(DfsTest, ReReplicationRestoresTargetFactor) {
  DfsRig rig(5);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20).ok());
  NodeId victim = rig.dfs->Stat("/a")->blocks[0].replicas[0];
  rig.dfs->KillNode(victim);
  rig.dfs->ReReplicate();
  auto info = rig.dfs->Stat("/a");
  EXPECT_EQ(info->blocks[0].replicas.size(), 3u);
  for (NodeId n : info->blocks[0].replicas) EXPECT_NE(n, victim);
  EXPECT_GT(rig.dfs->counters().blocks_re_replicated, 0);
}

TEST(DfsTest, ExternalFilesStreamFromS3) {
  DfsRig rig(2, DfsOptions{}, /*s3_mbps=*/500.0);
  ASSERT_TRUE(rig.dfs->RegisterExternalFile("/s3/reads", 100 << 20).ok());
  EXPECT_TRUE(rig.dfs->Exists("/s3/reads"));
  EXPECT_EQ(rig.dfs->LocalBytes("/s3/reads", 0), 0);
  bool done = false;
  rig.dfs->ReadToNode("/s3/reads", 0, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  rig.engine.Run();
  EXPECT_TRUE(done);
  // Bottleneck: 100 MB/s NIC (S3 uplink is 500) -> 1 s.
  EXPECT_NEAR(rig.engine.Now(), 1.0, 1e-6);
}

TEST(DfsTest, ExternalFileRequiresS3Uplink) {
  DfsRig rig(2);  // no S3
  EXPECT_TRUE(rig.dfs->RegisterExternalFile("/s3/x", 1)
                  .IsFailedPrecondition());
}

TEST(DfsTest, NegativeSizesAreRejected) {
  DfsRig rig(2, DfsOptions{}, /*s3_mbps=*/500.0);
  // A negative external size used to register, and the first read of the
  // file aborted the process on a negative flow demand.
  EXPECT_TRUE(
      rig.dfs->RegisterExternalFile("/s3/neg", -5).IsInvalidArgument());
  EXPECT_FALSE(rig.dfs->Exists("/s3/neg"));
  EXPECT_TRUE(rig.dfs->IngestFile("/neg", -1).IsInvalidArgument());
  Status written;
  rig.dfs->WriteFromNode("/neg", -1, 0, [&](Status st) { written = st; });
  rig.engine.Run();
  EXPECT_TRUE(written.IsInvalidArgument()) << written.ToString();
  EXPECT_FALSE(rig.dfs->Exists("/neg"));
}

TEST(DfsTest, ListFilesSorted) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/b", 1).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 1).ok());
  EXPECT_EQ(rig.dfs->ListFiles(), (std::vector<std::string>{"/a", "/b"}));
}

// ---- Interned file ids ----------------------------------------------------

TEST(DfsFileIdTest, PathKeepsItsIdAcrossDeleteAndRecreate) {
  DfsRig rig(4);
  FileId early = rig.dfs->Intern("/x");  // interned before it exists
  EXPECT_EQ(rig.dfs->SizeOf(early), -1);
  EXPECT_EQ(rig.dfs->ContentIdOf(early), 0u);
  ASSERT_TRUE(rig.dfs->IngestFile("/x", 10 << 20).ok());
  EXPECT_EQ(rig.dfs->Intern("/x"), early);
  EXPECT_EQ(rig.dfs->PathOf(early), "/x");
  EXPECT_EQ(rig.dfs->SizeOf(early), 10 << 20);
  uint64_t first = rig.dfs->ContentIdOf(early);
  EXPECT_EQ(first, rig.dfs->ContentId("/x"));
  EXPECT_NE(rig.dfs->Intern("/y"), early);

  ASSERT_TRUE(rig.dfs->Delete("/x").ok());
  EXPECT_EQ(rig.dfs->SizeOf(early), -1);
  EXPECT_EQ(rig.dfs->ContentIdOf(early), 0u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(rig.dfs->LocalBytesOf(early, n), 0);

  ASSERT_TRUE(rig.dfs->IngestFile("/x", 3 << 20).ok());
  EXPECT_EQ(rig.dfs->Intern("/x"), early);
  EXPECT_EQ(rig.dfs->SizeOf(early), 3 << 20);
  uint64_t second = rig.dfs->ContentIdOf(early);
  EXPECT_NE(second, first);
  EXPECT_EQ(second, rig.dfs->ContentId("/x"));

  // Same size again: still a new fingerprint.
  ASSERT_TRUE(rig.dfs->Delete("/x").ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/x", 3 << 20).ok());
  EXPECT_NE(rig.dfs->ContentIdOf(early), second);
}

TEST(DfsFileIdTest, LocalBytesByIdFollowReplicaChurn) {
  DfsOptions options;
  options.replication = 2;
  options.block_size_bytes = 4 << 20;
  DfsRig rig(6, options);
  std::vector<std::string> paths;
  for (int i = 0; i < 12; ++i) {
    paths.push_back(StrFormat("/c/f%02d", i));
    ASSERT_TRUE(rig.dfs->IngestFile(paths.back(), (i + 1) << 20).ok());
  }
  auto expect_agree = [&](const char* phase) {
    for (const std::string& path : paths) {
      FileId id = rig.dfs->Intern(path);
      for (NodeId n = 0; n < 6; ++n) {
        EXPECT_EQ(rig.dfs->LocalBytesOf(id, n), rig.dfs->LocalBytes(path, n))
            << phase << " " << path << " node " << n;
      }
    }
  };
  expect_agree("placed");
  rig.dfs->KillNode(2);
  expect_agree("killed");
  for (const std::string& path : paths) {
    EXPECT_EQ(rig.dfs->LocalBytesOf(rig.dfs->Intern(path), 2), 0);
  }
  rig.dfs->DecommissionNode(4);
  expect_agree("decommissioned");
  for (const std::string& path : paths) {
    EXPECT_EQ(rig.dfs->LocalBytesOf(rig.dfs->Intern(path), 4), 0);
  }
  rig.dfs->ReReplicate();
  expect_agree("re-replicated");
  int64_t on_survivors = 0;
  for (const std::string& path : paths) {
    for (NodeId n = 0; n < 6; ++n) {
      on_survivors += rig.dfs->LocalBytesOf(rig.dfs->Intern(path), n);
    }
  }
  EXPECT_EQ(on_survivors, rig.dfs->TotalStoredBytes());
}

TEST(DfsFileIdTest, BlocksByIdMatchStat) {
  DfsOptions options;
  options.block_size_bytes = 4 << 20;
  DfsRig rig(4, options);
  FileId id = rig.dfs->Intern("/b");
  EXPECT_TRUE(rig.dfs->BlocksOf(id).empty());  // not yet written
  ASSERT_TRUE(rig.dfs->IngestFile("/b", 10 << 20).ok());
  const std::vector<DfsBlock>& blocks = rig.dfs->BlocksOf(id);
  auto info = rig.dfs->Stat("/b");
  ASSERT_EQ(blocks.size(), info->blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].size_bytes, info->blocks[i].size_bytes);
    EXPECT_EQ(blocks[i].replicas, info->blocks[i].replicas);
  }
  ASSERT_TRUE(rig.dfs->Delete("/b").ok());
  EXPECT_TRUE(rig.dfs->BlocksOf(id).empty());
}

// Records every notification its watches receive.
struct RecordingWatcher : Dfs::FileWatcher {
  std::vector<std::pair<FileId, NodeId>> heard;
  std::vector<uint64_t> cookies;
  void OnFileChanged(FileId file, NodeId node, uint64_t cookie) override {
    heard.emplace_back(file, node);
    cookies.push_back(cookie);
  }
};

TEST(DfsWatchTest, EveryLocalityChangeOfAWatchedFileNotifies) {
  DfsOptions options;
  options.replication = 1;  // a kill strands blocks; decommission rescues
  DfsRig rig(4, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/w", 1 << 20, NodeId{1}).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/quiet", 1 << 20, NodeId{1}).ok());
  FileId w = rig.dfs->Intern("/w");
  RecordingWatcher watcher;
  rig.dfs->Watch(w, &watcher, 7);
  using Heard = std::vector<std::pair<FileId, NodeId>>;

  rig.dfs->DecommissionNode(1);  // rescue to some node, then drop node 1
  ASSERT_EQ(watcher.heard.size(), 2u);
  EXPECT_EQ(watcher.heard[0], std::make_pair(w, NodeId{1}));
  NodeId rescued = watcher.heard[1].second;
  EXPECT_EQ(rig.dfs->LocalBytesOf(w, rescued), 1 << 20);
  watcher.heard.clear();

  rig.dfs->KillNode(rescued);
  EXPECT_EQ(watcher.heard, (Heard{{w, rescued}}));
  watcher.heard.clear();
  rig.dfs->ReReplicate();  // the only replica is gone: nothing to copy
  EXPECT_TRUE(watcher.heard.empty());

  ASSERT_TRUE(rig.dfs->Delete("/w").ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/w", 2 << 20).ok());
  EXPECT_EQ(watcher.heard, (Heard{{w, kInvalidNode}, {w, kInvalidNode}}));
  watcher.heard.clear();

  // Unwatched files and writes of other paths stay silent.
  ASSERT_TRUE(rig.dfs->Delete("/quiet").ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/other", 1).ok());
  EXPECT_TRUE(watcher.heard.empty());

  // Each watch hears each change once, under its own cookie.
  rig.dfs->Watch(w, &watcher, 8);
  watcher.cookies.clear();
  ASSERT_TRUE(rig.dfs->Delete("/w").ok());
  std::sort(watcher.cookies.begin(), watcher.cookies.end());
  EXPECT_EQ(watcher.cookies, (std::vector<uint64_t>{7, 8}));
  rig.dfs->Unwatch(w, &watcher, 7);
  rig.dfs->Unwatch(w, &watcher, 8);
  watcher.heard.clear();
  ASSERT_TRUE(rig.dfs->IngestFile("/w", 1).ok());
  EXPECT_TRUE(watcher.heard.empty());
}

TEST(DfsWatchTest, ReReplicationNotifiesEachGainingNode) {
  DfsOptions options;
  options.replication = 2;
  options.block_size_bytes = 1 << 20;
  DfsRig rig(5, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/r", 6 << 20, NodeId{0}).ok());
  FileId r = rig.dfs->Intern("/r");
  RecordingWatcher watcher;
  rig.dfs->Watch(r, &watcher, 0);
  rig.dfs->KillNode(0);  // every block loses its first replica
  ASSERT_EQ(watcher.heard.size(), 1u);
  watcher.heard.clear();
  rig.dfs->ReReplicate();
  std::set<NodeId> gained;
  for (const DfsBlock& block : rig.dfs->BlocksOf(r)) {
    ASSERT_EQ(block.replicas.size(), 2u);
    gained.insert(block.replicas.back());
  }
  std::set<NodeId> heard;
  for (const auto& [file, node] : watcher.heard) {
    EXPECT_EQ(file, r);
    EXPECT_NE(node, kInvalidNode);
    heard.insert(node);
  }
  EXPECT_EQ(heard, gained);
  rig.dfs->Unwatch(r, &watcher, 0);
}

TEST(DfsFileIdTest, ListFilesSortedWithoutAbsentSlots) {
  DfsRig rig(2);
  ASSERT_TRUE(rig.dfs->IngestFile("/c", 1).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 1).ok());
  ASSERT_TRUE(rig.dfs->IngestFile("/b", 1).ok());
  (void)rig.dfs->Intern("/0-never-written");
  ASSERT_TRUE(rig.dfs->Delete("/b").ok());
  EXPECT_EQ(rig.dfs->ListFiles(), (std::vector<std::string>{"/a", "/c"}));
  EXPECT_FALSE(rig.dfs->Exists("/0-never-written"));
  ASSERT_TRUE(rig.dfs->IngestFile("/b", 1).ok());
  EXPECT_EQ(rig.dfs->ListFiles(),
            (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(DfsFileIdTest, IdQueriesAreNotMetadataOps) {
  DfsRig rig(3);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 5 << 20).ok());
  int64_t before = rig.dfs->counters().metadata_ops;
  FileId a = rig.dfs->Intern("/a");
  FileId b = rig.dfs->Intern("/b");
  for (FileId id : {a, b}) {
    (void)rig.dfs->PathOf(id);
    (void)rig.dfs->SizeOf(id);
    (void)rig.dfs->ContentIdOf(id);
    for (NodeId n = 0; n < 3; ++n) (void)rig.dfs->LocalBytesOf(id, n);
  }
  EXPECT_EQ(rig.dfs->counters().metadata_ops, before);
  (void)rig.dfs->Stat("/a");  // the path API still counts
  EXPECT_EQ(rig.dfs->counters().metadata_ops, before + 1);
}

TEST(DfsTest, StoredBytesAccountsReplicas) {
  DfsOptions options;
  options.replication = 2;
  DfsRig rig(2, options);
  ASSERT_TRUE(rig.dfs->IngestFile("/a", 10 << 20).ok());
  EXPECT_EQ(rig.dfs->StoredBytes(0) + rig.dfs->StoredBytes(1),
            2 * (10 << 20));
}

// Property sweep: placement is balanced within a reasonable factor.
class DfsBalanceTest : public ::testing::TestWithParam<int> {};

TEST_P(DfsBalanceTest, PlacementRoughlyBalanced) {
  int nodes = GetParam();
  DfsOptions options;
  options.seed = 1234;
  DfsRig rig(nodes, options);
  const int files = 40 * nodes;
  for (int i = 0; i < files; ++i) {
    ASSERT_TRUE(rig.dfs->IngestFile(StrFormat("/f%d", i), 1 << 20).ok());
  }
  int64_t min_bytes = INT64_MAX, max_bytes = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    int64_t b = rig.dfs->StoredBytes(n);
    min_bytes = std::min(min_bytes, b);
    max_bytes = std::max(max_bytes, b);
  }
  EXPECT_GT(min_bytes, 0);
  EXPECT_LT(max_bytes, 2 * min_bytes + (10 << 20));
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, DfsBalanceTest,
                         ::testing::Values(4, 8, 16, 24));

}  // namespace
}  // namespace hiway

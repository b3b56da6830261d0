// Tests for the cross-submission data cache (docs/data-cache.md): the
// per-node staging cache (LRU under a byte budget, pinned entries,
// node-loss invalidation), the cluster-wide content-addressed result
// cache (seal-after-durable publishing, tenant isolation, provenance
// resolution, staleness eviction, persistent index, verification), a
// randomised key-collision/isolation property suite, and end-to-end
// warm-submission runs through the WorkflowService.

#include "src/cache/result_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cache/staging_cache.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/provenance.h"
#include "src/infra/karamel.h"
#include "src/provdb/provdb.h"
#include "src/service/workflow_service.h"
#include "src/sim/fault_injector.h"

namespace hiway {
namespace {

// ---------------------------------------------------------------------
// Staging cache (pure unit tests; no deployment needed).
// ---------------------------------------------------------------------

TEST(StagingCacheTest, HitRequiresMatchingContentAndNode) {
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(2, NodeSpec{}, 100.0));
  Dfs dfs(&cluster, DfsOptions{});
  const FileId a = dfs.Intern("/in/a");
  StagingCache cache;
  cache.InsertPinned(1, a, 0xabc, 100);
  cache.Unpin(1, a);

  EXPECT_EQ(cache.CachedBytes(a, 0xabc, 1), 100);
  EXPECT_EQ(cache.CachedBytes(a, 0xdef, 1), 0);  // content drifted
  EXPECT_EQ(cache.CachedBytes(a, 0xabc, 2), 0);  // other node

  EXPECT_TRUE(cache.HitAndPin(1, a, 0xabc));
  cache.Unpin(1, a);
  EXPECT_FALSE(cache.HitAndPin(1, a, 0xdef));  // stale = miss
  EXPECT_FALSE(cache.HitAndPin(2, a, 0xabc));

  StagingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.bytes_served, 100);

  // A path deleted and rewritten keeps its FileId but not its content
  // id: the entry staged from the old bytes must not serve the new ones.
  ASSERT_TRUE(dfs.IngestFile("/in/b", 100).ok());
  const FileId b = dfs.Intern("/in/b");
  const uint64_t old_content = dfs.ContentIdOf(b);
  cache.InsertPinned(1, b, old_content, 100);
  cache.Unpin(1, b);
  ASSERT_TRUE(dfs.Delete("/in/b").ok());
  ASSERT_TRUE(dfs.IngestFile("/in/b", 100).ok());
  EXPECT_EQ(dfs.Intern("/in/b"), b);
  EXPECT_NE(dfs.ContentIdOf(b), old_content);
  EXPECT_EQ(cache.CachedBytes(b, dfs.ContentIdOf(b), 1), 0);
  EXPECT_FALSE(cache.HitAndPin(1, b, dfs.ContentIdOf(b)));
}

// Staging entries are keyed by DFS FileId. The unit tests below need no
// DFS, so a file-local table interns their paths.
FileId Id(const std::string& path) {
  static std::map<std::string, FileId> ids;
  return ids.emplace(path, static_cast<FileId>(ids.size())).first->second;
}

TEST(StagingCacheTest, LruEvictsUnpinnedEntriesUnderBudget) {
  StagingCache cache(StagingCacheOptions{.node_budget_bytes = 100});
  for (int i = 0; i < 3; ++i) {
    std::string path = StrFormat("/in/f%d", i);
    cache.InsertPinned(1, Id(path), 0x100 + i, 30);
    cache.Unpin(1, Id(path));
  }
  EXPECT_EQ(cache.NodeBytes(1), 90);

  // Touch f0 so f1 becomes the LRU victim.
  EXPECT_TRUE(cache.HitAndPin(1, Id("/in/f0"), 0x100));
  cache.Unpin(1, Id("/in/f0"));

  cache.InsertPinned(1, Id("/in/f3"), 0x103, 30);
  cache.Unpin(1, Id("/in/f3"));
  EXPECT_LE(cache.NodeBytes(1), 100);
  EXPECT_EQ(cache.CachedBytes(Id("/in/f1"), 0x101, 1), 0);   // evicted
  EXPECT_EQ(cache.CachedBytes(Id("/in/f0"), 0x100, 1), 30);  // kept (recent)
  EXPECT_GE(cache.stats().evictions, 1);
}

TEST(StagingCacheTest, SchedulerScansDoNotPerturbRecency) {
  StagingCache cache(StagingCacheOptions{.node_budget_bytes = 100});
  cache.InsertPinned(1, Id("/in/old"), 0x1, 50);
  cache.Unpin(1, Id("/in/old"));
  cache.InsertPinned(1, Id("/in/new"), 0x2, 50);
  cache.Unpin(1, Id("/in/new"));
  // A placement scan reads the old entry; that must NOT refresh it.
  EXPECT_EQ(cache.CachedBytes(Id("/in/old"), 0x1, 1), 50);
  cache.InsertPinned(1, Id("/in/next"), 0x3, 50);
  cache.Unpin(1, Id("/in/next"));
  EXPECT_EQ(cache.CachedBytes(Id("/in/old"), 0x1, 1), 0);   // still the LRU
  EXPECT_EQ(cache.CachedBytes(Id("/in/new"), 0x2, 1), 50);
}

TEST(StagingCacheTest, PinnedEntriesNeverEvictedAndOverflowRejected) {
  StagingCache cache(StagingCacheOptions{.node_budget_bytes = 100});
  cache.InsertPinned(1, Id("/in/a"), 0x1, 80);  // pinned by a running attempt
  cache.InsertPinned(1, Id("/in/b"), 0x2, 80);  // cannot fit: a is pinned
  EXPECT_EQ(cache.CachedBytes(Id("/in/a"), 0x1, 1), 80);
  EXPECT_EQ(cache.CachedBytes(Id("/in/b"), 0x2, 1), 0);
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_EQ(cache.stats().evictions, 0);

  cache.Unpin(1, Id("/in/a"));
  cache.InsertPinned(1, Id("/in/b"), 0x2, 80);  // now a is evictable
  EXPECT_EQ(cache.CachedBytes(Id("/in/b"), 0x2, 1), 80);
  EXPECT_EQ(cache.CachedBytes(Id("/in/a"), 0x1, 1), 0);
}

// A re-insert that cannot fit is rejected before the old entry is
// touched: the entry keeps its pin and its bytes, and a pinned entry's
// bytes never count as room for its replacement.
TEST(StagingCacheTest, RejectedReinsertKeepsTheOldEntry) {
  StagingCache cache(StagingCacheOptions{.node_budget_bytes = 100});
  cache.InsertPinned(1, Id("/a"), 0x1, 60);
  cache.InsertPinned(1, Id("/b"), 0x2, 40);
  EXPECT_EQ(cache.NodeBytes(1), 100);

  cache.InsertPinned(1, Id("/a"), 0x3, 80);  // /a is pinned, so no room
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_EQ(cache.NodeBytes(1), 100);
  EXPECT_EQ(cache.CachedBytes(Id("/a"), 0x1, 1), 60);
  EXPECT_EQ(cache.CachedBytes(Id("/a"), 0x3, 1), 0);

  // The pin survived the rejection: once released, /a is the only
  // evictable entry, and /c fits only by evicting it.
  cache.Unpin(1, Id("/a"));
  cache.InsertPinned(1, Id("/c"), 0x4, 60);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.CachedBytes(Id("/a"), 0x1, 1), 0);
  EXPECT_EQ(cache.CachedBytes(Id("/c"), 0x4, 1), 60);
  EXPECT_EQ(cache.NodeBytes(1), 100);

  // An unpinned old entry's bytes are room, but a rejected re-insert
  // still leaves it in place.
  cache.Unpin(1, Id("/c"));
  cache.InsertPinned(1, Id("/c"), 0x5, 70);  // 40 pinned + 70 > 100
  EXPECT_EQ(cache.stats().rejected, 2);
  EXPECT_EQ(cache.CachedBytes(Id("/c"), 0x4, 1), 60);
  EXPECT_EQ(cache.NodeBytes(1), 100);
  cache.InsertPinned(1, Id("/c"), 0x5, 50);  // 40 + 50 fits in place
  EXPECT_EQ(cache.CachedBytes(Id("/c"), 0x5, 1), 50);
  EXPECT_EQ(cache.NodeBytes(1), 90);
}

TEST(StagingCacheTest, InvalidateNodeDropsOnlyThatNode) {
  StagingCache cache;
  cache.InsertPinned(1, Id("/in/a"), 0x1, 10);
  cache.Unpin(1, Id("/in/a"));
  cache.InsertPinned(2, Id("/in/a"), 0x1, 10);
  cache.Unpin(2, Id("/in/a"));
  EXPECT_EQ(cache.TotalBytes(), 20);

  cache.InvalidateNode(1);
  EXPECT_EQ(cache.NodeBytes(1), 0);
  EXPECT_EQ(cache.NodeBytes(2), 10);
  EXPECT_FALSE(cache.HitAndPin(1, Id("/in/a"), 0x1));
  EXPECT_TRUE(cache.HitAndPin(2, Id("/in/a"), 0x1));
  EXPECT_EQ(cache.stats().invalidated, 1);
}

// Records what the cache holds of a watched file on the node it was told
// about, read back from inside the callback.
struct ReadingWatcher : Dfs::FileWatcher {
  const StagingCache* cache = nullptr;
  std::vector<std::pair<NodeId, int64_t>> heard;
  void OnFileChanged(FileId file, NodeId node, uint64_t cookie) override {
    EXPECT_EQ(cookie, 42u);
    heard.emplace_back(node, cache->CachedBytes(file, 0x1, node));
  }
};

TEST(StagingCacheTest, WatchersHearEveryCopyOfTheirFileChange) {
  StagingCache cache(StagingCacheOptions{.node_budget_bytes = 100});
  const FileId a = Id("/watch/a");
  const FileId other = Id("/watch/other");
  ReadingWatcher watcher;
  watcher.cache = &cache;
  cache.Watch(a, &watcher, 42);
  using Heard = std::vector<std::pair<NodeId, int64_t>>;

  cache.InsertPinned(1, a, 0x1, 60);
  cache.Unpin(1, a);  // pins and hits move no bytes
  EXPECT_TRUE(cache.HitAndPin(1, a, 0x1));
  cache.Unpin(1, a);
  EXPECT_EQ(watcher.heard, (Heard{{1, 60}}));
  cache.InsertPinned(1, other, 0x9, 50);  // evicts a's copy on node 1
  cache.Unpin(1, other);
  EXPECT_EQ(watcher.heard, (Heard{{1, 60}, {1, 0}}));
  watcher.heard.clear();

  cache.InsertPinned(2, a, 0x1, 30);
  cache.Unpin(2, a);
  cache.InsertPinned(2, a, 0x1, 40);  // replaced in place
  cache.Unpin(2, a);
  EXPECT_EQ(watcher.heard, (Heard{{2, 30}, {2, 40}}));
  watcher.heard.clear();

  // A drain puts the copy on the target, then drops it from the source.
  EXPECT_EQ(cache.MigrateNode(2, {3}), 1);
  EXPECT_EQ(watcher.heard, (Heard{{3, 40}, {2, 0}}));
  watcher.heard.clear();
  cache.InvalidateNode(3);
  EXPECT_EQ(watcher.heard, (Heard{{3, 0}}));
  watcher.heard.clear();

  cache.Unwatch(a, &watcher, 42);
  cache.InsertPinned(1, a, 0x1, 10);
  EXPECT_TRUE(watcher.heard.empty());

  std::vector<std::pair<NodeId, int64_t>> copies;
  cache.InsertPinned(4, a, 0x2, 20);  // another node, other content
  cache.FreshCopies(a, 0x1, &copies);
  EXPECT_EQ(copies, (Heard{{1, 10}}));
  copies.clear();
  cache.FreshCopies(a, 0, &copies);  // the file no longer exists
  EXPECT_TRUE(copies.empty());
}

// ---------------------------------------------------------------------
// Result cache unit tests (a deployment supplies DFS + provenance).
// ---------------------------------------------------------------------

Result<std::unique_ptr<Deployment>> BareDeployment(
    const ChefAttributes& extra = {}) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("cluster/cores", "4");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  return karamel.Converge();
}

TaskSpec MakeSpec(TaskId id, const std::string& signature,
                  std::vector<std::string> inputs,
                  std::vector<std::string> outputs) {
  TaskSpec spec;
  spec.id = id;
  spec.signature = signature;
  spec.command = signature + " --run";
  spec.input_files = std::move(inputs);
  for (const std::string& path : outputs) {
    OutputSpec out;
    out.param = StrFormat("out%zu", spec.outputs.size());
    out.path = path;
    spec.outputs.push_back(std::move(out));
  }
  return spec;
}

/// Simulates a completed attempt: writes the outputs into DFS, records a
/// successful task-end in the run's provenance shard, and publishes.
Status PublishTask(Deployment* d, ResultCache* cache, const TaskSpec& spec,
                   const std::string& run_id, double duration = 30.0,
                   int64_t output_bytes = 1024) {
  TaskResult result;
  result.id = spec.id;
  result.signature = spec.signature;
  result.node = 1;
  result.started_at = 0.0;
  result.finished_at = duration;
  for (const OutputSpec& out : spec.outputs) {
    if (out.is_value) continue;
    if (!d->dfs->Exists(out.path)) {
      HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(out.path, output_bytes));
    }
    result.produced_files.emplace_back(out.path, output_bytes);
  }
  ProvenanceShard* shard = d->provenance->shard(run_id);
  if (shard == nullptr) return Status::NotFound("no shard: " + run_id);
  shard->RecordTaskEnd(result, "worker-1");
  return cache->Publish(spec, result, run_id, "worker-1");
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = BareDeployment();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    d_ = std::move(*d);
    ASSERT_TRUE(d_->dfs->IngestFile("/in/reads.fq", 4096).ok());
    ASSERT_TRUE(d_->dfs->IngestFile("/in/ref.fa", 2048).ok());
    run_ = d_->provenance->BeginWorkflow("producer", 0.0);
    dir_ = std::filesystem::temp_directory_path() /
           StrFormat("cache-test-%d-%s", getpid(),
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string IndexPath() const { return (dir_ / "cache.db").string(); }

  std::unique_ptr<Deployment> d_;
  std::string run_;
  std::filesystem::path dir_;
};

TEST_F(ResultCacheTest, PublishThenHitRoundTrip) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  cache.BindRun(run_, "alice");
  TaskSpec spec =
      MakeSpec(1, "align", {"/in/reads.fq", "/in/ref.fa"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_, 42.0).ok());
  EXPECT_EQ(cache.size(), 1u);

  auto hit = cache.Lookup(spec, "alice");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->signature, "align");
  EXPECT_EQ(hit->run_id, run_);
  EXPECT_DOUBLE_EQ(hit->duration, 42.0);
  ASSERT_EQ(hit->outputs.size(), 1u);
  EXPECT_EQ(hit->outputs[0].path, "/out/bam");
  auto stat = d_->dfs->Stat("/out/bam");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(hit->outputs[0].size_bytes, stat->size_bytes);
  EXPECT_EQ(hit->outputs[0].content_id, stat->content_id);

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.seals, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_DOUBLE_EQ(stats.saved_compute_s, 42.0);
}

TEST_F(ResultCacheTest, ChangedInputContentMisses) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  cache.BindRun(run_, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_).ok());
  ASSERT_TRUE(cache.Lookup(spec, "alice").ok());

  // Re-ingesting the input bumps its content fingerprint: the key no
  // longer matches, exactly like re-running with one changed file.
  ASSERT_TRUE(d_->dfs->Delete("/in/reads.fq").ok());
  ASSERT_TRUE(d_->dfs->IngestFile("/in/reads.fq", 4096).ok());
  auto miss = cache.Lookup(spec, "alice");
  EXPECT_TRUE(miss.status().IsNotFound());
}

TEST_F(ResultCacheTest, PublishRefusesNonDurableOutputs) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  cache.BindRun(run_, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/missing"});
  // A crashed AM's outputs never reached DFS: Publish must refuse even
  // though the caller claims success.
  TaskResult result;
  result.id = spec.id;
  result.signature = spec.signature;
  result.node = 1;
  result.finished_at = 10.0;
  Status st = cache.Publish(spec, result, run_, "worker-1");
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected_publishes, 1);
  EXPECT_EQ(cache.AuditAgainstDfs(), 0);
}

TEST_F(ResultCacheTest, CrossTenantLookupDenied) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  cache.BindRun(run_, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_).ok());

  auto denied = cache.Lookup(spec, "bob");
  EXPECT_TRUE(denied.status().IsNotFound());
  EXPECT_EQ(cache.stats().tenant_denied, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  // The rightful owner still hits.
  EXPECT_TRUE(cache.Lookup(spec, "alice").ok());
}

TEST_F(ResultCacheTest, EntryWithoutProvenanceHistoryIsAMiss) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(d_->dfs->IngestFile("/out/bam", 1024).ok());
  TaskResult result;
  result.id = spec.id;
  result.signature = spec.signature;
  result.finished_at = 10.0;
  result.produced_files.emplace_back("/out/bam", 1024);
  // Sealed under a run no provenance shard vouches for (e.g. wiped
  // history): conservatively a miss.
  ASSERT_TRUE(cache.Publish(spec, result, "ghost-run", "worker-1").ok());
  auto miss = cache.Lookup(spec, "default");
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_EQ(cache.stats().unresolved, 1);
}

TEST_F(ResultCacheTest, StaleOutputsEvictOnLookup) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  cache.BindRun(run_, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_).ok());

  // The output is deleted underneath the cache: the entry dangles.
  ASSERT_TRUE(d_->dfs->Delete("/out/bam").ok());
  EXPECT_EQ(cache.AuditAgainstDfs(), 1);
  // Rewritten at the same path (content drift): no longer dangling, but
  // stale — the first lookup evicts it instead of serving old bytes.
  ASSERT_TRUE(d_->dfs->IngestFile("/out/bam", 1024).ok());
  EXPECT_EQ(cache.AuditAgainstDfs(), 0);
  auto miss = cache.Lookup(spec, "alice");
  EXPECT_TRUE(miss.status().IsNotFound());
  EXPECT_EQ(cache.stats().stale_evictions, 1);
  EXPECT_EQ(cache.size(), 0u);  // evicted, not retried forever
}

TEST_F(ResultCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  ResultCacheOptions options;
  options.max_entries = 2;
  ResultCache cache(d_->dfs.get(), d_->provenance.get(), options);
  cache.BindRun(run_, "alice");
  std::vector<TaskSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(MakeSpec(i + 1, StrFormat("tool%d", i),
                             {"/in/reads.fq"},
                             {StrFormat("/out/f%d", i)}));
  }
  ASSERT_TRUE(PublishTask(d_.get(), &cache, specs[0], run_).ok());
  ASSERT_TRUE(PublishTask(d_.get(), &cache, specs[1], run_).ok());
  ASSERT_TRUE(cache.Lookup(specs[0], "alice").ok());  // refresh entry 0
  ASSERT_TRUE(PublishTask(d_.get(), &cache, specs[2], run_).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().capacity_evictions, 1);
  EXPECT_TRUE(cache.Lookup(specs[0], "alice").ok());  // kept (recent)
  EXPECT_TRUE(cache.Lookup(specs[1], "alice").status().IsNotFound());
}

TEST_F(ResultCacheTest, PersistentIndexSurvivesRestart) {
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  {
    ResultCache cache(d_->dfs.get(), d_->provenance.get());
    ASSERT_TRUE(cache.OpenIndex(IndexPath()).ok());
    cache.BindRun(run_, "alice");
    ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_, 42.0).ok());
  }
  // A fresh cache (service restart) restores the sealed entry from the
  // index; the provenance shards retained by the manager still vouch.
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  ASSERT_TRUE(cache.OpenIndex(IndexPath()).ok());
  EXPECT_EQ(cache.stats().restored, 1);
  EXPECT_EQ(cache.TenantOf(run_), "alice");
  auto hit = cache.Lookup(spec, "alice");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_DOUBLE_EQ(hit->duration, 42.0);
  // Isolation survives the restart too.
  EXPECT_TRUE(cache.Lookup(spec, "bob").status().IsNotFound());
}

TEST_F(ResultCacheTest, VerificationMismatchFailsLoudlyAndEvicts) {
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  {
    ResultCache cache(d_->dfs.get(), d_->provenance.get());
    ASSERT_TRUE(cache.OpenIndex(IndexPath()).ok());
    cache.BindRun(run_, "alice");
    ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_).ok());
  }
  // Corrupt the persisted outputs digest — the stand-in for bit rot that
  // left sizes intact (which OutputsFresh alone cannot see).
  {
    auto db = ProvDb::Open(IndexPath());
    ASSERT_TRUE(db.ok());
    auto rows = (*db)->Scan("entry/");
    ASSERT_EQ(rows.size(), 1u);
    auto obj = Json::Parse(rows[0].second);
    ASSERT_TRUE(obj.ok());
    obj->Set("digest", std::string("deadbeefdeadbeef"));
    ASSERT_TRUE((*db)->Put(rows[0].first, obj->Dump()).ok());
  }
  ResultCacheOptions options;
  options.verify = true;
  options.verify_rate = 1.0;
  ResultCache cache(d_->dfs.get(), d_->provenance.get(), options);
  ASSERT_TRUE(cache.OpenIndex(IndexPath()).ok());
  auto st = cache.Lookup(spec, "alice");
  EXPECT_TRUE(st.status().IsIoError()) << st.status().ToString();
  EXPECT_EQ(cache.stats().verify_mismatches, 1);
  EXPECT_EQ(cache.size(), 0u);  // corrupt entry evicted
  // The recompute path is clear: the next lookup is an ordinary miss.
  EXPECT_TRUE(cache.Lookup(spec, "alice").status().IsNotFound());
}

TEST_F(ResultCacheTest, TransientReadFaultDowngradesVerifiedHit) {
  ResultCacheOptions options;
  options.verify = true;
  options.verify_rate = 1.0;
  ResultCache cache(d_->dfs.get(), d_->provenance.get(), options);
  cache.BindRun(run_, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d_.get(), &cache, spec, run_).ok());

  bool faulty = true;
  cache.SetVerifyReadHook(
      [&faulty](const std::string&, NodeId) { return faulty; });
  auto degraded = cache.Lookup(spec, "alice");
  EXPECT_TRUE(degraded.status().IsNotFound());
  EXPECT_EQ(cache.stats().verify_transients, 1);
  EXPECT_EQ(cache.stats().verify_mismatches, 0);
  EXPECT_EQ(cache.size(), 1u);  // the entry itself is not suspect

  faulty = false;
  EXPECT_TRUE(cache.Lookup(spec, "alice").ok());  // healthy again
}

// The service wires the fault injector's hdfs-error scenario into the
// cache's verification reads (satellite of docs/failure-model.md).
TEST_F(ResultCacheTest, ServiceWiresInjectorIntoVerification) {
  auto d = BareDeployment({{"hiway/cache_results", "on"},
                           {"hiway/cache_verify", "on"},
                           {"hiway/cache_verify_rate", "1.0"}});
  ASSERT_TRUE(d.ok());
  ASSERT_NE((*d)->result_cache, nullptr);
  ASSERT_TRUE((*d)->dfs->IngestFile("/in/reads.fq", 4096).ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector.ArmSpec("hdfs-error:rate=1").ok());

  ResultCache* cache = (*d)->result_cache.get();
  std::string run = (*d)->provenance->BeginWorkflow("producer", 0.0);
  cache->BindRun(run, "alice");
  TaskSpec spec = MakeSpec(1, "align", {"/in/reads.fq"}, {"/out/bam"});
  ASSERT_TRUE(PublishTask(d->get(), cache, spec, run).ok());
  auto degraded = cache->Lookup(spec, "alice");
  EXPECT_TRUE(degraded.status().IsNotFound());
  EXPECT_EQ(cache->stats().verify_transients, 1);
}

// ---------------------------------------------------------------------
// Randomised property suite: key collision / isolation.
// ---------------------------------------------------------------------

// Random (signature, inputs, params) combinations: every hit must return
// the exact outputs published for that spec (byte-identity via size +
// content fingerprint), never another spec's entry, and never another
// tenant's entry.
TEST_F(ResultCacheTest, RandomisedKeysNeverCollideAcrossSpecsOrTenants) {
  ResultCache cache(d_->dfs.get(), d_->provenance.get());
  std::string run_a = d_->provenance->BeginWorkflow("tenant-a", 0.0);
  std::string run_b = d_->provenance->BeginWorkflow("tenant-b", 0.0);
  cache.BindRun(run_a, "alice");
  cache.BindRun(run_b, "bob");

  Rng rng(20170321);
  std::vector<std::string> pool;
  for (int i = 0; i < 6; ++i) {
    std::string path = StrFormat("/in/pool%d", i);
    ASSERT_TRUE(
        d_->dfs->IngestFile(path, 512 + static_cast<int>(rng.UniformInt(4096))).ok());
    pool.push_back(path);
  }

  struct Published {
    TaskSpec spec;
    std::string tenant;
    int64_t size = 0;
    uint64_t content = 0;
  };
  std::vector<Published> published;
  for (int i = 0; i < 40; ++i) {
    Published p;
    p.tenant = (static_cast<int>(rng.UniformInt(2)) == 0) ? "alice" : "bob";
    std::vector<std::string> inputs;
    for (const std::string& path : pool) {
      if (static_cast<int>(rng.UniformInt(2)) == 0) inputs.push_back(path);
    }
    p.spec = MakeSpec(100 + i, StrFormat("tool%d", static_cast<int>(rng.UniformInt(8))),
                      std::move(inputs), {StrFormat("/out/p%d", i)});
    p.spec.params["shard"] = StrFormat("%d", static_cast<int>(rng.UniformInt(4)));
    const std::string& run = p.tenant == "alice" ? run_a : run_b;
    ASSERT_TRUE(PublishTask(d_.get(), &cache, p.spec, run, 10.0,
                            256 + static_cast<int>(rng.UniformInt(2048)))
                    .ok());
    auto stat = d_->dfs->Stat(p.spec.outputs[0].path);
    ASSERT_TRUE(stat.ok());
    p.size = stat->size_bytes;
    p.content = stat->content_id;
    published.push_back(std::move(p));
  }

  // Distinct (signature, inputs, params, outputs) combinations map to
  // distinct keys — a collision would alias two entries.
  std::set<std::string> keys;
  for (const Published& p : published) {
    auto key = cache.KeyFor(p.spec);
    ASSERT_TRUE(key.ok());
    keys.insert(*key);
  }
  EXPECT_EQ(keys.size(), published.size());

  for (const Published& p : published) {
    // Owner: hit, byte-identical to the recompute it replaces.
    auto hit = cache.Lookup(p.spec, p.tenant);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(hit->signature, p.spec.signature);
    ASSERT_EQ(hit->outputs.size(), 1u);
    EXPECT_EQ(hit->outputs[0].path, p.spec.outputs[0].path);
    EXPECT_EQ(hit->outputs[0].size_bytes, p.size);
    EXPECT_EQ(hit->outputs[0].content_id, p.content);
    EXPECT_EQ(hit->run_id, p.tenant == "alice" ? run_a : run_b);
    // Twin tenant: never a hit, never a leak.
    const std::string twin = p.tenant == "alice" ? "bob" : "alice";
    auto denied = cache.Lookup(p.spec, twin);
    EXPECT_TRUE(denied.status().IsNotFound());
  }
  EXPECT_EQ(cache.stats().tenant_denied,
            static_cast<int64_t>(published.size()));
}

// ---------------------------------------------------------------------
// End-to-end: warm submissions through the WorkflowService.
// ---------------------------------------------------------------------

Result<std::unique_ptr<Deployment>> SnvDeployment(
    const ChefAttributes& extra = {}) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", "4");
  karamel.SetAttribute("cluster/cores", "4");
  karamel.SetAttribute("snv/chunks", "6");
  karamel.SetAttribute("snv/chunk_mb", "32");
  for (const auto& [k, v] : extra) karamel.SetAttribute(k, v);
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  return karamel.Converge();
}

std::map<std::string, int64_t> DfsSnapshot(Dfs* dfs) {
  std::map<std::string, int64_t> files;
  for (const std::string& path : dfs->ListFiles()) {
    auto info = dfs->Stat(path);
    if (info.ok()) files[path] = info->size_bytes;
  }
  return files;
}

TEST(CacheServiceTest, WarmSubmissionIsServedFromTheCache) {
  auto d = SnvDeployment({{"hiway/cache_results", "on"}});
  ASSERT_TRUE(d.ok());
  ASSERT_NE((*d)->result_cache, nullptr);
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());

  auto cold = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* cold_rec = (*service)->record(*cold);
  ASSERT_NE(cold_rec, nullptr);
  ASSERT_EQ(cold_rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(cold_rec->report.tasks_cached, 0);
  std::map<std::string, int64_t> cold_files = DfsSnapshot((*d)->dfs.get());

  auto warm = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* warm_rec = (*service)->record(*warm);
  ASSERT_NE(warm_rec, nullptr);
  ASSERT_EQ(warm_rec->state, SubmissionState::kSucceeded);

  // Nothing changed, so the whole workflow is served without containers.
  EXPECT_EQ(warm_rec->report.tasks_cached,
            warm_rec->report.tasks_completed);
  EXPECT_EQ(warm_rec->report.tasks_completed,
            cold_rec->report.tasks_completed);
  EXPECT_LT(warm_rec->report.Makespan(), cold_rec->report.Makespan());
  // The warm run's outputs are the cold run's, byte for byte.
  EXPECT_EQ(DfsSnapshot((*d)->dfs.get()), cold_files);
  ResultCacheStats stats = (*d)->result_cache->stats();
  EXPECT_EQ(stats.hits, warm_rec->report.tasks_cached);
  EXPECT_EQ((*d)->result_cache->AuditAgainstDfs(), 0);
}

TEST(CacheServiceTest, StagingCacheCutsWarmRunTransfers) {
  auto d = SnvDeployment({{"hiway/cache_staging_mb", "0"}});  // unbounded
  ASSERT_TRUE(d.ok());
  ASSERT_NE((*d)->staging_cache, nullptr);
  ASSERT_EQ((*d)->result_cache, nullptr);  // re-execution, faster staging
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());

  auto cold = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  auto warm = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  const SubmissionRecord* cold_rec = (*service)->record(*cold);
  const SubmissionRecord* warm_rec = (*service)->record(*warm);
  ASSERT_EQ(cold_rec->state, SubmissionState::kSucceeded);
  ASSERT_EQ(warm_rec->state, SubmissionState::kSucceeded);
  EXPECT_EQ(warm_rec->report.tasks_cached, 0);  // no result cache here
  StagingCacheStats stats = (*d)->staging_cache->stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.bytes_served, 0);
  // The warm run still executes every task (per-submission seeds shift
  // runtime noise a few percent), but saved transfers must keep it in
  // the cold run's ballpark rather than paying full localisation again.
  EXPECT_LE(warm_rec->report.Makespan(),
            cold_rec->report.Makespan() * 1.15);
}

TEST(CacheServiceTest, CrossTenantTwinSubmissionGetsZeroHits) {
  auto d = SnvDeployment({{"hiway/cache_results", "on"}});
  ASSERT_TRUE(d.ok());
  WorkflowServiceOptions options;
  for (const char* name : {"alice", "bob"}) {
    ServiceQueueOptions q;
    q.rm.name = name;
    options.queues.push_back(std::move(q));
  }
  auto service = WorkflowService::Create(d->get(), options);
  ASSERT_TRUE(service.ok());

  SubmissionOptions alice;
  alice.queue = "alice";  // tenant defaults to the queue name
  auto first = (*service)->SubmitStaged("snv-calling", alice);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  SubmissionOptions bob;
  bob.queue = "bob";
  auto twin = (*service)->SubmitStaged("snv-calling", bob);
  ASSERT_TRUE(twin.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  const SubmissionRecord* twin_rec = (*service)->record(*twin);
  ASSERT_NE(twin_rec, nullptr);
  ASSERT_EQ(twin_rec->state, SubmissionState::kSucceeded);
  // The same bytes exist in the cache — under alice's namespace. Bob
  // recomputes everything.
  EXPECT_EQ(twin_rec->report.tasks_cached, 0);
  ResultCacheStats stats = (*d)->result_cache->stats();
  EXPECT_GT(stats.tenant_denied, 0);
  EXPECT_EQ(stats.hits, 0);
}

TEST(CacheServiceTest, AmCrashLeavesNoDanglingEntries) {
  auto d = SnvDeployment({{"hiway/cache_results", "on"}});
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto id = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(id.ok());

  // Kill the AM's node mid-run: in-flight attempts die between execution
  // and durable stage-out — the window where a buggy cache would seal
  // entries for outputs that never replicated.
  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  ASSERT_TRUE(injector.ArmSpec("kill-am-node@15").ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());

  const SubmissionRecord* rec = (*service)->record(*id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->state, SubmissionState::kSucceeded);
  EXPECT_GE(rec->am_failures, 1);
  // The invariant under test: every sealed entry's outputs are durable.
  EXPECT_EQ((*d)->result_cache->AuditAgainstDfs(), 0);

  // And the crash-recovered history still feeds warm reuse.
  auto warm = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  const SubmissionRecord* warm_rec = (*service)->record(*warm);
  ASSERT_EQ(warm_rec->state, SubmissionState::kSucceeded);
  EXPECT_GT(warm_rec->report.tasks_cached, 0);
  EXPECT_EQ((*d)->result_cache->AuditAgainstDfs(), 0);
}

TEST(CacheServiceTest, NodeLossInvalidatesStagedBytes) {
  auto d = SnvDeployment({{"hiway/cache_staging_mb", "0"}});
  ASSERT_TRUE(d.ok());
  auto service = WorkflowService::Create(d->get(), WorkflowServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto cold = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  ASSERT_GT((*d)->staging_cache->TotalBytes(), 0);

  FaultInjector injector(&(*d)->engine);
  (*service)->InstallFaultHandlers(&injector);
  // Kill a worker: its cached staging bytes must vanish with it (the
  // scheduler would otherwise chase copies on a dead node).
  auto warm = (*service)->SubmitStaged("snv-calling");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(injector.ArmSpec("kill-node@1:node=2").ok());
  ASSERT_TRUE((*service)->RunToCompletion().ok());
  EXPECT_EQ((*d)->staging_cache->NodeBytes(2), 0);
  EXPECT_GT((*d)->staging_cache->stats().invalidated, 0);
}

}  // namespace
}  // namespace hiway

#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unordered_map>

#include "cluster/cluster_client.h"
#include "cluster/partition.h"
#include "core/spitz_db.h"
#include "net/spitz_client.h"
#include "net/spitz_server.h"
#include "replica/backup.h"
#include "replica/replicator.h"

namespace perfbench {

using spitz::ClusterClient;
using spitz::ClusterDigest;
using spitz::MetricsSnapshot;
using spitz::PosEntry;
using spitz::ReadOptions;
using spitz::ReadProof;
using spitz::SpitzClient;
using spitz::SpitzDb;
using spitz::SpitzDigest;
using spitz::SpitzOptions;
using spitz::SpitzServer;
using spitz::Status;
using spitz::WriteBatch;
using spitz::WriteOptions;

void Accumulate(MetricsSnapshot* into, const MetricsSnapshot& from) {
  for (const auto& [name, value] : from.counters) into->counters[name] += value;
  for (const auto& [name, value] : from.gauges) into->gauges[name] += value;
  for (const auto& [name, h] : from.histograms) {
    spitz::HistogramSnapshot& dst = into->histograms[name];
    dst.count += h.count;
    dst.sum += h.sum;
    if (h.max > dst.max) dst.max = h.max;
    for (size_t i = 0; i < h.buckets.size(); i++) dst.buckets[i] += h.buckets[i];
  }
}

namespace {

namespace fs = std::filesystem;

constexpr double kZipfTheta = 0.99;
constexpr size_t kMiB = 1 << 20;

// --- Set-up helpers -------------------------------------------------------------

// The bulk-loaded values are the same for every --seed: the POS-tree's
// node boundaries are content-defined, so a seed-dependent dataset
// would change tree shape, and with it proof sizes, from seed to seed.
// The seed drives the op stream and every value written during a run.
constexpr uint64_t kDatasetSeed = 0x5b17a11ce;

// Bulk-load records [0, count) into the durable database at `dir`,
// keeping only those `keep` accepts, and make the load crash-safe.
template <typename Keep>
Status OpenLoaded(SpitzOptions options, const std::string& dir, uint64_t count,
                  Keep keep, std::unique_ptr<SpitzDb>* db,
                  uint64_t* user_bytes) {
  std::vector<PosEntry> records;
  *user_bytes = 0;
  for (uint64_t i = 0; i < count; i++) {
    std::string key = KeyOf(i);
    if (!keep(key)) continue;
    records.push_back(PosEntry{std::move(key), ValueOf(i, 0, kDatasetSeed)});
    *user_bytes += records.back().key.size() + records.back().value.size();
  }
  options.data_dir = dir;
  Status s = SpitzDb::Open(options, db);
  if (s.ok()) s = (*db)->BulkLoad(std::move(records));
  if (s.ok()) s = (*db)->FlushBlock();
  if (s.ok()) s = (*db)->SyncStorage();
  return s;
}

Status ServeDb(SpitzDb* db, spitz::ReplicaService* replica,
               std::unique_ptr<SpitzServer>* out) {
  SpitzServer::Options options;
  options.db = db;
  options.replica = replica;
  return SpitzServer::Open(options, out);
}

Status Connect(uint16_t port, std::unique_ptr<SpitzClient>* out) {
  SpitzClient::Options options;
  options.net.port = port;
  return SpitzClient::Open(options, out);
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

bool SameState(const SpitzDigest& a, const SpitzDigest& b) {
  return a.index_root == b.index_root &&
         a.journal.block_count == b.journal.block_count &&
         a.journal.tip_hash == b.journal.tip_hash &&
         a.journal.merkle_root == b.journal.merkle_root;
}

// --- Op recording -----------------------------------------------------------------

void CountFailure(ThreadStats* stats, Op op, const Status& s) {
  stats->failed[op]++;
  if (s.IsBusy()) {
    stats->busy++;
  } else if (s.IsTimedOut()) {
    stats->timeouts++;
  } else {
    stats->errors++;
  }
}

// A proof that does not check out: a mixed-version proof/digest pair
// when the proof's root differs from the digest it came with, a genuine
// proof failure otherwise.
void CountProofFailure(ThreadStats* stats, Op op, bool same_root) {
  stats->failed[op]++;
  if (same_root) {
    stats->proof_failures++;
  } else {
    stats->stale_pairs++;
  }
}

void CountWrongValue(ThreadStats* stats, Op op) {
  stats->failed[op]++;
  stats->wrong_values++;
}

// Plain point read; the value must belong to the key.
void DoGet(OpContext* ctx, spitz::VerifiedKv* kv, uint64_t index,
           uint64_t parent) {
  ThreadStats* stats = ctx->stats;
  stats->attempted[kGet]++;
  std::string value;
  const uint64_t start = NowNs();
  Status s;
  {
    SpanScope call(ctx->Tracing(), ctx->next_span, kSpanReadCall, kGet, parent);
    s = kv->Get(ReadOptions(), KeyOf(index), &value);
  }
  const uint64_t elapsed = NowNs() - start;
  if (s.IsNotFound()) return CountWrongValue(stats, kGet);
  if (!s.ok()) return CountFailure(stats, kGet, s);
  if (!ValueBelongsTo(value, index)) return CountWrongValue(stats, kGet);
  stats->latency_ns[kGet].push_back(elapsed);
}

// Single-node verified read: fetch the proof and digest, verify locally.
void DoVerifiedGet(OpContext* ctx, SpitzClient* client, uint64_t index) {
  ThreadStats* stats = ctx->stats;
  stats->attempted[kVerifiedGet]++;
  const std::string key = KeyOf(index);
  SpitzClient::ProofResult result;
  Status fetched;
  Status verdict;
  uint64_t elapsed = 0;
  {
    SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kVerifiedGet, 0);
    const uint64_t start = NowNs();
    {
      SpanScope call(ctx->Tracing(), ctx->next_span, kSpanGetProofCall,
                     kVerifiedGet, op.id());
      fetched = client->GetProof(key, &result);
    }
    if (!fetched.ok() && !fetched.IsNotFound()) {
      return CountFailure(stats, kVerifiedGet, fetched);
    }
    {
      SpanScope verify(ctx->Tracing(), ctx->next_span, kSpanVerifyRead,
                       kVerifiedGet, op.id());
      verdict = SpitzDb::VerifyRead(result.digest, key, result.value,
                                    result.proof);
    }
    elapsed = NowNs() - start;
  }
  if (!verdict.ok()) {
    return CountProofFailure(
        stats, kVerifiedGet,
        result.proof.index_root == result.digest.index_root);
  }
  if (!result.value.has_value() || !ValueBelongsTo(*result.value, index)) {
    return CountWrongValue(stats, kVerifiedGet);
  }
  stats->latency_ns[kVerifiedGet].push_back(elapsed);
  std::string proof_bytes;
  result.proof.EncodeTo(&proof_bytes);
  stats->proof_bytes += proof_bytes.size();
  stats->proven_reads++;
}

// Single-key durable write of a fresh value.
void DoPut(OpContext* ctx, spitz::VerifiedKv* kv, uint64_t index,
           uint64_t seed) {
  ThreadStats* stats = ctx->stats;
  stats->attempted[kPut]++;
  const uint64_t tag = ++*ctx->next_tag;
  const std::string key = KeyOf(index);
  const std::string value = ValueOf(index, tag, seed);
  Status s;
  uint64_t elapsed = 0;
  {
    SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kPut, 0);
    SpanScope call(ctx->Tracing(), ctx->next_span, kSpanWriteCall, kPut,
                   op.id());
    const uint64_t start = NowNs();
    s = kv->Put(WriteOptions(), key, value);
    elapsed = NowNs() - start;
  }
  stats->writes.push_back({index, tag, s.ok()});
  if (!s.ok()) return CountFailure(stats, kPut, s);
  stats->latency_ns[kPut].push_back(elapsed);
  stats->user_bytes += key.size() + value.size();
  stats->writes_acked++;
}

void ProbeDigestOn(OpContext* ctx, SpitzClient* client) {
  SpitzDigest digest;
  SpanScope probe(ctx->Tracing(), ctx->next_span, kSpanDigestRtt, kOpCount, 0);
  client->Digest(&digest);
  ctx->stats->digest_probes++;
}

std::string Mib(uint64_t bytes) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.1f MiB", static_cast<double>(bytes) / kMiB);
  return buf;
}

// ============================================================================
// read-hot: one server, a working set that fits the cache, mostly reads.
// ============================================================================

class ReadHot : public Workload {
 public:
  static constexpr uint64_t kRecords = 100'000;

  ReadHot(const std::string& work_dir, uint64_t seed)
      : dir_(work_dir + "/read-hot"), seed_(seed), zipf_(kRecords, kZipfTheta) {}
  ~ReadHot() override { Teardown(); }

  const char* name() const override { return "read-hot"; }
  const char* why() const override {
    return "verified-read path (dispatch, processor pool, index read, proof "
           "build, client verify) with almost no commit, fsync or replica work";
  }
  std::vector<std::string> Describe() const override {
    return {"deployment: 1 durable SpitzServer (sync_writes: every put fsynced "
            "before its ack)",
            "dataset: " + std::to_string(kRecords) +
                " records x (16 B key + 100 B value), bulk-loaded; " +
                Mib(disk_bytes_) + " on disk vs " +
                Mib(spitz::BufferCache::kDefaultCapacityBytes) +
                " buffer cache (fits)",
            "clients: 2 threads, 2 connections, closed loop",
            "mix: zipfian(0.99) keys; 50% get / 45% verified get / 5% put"};
  }

  Status Setup() override {
    ResetDir(dir_);
    SpitzOptions options;
    options.sync_writes = true;
    Status s = OpenLoaded(options, dir_ + "/db", kRecords,
                          [](const std::string&) { return true; }, &db_,
                          &loaded_bytes_);
    if (s.ok()) disk_bytes_ = DirBytes(dir_);
    if (s.ok()) s = ServeDb(db_.get(), nullptr, &server_);
    for (size_t i = 0; s.ok() && i < kClientThreads; i++) {
      clients_.emplace_back();
      s = Connect(server_->port(), &clients_.back());
    }
    return s;
  }

  void Teardown() override {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void RunOp(OpContext* ctx) override {
    SpitzClient* client = clients_[ctx->thread].get();
    const uint64_t dice = ctx->rng->Uniform(100);
    const uint64_t index = zipf_.Next(ctx->rng);
    if (dice < 50) {
      SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kGet, 0);
      DoGet(ctx, client, index, op.id());
    } else if (dice < 95) {
      DoVerifiedGet(ctx, client, index);
    } else {
      DoPut(ctx, client, index, seed_);
    }
  }

  void ProbeDigest(OpContext* ctx) override {
    ProbeDigestOn(ctx, clients_[ctx->thread].get());
  }

  MetricsSnapshot Snapshot() const override {
    MetricsSnapshot snap;
    Accumulate(&snap, db_->Metrics());
    Accumulate(&snap, server_->Metrics());
    return snap;
  }

  void Finish(const ThreadStats& /*acked*/, FinishReport* report) override {
    Status s = db_->DrainAudits();
    if (!s.ok()) report->violations.push_back("server audit: " + s.ToString());
    report->storage_bytes = DirBytes(dir_ + "/db");
  }

  uint64_t loaded_user_bytes() const override { return loaded_bytes_; }

 private:
  std::string dir_;
  uint64_t seed_;
  Zipfian zipf_;
  uint64_t loaded_bytes_ = 0;
  uint64_t disk_bytes_ = 0;
  std::unique_ptr<SpitzDb> db_;
  std::unique_ptr<SpitzServer> server_;
  std::vector<std::unique_ptr<SpitzClient>> clients_;
};

// ============================================================================
// write-replicated-cold: a replicated primary, a dataset several times
// the cache, mostly durable writes.
// ============================================================================

class WriteReplicatedCold : public Workload {
 public:
  static constexpr uint64_t kRecords = 200'000;
  static constexpr size_t kCacheBytes = 8 * kMiB;
  static constexpr uint64_t kDrainTimeoutMs = 60'000;
  // Acknowledged keys re-read after the reopen.
  static constexpr size_t kReopenSample = 500;

  WriteReplicatedCold(const std::string& work_dir, uint64_t seed)
      : dir_(work_dir + "/write-replicated-cold"), seed_(seed) {}
  ~WriteReplicatedCold() override { Teardown(); }

  const char* name() const override { return "write-replicated-cold"; }
  const char* why() const override {
    return "group commit, seal hashing, journal fsync, chunk append, cache "
           "misses and replication ship/apply/ack, with request dispatch a "
           "small share";
  }
  std::vector<std::string> Describe() const override {
    return {"deployment: durable primary SpitzServer streaming to a durable "
            "BackupReplica through a Replicator (sync_writes on the primary, "
            "sync_applies on the backup)",
            "dataset: " + std::to_string(kRecords) +
                " records x (16 B key + 100 B value), bulk-loaded; " +
                Mib(disk_bytes_) + " on disk vs " + Mib(kCacheBytes) +
                " buffer cache per database (does not fit)",
            "backup seeded from a copy of the bulk-loaded primary's data "
            "directory, then caught up by the replication stream",
            "gc: off (a lagging backup pins too many versions for it)",
            "clients: 2 threads, 2 connections, closed loop",
            "mix: uniform keys; 80% put / 20% verified get"};
  }

  Status Setup() override {
    ResetDir(dir_);
    Status s = OpenLoaded(Options(), dir_ + "/primary", kRecords,
                          [](const std::string&) { return true; }, &primary_,
                          &loaded_bytes_);
    if (s.ok()) disk_bytes_ = DirBytes(dir_ + "/primary");
    // A bulk-loaded ledger cannot be streamed block by block (every
    // bulk block records the final root), so the backup starts from a
    // file copy of the synced primary — the replicator's own recipe for
    // re-seeding — and the stream takes it from there.
    if (s.ok()) {
      std::error_code ec;
      fs::copy(dir_ + "/primary", dir_ + "/backup", fs::copy_options::recursive,
               ec);
      if (ec) s = Status::IOError("seed backup: " + ec.message());
    }
    if (s.ok()) {
      SpitzOptions options = Options();
      options.data_dir = dir_ + "/backup";
      s = SpitzDb::Open(options, &backup_db_);
    }
    if (s.ok()) {
      spitz::BackupReplica::Options options;
      options.db = backup_db_.get();
      s = spitz::BackupReplica::Open(options, &backup_);
    }
    if (s.ok()) s = ServeDb(backup_db_.get(), backup_.get(), &backup_server_);
    if (s.ok()) s = ServeDb(primary_.get(), nullptr, &server_);
    if (s.ok()) {
      spitz::Replicator::Options options;
      options.db = primary_.get();
      options.backup.port = backup_server_->port();
      s = spitz::Replicator::Open(options, &replicator_);
    }
    if (s.ok()) s = replicator_->WaitDrained(kDrainTimeoutMs);
    for (size_t i = 0; s.ok() && i < kClientThreads; i++) {
      clients_.emplace_back();
      s = Connect(server_->port(), &clients_.back());
    }
    return s;
  }

  void Teardown() override {
    StopServing();
    backup_db_.reset();
    primary_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void RunOp(OpContext* ctx) override {
    SpitzClient* client = clients_[ctx->thread].get();
    const uint64_t dice = ctx->rng->Uniform(100);
    const uint64_t index = ctx->rng->Uniform(kRecords);
    if (dice < 80) {
      DoPut(ctx, client, index, seed_);
    } else {
      DoVerifiedGet(ctx, client, index);
    }
  }

  void ProbeDigest(OpContext* ctx) override {
    ProbeDigestOn(ctx, clients_[ctx->thread].get());
  }

  MetricsSnapshot Snapshot() const override {
    MetricsSnapshot snap;
    Accumulate(&snap, primary_->Metrics());
    Accumulate(&snap, server_->Metrics());
    Accumulate(&snap, replicator_->Metrics());
    Accumulate(&snap, backup_->Metrics());
    return snap;
  }

  void Finish(const ThreadStats& acked, FinishReport* report) override {
    auto violation = [&](const std::string& what) {
      report->violations.push_back(what);
    };
    // Drain: the backup must ack every sealed block and agree.
    const uint64_t drain_start = NowNs();
    Status s = primary_->FlushBlock();
    if (s.ok()) s = replicator_->WaitDrained(kDrainTimeoutMs);
    report->replica_drain_s = static_cast<double>(NowNs() - drain_start) / 1e9;
    if (!s.ok()) violation("backup did not drain: " + s.ToString());
    Status fault = replicator_->ReplicationFault();
    if (!fault.ok()) violation("replication fault: " + fault.ToString());
    const MetricsSnapshot primary_side = replicator_->Metrics();
    const uint64_t mismatches =
        primary_side.CounterValue("replica.primary.digest_mismatches") +
        backup_->digest_mismatches();
    if (mismatches != 0) {
      violation(std::to_string(mismatches) + " replica digest mismatches");
    }
    const SpitzDigest primary_digest = primary_->Digest();
    if (!SameState(primary_digest, backup_db_->Digest())) {
      violation("backup digest differs from the primary's after the drain");
    }
    s = primary_->DrainAudits();
    if (!s.ok()) violation("server audit: " + s.ToString());
    report->storage_bytes = DirBytes(dir_ + "/primary");
    report->backup_storage_bytes = DirBytes(dir_ + "/backup");

    // Reopen the primary from its data directory.
    StopServing();
    const SpitzDigest before = primary_->Digest();
    primary_.reset();
    SpitzOptions options = Options();
    options.data_dir = dir_ + "/primary";
    s = SpitzDb::Open(options, &primary_);
    if (!s.ok()) return violation("reopen primary: " + s.ToString());
    const SpitzDigest after = primary_->Digest();
    if (!SameState(before, after)) {
      violation("reopened primary's digest differs from the one before close");
    }
    CheckAcknowledged(acked, after, report);
  }

  uint64_t loaded_user_bytes() const override { return loaded_bytes_; }

 private:
  // Background GC stays off. The replicator rebuilds every block it
  // ships from that block's index root, so GC would have to retain more
  // versions than the backup's backlog (~10k blocks after a 20 s
  // window); at that retention a pass reclaims almost nothing, yet
  // rewrites every segment holding one dead chunk (~100 MB a pass, in
  // trial runs), which cost about 40% of the throughput and made it
  // swing with pass timing.
  static SpitzOptions Options() {
    SpitzOptions options;
    options.sync_writes = true;
    options.buffer_cache_bytes = kCacheBytes;
    return options;
  }

  void StopServing() {
    clients_.clear();
    if (replicator_ != nullptr) replicator_->Stop();
    if (server_ != nullptr) server_->Shutdown();
    if (backup_server_ != nullptr) backup_server_->Shutdown();
    replicator_.reset();
    server_.reset();
    backup_server_.reset();
    backup_.reset();
  }

  // Keys with exactly one put attempted in the run must, after the
  // reopen, hold that acknowledged value under a proof that verifies.
  void CheckAcknowledged(const ThreadStats& acked, const SpitzDigest& digest,
                         FinishReport* report) {
    std::unordered_map<uint64_t, int> attempts;
    for (const ThreadStats::Write& w : acked.writes) attempts[w.index]++;
    size_t checked = 0;
    size_t bad = 0;
    for (auto it = acked.writes.rbegin();
         it != acked.writes.rend() && checked < kReopenSample; ++it) {
      if (!it->acked || attempts[it->index] != 1) continue;
      checked++;
      const std::string key = KeyOf(it->index);
      std::string value;
      ReadProof proof;
      Status s = primary_->GetWithProof(key, &value, &proof);
      if (s.ok()) {
        s = SpitzDb::VerifyRead(digest, key, std::optional<std::string>(value),
                                proof);
      }
      if (!s.ok() || value != ValueOf(it->index, it->tag, seed_)) bad++;
    }
    report->notes.push_back("reopen check: digest compared; " +
                            std::to_string(checked) +
                            " acknowledged keys re-read with verified proofs, " +
                            std::to_string(bad) + " bad");
    if (checked == 0) {
      report->violations.push_back("reopen check found no acknowledged key");
    }
    if (bad != 0) {
      report->violations.push_back(std::to_string(bad) +
                                   " acknowledged writes lost or unverifiable "
                                   "after reopen");
    }
  }

  std::string dir_;
  uint64_t seed_;
  uint64_t loaded_bytes_ = 0;
  uint64_t disk_bytes_ = 0;
  std::unique_ptr<SpitzDb> primary_;
  std::unique_ptr<SpitzDb> backup_db_;
  std::unique_ptr<spitz::BackupReplica> backup_;
  std::unique_ptr<SpitzServer> backup_server_;
  std::unique_ptr<SpitzServer> server_;
  std::unique_ptr<spitz::Replicator> replicator_;
  std::vector<std::unique_ptr<SpitzClient>> clients_;
};

// ============================================================================
// cluster-scan-txn: three shards behind one shared ClusterClient.
// ============================================================================

class ClusterScanTxn : public Workload {
 public:
  static constexpr uint64_t kRecords = 100'000;
  static constexpr size_t kShards = 3;
  static constexpr uint64_t kMaxScanRows = 100;

  ClusterScanTxn(const std::string& work_dir, uint64_t seed)
      : dir_(work_dir + "/cluster-scan-txn"),
        seed_(seed),
        zipf_(kRecords, kZipfTheta),
        writer_zipf_(kRecords / 2, kZipfTheta) {}
  ~ClusterScanTxn() override { Teardown(); }

  const char* name() const override { return "cluster-scan-txn"; }
  const char* why() const override {
    return "cluster digest fetch, per-shard range proofs and their merge, "
           "coordinator 1PC/2PC, txn.log and prepared-lock conflicts; no "
           "replication";
  }
  std::vector<std::string> Describe() const override {
    return {"deployment: 3 durable SpitzServer shards (sync_writes), no "
            "backups; one shared ClusterClient",
            "dataset: " + std::to_string(kRecords) +
                " records x (16 B key + 100 B value), each shard bulk-loaded "
                "with its partition; " +
                Mib(disk_bytes_) + " on disk vs " +
                Mib(spitz::BufferCache::kDefaultCapacityBytes) +
                " buffer cache per shard (fits)",
            "clients: 2 threads sharing one ClusterClient (3 connections), "
            "closed loop",
            "mix: zipfian(0.99) keys; 40% verified scan of 1-100 rows / 30% "
            "verified get / 30% read-modify-write (2 plain gets + a two-key "
            "Write, 2PC when the keys land on different shards; each thread "
            "writes only its own half of the keys)"};
  }

  Status Setup() override {
    ResetDir(dir_);
    Status s;
    loaded_bytes_ = 0;
    for (size_t i = 0; s.ok() && i < kShards; i++) {
      SpitzOptions options;
      options.sync_writes = true;
      uint64_t bytes = 0;
      dbs_.emplace_back();
      s = OpenLoaded(
          options, ShardDir(i), kRecords,
          [i](const std::string& key) {
            return spitz::PartitionOf(key, kShards) == i;
          },
          &dbs_.back(), &bytes);
      loaded_bytes_ += bytes;
      if (s.ok()) {
        servers_.emplace_back();
        s = ServeDb(dbs_.back().get(), nullptr, &servers_.back());
      }
    }
    if (s.ok()) disk_bytes_ = DirBytes(dir_);
    if (s.ok()) {
      ClusterClient::Options options;
      for (const auto& server : servers_) {
        spitz::NetClient::Options shard;
        shard.port = server->port();
        options.shards.push_back(shard);
      }
      s = ClusterClient::Open(options, &cluster_);
    }
    return s;
  }

  void Teardown() override {
    cluster_.reset();
    for (auto& server : servers_) server->Shutdown();
    servers_.clear();
    dbs_.clear();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void RunOp(OpContext* ctx) override {
    const uint64_t dice = ctx->rng->Uniform(100);
    const uint64_t index = zipf_.Next(ctx->rng);
    if (dice < 40) {
      VerifiedScan(ctx, index, 1 + ctx->rng->Uniform(kMaxScanRows));
    } else if (dice < 70) {
      VerifiedGet(ctx, index);
    } else {
      // Each client thread rewrites only its own half of the keys
      // (index parity), so the two never conflict on a prepared lock
      // and a Busy refusal is never expected.
      const uint64_t a = WriterKey(ctx);
      uint64_t b = WriterKey(ctx);
      while (b == a) b = WriterKey(ctx);
      ReadModifyWrite(ctx, a, b);
    }
  }

  void ProbeDigest(OpContext* ctx) override {
    ProbeDigestOn(ctx, cluster_->shard(0));
  }

  MetricsSnapshot Snapshot() const override {
    MetricsSnapshot snap;
    for (const auto& db : dbs_) Accumulate(&snap, db->Metrics());
    for (const auto& server : servers_) Accumulate(&snap, server->Metrics());
    Accumulate(&snap, cluster_->coordinator()->Metrics());
    return snap;
  }

  void Finish(const ThreadStats& /*acked*/, FinishReport* report) override {
    for (size_t i = 0; i < kShards; i++) {
      const std::string shard = "shard " + std::to_string(i) + ": ";
      Status s = dbs_[i]->DrainAudits();
      if (!s.ok()) report->violations.push_back(shard + "audit: " + s.ToString());
      std::vector<uint64_t> in_doubt;
      s = dbs_[i]->InDoubtTxns(&in_doubt);
      if (!s.ok() || !in_doubt.empty()) {
        report->violations.push_back(
            shard + std::to_string(in_doubt.size()) +
            " transactions left prepared after the run " + s.ToString());
      }
      report->storage_bytes += DirBytes(ShardDir(i));
    }
  }

  uint64_t loaded_user_bytes() const override { return loaded_bytes_; }

 private:
  uint64_t WriterKey(OpContext* ctx) const {
    return 2 * writer_zipf_.Next(ctx->rng) + ctx->thread % 2;
  }

  std::string ShardDir(size_t i) const {
    return dir_ + "/shard" + std::to_string(i);
  }

  // GetClusterDigest -> the owning shard's proof pinned at its digest
  // root -> local verification against that shard digest.
  void VerifiedGet(OpContext* ctx, uint64_t index) {
    ThreadStats* stats = ctx->stats;
    stats->attempted[kVerifiedGet]++;
    const std::string key = KeyOf(index);
    ClusterDigest digest;
    std::optional<std::string> found;
    ReadProof proof;
    size_t shard = 0;
    Status fetched;
    Status verdict;
    uint64_t elapsed = 0;
    {
      SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kVerifiedGet, 0);
      const uint64_t start = NowNs();
      {
        SpanScope call(ctx->Tracing(), ctx->next_span, kSpanClusterDigest,
                       kVerifiedGet, op.id());
        fetched = cluster_->GetClusterDigest(&digest);
      }
      if (!fetched.ok()) return CountFailure(stats, kVerifiedGet, fetched);
      shard = spitz::PartitionOf(key, kShards);
      {
        SpanScope call(ctx->Tracing(), ctx->next_span, kSpanGetProofCall,
                       kVerifiedGet, op.id());
        fetched = cluster_->shard(shard)->GetProofAt(
            digest.shards[shard].index_root, key, &found, &proof);
      }
      if (!fetched.ok() && !fetched.IsNotFound()) {
        return CountFailure(stats, kVerifiedGet, fetched);
      }
      {
        SpanScope verify(ctx->Tracing(), ctx->next_span, kSpanVerifyRead,
                         kVerifiedGet, op.id());
        verdict = SpitzDb::VerifyRead(digest.shards[shard], key, found, proof);
      }
      elapsed = NowNs() - start;
    }
    if (!verdict.ok()) {
      return CountProofFailure(
          stats, kVerifiedGet,
          proof.index_root == digest.shards[shard].index_root);
    }
    if (!found.has_value() || !ValueBelongsTo(*found, index)) {
      return CountWrongValue(stats, kVerifiedGet);
    }
    stats->latency_ns[kVerifiedGet].push_back(elapsed);
    std::string bytes;
    proof.EncodeTo(&bytes);
    stats->proof_bytes += bytes.size();
    stats->proven_reads++;
  }

  // GetClusterDigest -> every shard's range proof at its pinned root ->
  // per-shard verification -> k-way merge. The merged rows must be
  // exactly the keys index .. index+rows-1.
  void VerifiedScan(OpContext* ctx, uint64_t index, uint64_t rows) {
    ThreadStats* stats = ctx->stats;
    stats->attempted[kVerifiedScan]++;
    const std::string start_key = KeyOf(index);
    const std::string end_key = KeyOf(index + rows);
    ClusterDigest digest;
    std::vector<std::vector<PosEntry>> per_shard(kShards);
    std::vector<spitz::ScanProof> proofs(kShards);
    uint64_t elapsed = 0;
    {
      SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kVerifiedScan, 0);
      const uint64_t start = NowNs();
      Status s;
      {
        SpanScope call(ctx->Tracing(), ctx->next_span, kSpanClusterDigest,
                       kVerifiedScan, op.id());
        s = cluster_->GetClusterDigest(&digest);
      }
      if (!s.ok()) return CountFailure(stats, kVerifiedScan, s);
      for (size_t i = 0; i < kShards; i++) {
        {
          SpanScope call(ctx->Tracing(), ctx->next_span, kSpanScanProofCall,
                         kVerifiedScan, op.id());
          s = cluster_->shard(i)->ScanProofAt(digest.shards[i].index_root,
                                              start_key, end_key, rows,
                                              &per_shard[i], &proofs[i]);
        }
        if (!s.ok()) return CountFailure(stats, kVerifiedScan, s);
        SpanScope verify(ctx->Tracing(), ctx->next_span, kSpanVerifyScan,
                         kVerifiedScan, op.id());
        s = SpitzDb::VerifyScan(digest.shards[i], start_key, end_key, rows,
                                per_shard[i], proofs[i]);
        if (!s.ok()) {
          return CountProofFailure(
              stats, kVerifiedScan,
              proofs[i].index_root == digest.shards[i].index_root);
        }
      }
      elapsed = NowNs() - start;
    }
    std::vector<PosEntry> merged;
    spitz::MergeShardRows(std::move(per_shard), rows, &merged);
    const uint64_t expected = std::min<uint64_t>(rows, kRecords - index);
    bool right = merged.size() == expected;
    for (uint64_t r = 0; right && r < merged.size(); r++) {
      right = merged[r].key == KeyOf(index + r) &&
              ValueBelongsTo(merged[r].value, index + r);
    }
    if (!right) return CountWrongValue(stats, kVerifiedScan);
    stats->latency_ns[kVerifiedScan].push_back(elapsed);
    for (const spitz::ScanProof& proof : proofs) {
      std::string bytes;
      proof.EncodeTo(&bytes);
      stats->proof_bytes += bytes.size();
    }
    stats->proven_reads++;
  }

  // Two plain gets, then both keys rewritten in one atomic Write. The
  // txn latency is the Write alone.
  void ReadModifyWrite(OpContext* ctx, uint64_t a, uint64_t b) {
    ThreadStats* stats = ctx->stats;
    SpanScope op(ctx->Tracing(), ctx->next_span, kSpanOp, kTxn, 0);
    const uint64_t failed_before = stats->Failed();
    DoGet(ctx, cluster_.get(), a, op.id());
    DoGet(ctx, cluster_.get(), b, op.id());
    if (stats->Failed() != failed_before) return;
    stats->attempted[kTxn]++;
    const uint64_t tag_a = ++*ctx->next_tag;
    const uint64_t tag_b = ++*ctx->next_tag;
    WriteBatch batch;
    const std::string key_a = KeyOf(a);
    const std::string key_b = KeyOf(b);
    const std::string value_a = ValueOf(a, tag_a, seed_);
    const std::string value_b = ValueOf(b, tag_b, seed_);
    batch.Put(key_a, value_a);
    batch.Put(key_b, value_b);
    Status s;
    uint64_t elapsed = 0;
    {
      SpanScope call(ctx->Tracing(), ctx->next_span, kSpanWriteCall, kTxn,
                     op.id());
      const uint64_t start = NowNs();
      s = cluster_->Write(WriteOptions(), batch);
      elapsed = NowNs() - start;
    }
    if (!s.ok()) return CountFailure(stats, kTxn, s);
    stats->latency_ns[kTxn].push_back(elapsed);
    stats->user_bytes +=
        key_a.size() + value_a.size() + key_b.size() + value_b.size();
    stats->writes_acked++;
  }

  std::string dir_;
  uint64_t seed_;
  Zipfian zipf_;
  Zipfian writer_zipf_;  // over one thread's half of the keys
  uint64_t loaded_bytes_ = 0;
  uint64_t disk_bytes_ = 0;
  std::vector<std::unique_ptr<SpitzDb>> dbs_;
  std::vector<std::unique_ptr<SpitzServer>> servers_;
  std::unique_ptr<ClusterClient> cluster_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"read-hot", "write-replicated-cold", "cluster-scan-txn"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir,
                                       uint64_t seed) {
  if (name == "read-hot") return std::make_unique<ReadHot>(work_dir, seed);
  if (name == "write-replicated-cold") {
    return std::make_unique<WriteReplicatedCold>(work_dir, seed);
  }
  if (name == "cluster-scan-txn") {
    return std::make_unique<ClusterScanTxn>(work_dir, seed);
  }
  return nullptr;
}

}  // namespace perfbench

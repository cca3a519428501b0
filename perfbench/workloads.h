// The benchmark's three workloads. Each owns its deployment (durable
// databases, servers, replication, clients) and its op mix; main.cc
// times set-up, runs the closed-loop client threads and reports.

#ifndef SPITZ_PERFBENCH_WORKLOADS_H_
#define SPITZ_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "harness.h"

namespace perfbench {

// Closed-loop client threads per workload. On a 4-core machine, 30 s
// windows at 2 clients repeated within 5%; at 4 clients the same
// workload spread over 30%.
constexpr size_t kClientThreads = 2;

// Per-call state a client thread hands its workload.
struct OpContext {
  size_t thread = 0;
  Rng* rng = nullptr;
  ThreadStats* stats = nullptr;
  bool trace = false;          // record spans into stats->spans
  uint64_t* next_span = nullptr;
  uint64_t* next_tag = nullptr;  // writer tag sequence of this thread
  ThreadStats* Tracing() const { return trace ? stats : nullptr; }
};

// What a workload learns after the measured windows.
struct FinishReport {
  std::optional<double> replica_drain_s;  // replicated workload only
  uint64_t storage_bytes = 0;  // data directories of the served databases
  uint64_t backup_storage_bytes = 0;
  // Correctness-gate violations; any entry fails the run.
  std::vector<std::string> violations;
  // Extra human-readable lines (reopen check, digest agreement, ...).
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual const char* why() const = 0;
  // Deployment facts for the self-describing header.
  virtual std::vector<std::string> Describe() const = 0;

  // One complete set-up: open the durable databases, bulk-load, start
  // servers, catch up any backup, connect clients.
  virtual spitz::Status Setup() = 0;
  // Undoes Setup() and deletes its data directories (main.cc sets up
  // several times to take a median set-up time).
  virtual void Teardown() = 0;

  // One closed-loop client operation of the mix.
  virtual void RunOp(OpContext* ctx) = 0;
  // Traced run only: one SpitzClient::Digest round trip.
  virtual void ProbeDigest(OpContext* ctx) = 0;

  // Summed registries of the client-facing databases and servers, plus
  // replication and cluster coordinator metrics.
  virtual spitz::MetricsSnapshot Snapshot() const = 0;

  // After the measured windows: drain replication, run the
  // correctness checks, measure storage. `acked` holds every thread's
  // stats so acknowledged writes can be re-read.
  virtual void Finish(const ThreadStats& acked, FinishReport* report) = 0;

  // Key+value bytes the bulk load wrote.
  virtual uint64_t loaded_user_bytes() const = 0;
};

// Names: "read-hot", "write-replicated-cold", "cluster-scan-txn".
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir,
                                       uint64_t seed);
std::vector<std::string> WorkloadNames();

// Sums counters and gauges and merges histograms (MetricsSnapshot's
// own MergeFrom overwrites counters, which would drop all but one
// shard's).
void Accumulate(spitz::MetricsSnapshot* into,
                const spitz::MetricsSnapshot& from);

}  // namespace perfbench

#endif  // SPITZ_PERFBENCH_WORKLOADS_H_

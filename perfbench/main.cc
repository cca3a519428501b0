// Spitz end-to-end benchmark: one closed-loop workload over loopback
// TCP, run as
//
//   spitz_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>]
//
// Untraced (--trace 0) it sets up the deployment three times (median
// set-up time), warms up, measures one window of --seconds and prints the
// end-to-end metrics. Traced (--trace 1) it splits the window into an
// untraced half and a traced half (spans around the benchmark's own
// calls, registry deltas) and prints the per-layer metrics, the tracing
// overhead and the spans file. Latency percentiles are exact, from
// every sample of the window. Exits 1 on any correctness violation, 2
// on bad arguments or a failed set-up. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <utility>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "crypto/hash.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spitz::HistogramSnapshot;
using spitz::MetricsSnapshot;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 2;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = atof(value);
    } else if (flag == "--trace") {
      args->trace = atoi(value) != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// --- Reported metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count, source, what it moves
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    printf("  %-44s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
           m.note.c_str());
  }
}

// Every end-to-end metric the benchmark defines, with its unit.
const char* const kEndToEnd[][2] = {
    {"throughput_ops_s", "1/s"},
    {"get_p50_us", "us"},
    {"get_p99_us", "us"},
    {"verified_get_p50_us", "us"},
    {"verified_get_p99_us", "us"},
    {"put_p50_us", "us"},
    {"put_p99_us", "us"},
    {"txn_p50_us", "us"},
    {"verified_scan_p50_us", "us"},
    {"verified_scan_p99_us", "us"},
    {"failed_op_share", "ratio"},
    {"proof_bytes_per_verified_read", "B"},
    {"storage_bytes_per_user_byte", "B/B"},
    {"replica_drain_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"}};

const Metric* Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// The end-to-end metrics a workload cannot report because its mix has
// no such op (or it has no backup).
void PrintNotInMix(const std::vector<Metric>& e2e) {
  for (const auto& [name, unit] : kEndToEnd) {
    if (Find(e2e, name) == nullptr) {
      printf("  %-44s %14s %-6s not in this workload\n", name, "n/a", unit);
    }
  }
}

std::string JsonResult(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = Fmt("{\"correct\": %s, \"attempted\": %" PRIu64
                        ", \"failed\": %" PRIu64 ", \"metrics\": {",
                        correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    out += Fmt("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
               i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
               metrics[i].unit.c_str());
  }
  return out + "}}";
}

// --- One measured window ----------------------------------------------------------

struct Window {
  double seconds = 0;
  std::vector<double> steal_per_second;  // host CPU steal share
  ThreadStats stats;
  MetricsSnapshot delta;  // registry growth over the traced window
};

double Micros(double ns) { return ns / 1000.0; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Exact end-to-end metrics of one window. Ops absent from the
// workload's mix are left out.
std::vector<Metric> EndToEnd(Window* w) {
  std::vector<Metric> out;
  ThreadStats& s = w->stats;
  const uint64_t completed = s.Attempted() - s.Failed();
  // Mean of the per-second completion counts over the quieter half of
  // the window's whole seconds, ranked by host CPU steal: on a shared
  // virtual machine a second in which the hypervisor ran someone else
  // measures the neighbours, not Spitz. (A median would flip between the
  // fast and the stalled seconds of a write-heavy workload.) The mean
  // over all seconds is printed beside it.
  const size_t seconds = std::min({s.completed_per_second.size(),
                                   w->steal_per_second.size(),
                                   static_cast<size_t>(w->seconds)});
  std::vector<size_t> order(seconds);
  std::iota(order.begin(), order.end(), 0);
  // Ties (common: steal is counted in 1/100 s ticks) go to even seconds
  // first, so a calm window's quieter half spans the whole window.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const std::vector<double>& steal = w->steal_per_second;
    return std::make_tuple(steal[a], a % 2, a) <
           std::make_tuple(steal[b], b % 2, b);
  });
  order.resize((seconds + 1) / 2);
  double quiet = 0;
  for (size_t i : order) quiet += s.completed_per_second[i];
  out.push_back({"throughput_ops_s", Ratio(quiet, order.size()), "1/s",
                 Fmt("mean of the %zu lowest-steal of %zu whole seconds; "
                     "all seconds %.1f (%" PRIu64 " ops in %.1f s)",
                     order.size(), seconds, completed / w->seconds, completed,
                     w->seconds)});
  struct Row {
    Op op;
    const char* name;
    bool p99;
  };
  const Row rows[] = {{kGet, "get", true},
                      {kVerifiedGet, "verified_get", true},
                      {kPut, "put", true},
                      {kTxn, "txn", false},
                      {kVerifiedScan, "verified_scan", true}};
  for (const Row& row : rows) {
    std::vector<uint64_t>& samples = s.latency_ns[row.op];
    if (samples.empty()) continue;
    const size_t n = samples.size();
    const std::string count = Fmt("exact, n=%zu", n);
    out.push_back({Fmt("%s_p50_us", row.name),
                   Micros(Percentile(&samples, 0.50)), "us", count});
    if (row.p99) {
      out.push_back({Fmt("%s_p99_us", row.name),
                     Micros(Percentile(&samples, 0.99)), "us",
                     count + Fmt(", %zu beyond", n / 100)});
    }
  }
  const uint64_t attempted = s.Attempted();
  out.push_back(
      {"failed_op_share",
       attempted == 0 ? 0.0 : static_cast<double>(s.Failed()) / attempted,
       "ratio",
       Fmt("%" PRIu64 "/%" PRIu64 " (busy %" PRIu64 ", timeout %" PRIu64
           ", stale pair %" PRIu64 ", proof %" PRIu64 ", wrong value %" PRIu64
           ", other %" PRIu64 ")",
           s.Failed(), attempted, s.busy, s.timeouts, s.stale_pairs,
           s.proof_failures, s.wrong_values, s.errors)});
  if (s.proven_reads > 0) {
    out.push_back({"proof_bytes_per_verified_read",
                   static_cast<double>(s.proof_bytes) / s.proven_reads, "B",
                   Fmt("mean over %" PRIu64 " verified reads", s.proven_reads)});
  }
  return out;
}

// --- Per-layer metrics --------------------------------------------------------------

const HistogramSnapshot* Hist(const MetricsSnapshot& m, const std::string& name) {
  const HistogramSnapshot* h = m.FindHistogram(name);
  return h != nullptr && h->count > 0 ? h : nullptr;
}

// p50 of a registry histogram, in microseconds: a log2-bucket estimate.
Metric HistP50Us(const MetricsSnapshot& m, const std::string& metric,
                 const std::string& histogram, const std::string& moves) {
  const HistogramSnapshot* h = Hist(m, histogram);
  return {metric, h ? Micros(h->p50()) : 0.0, "us",
          Fmt("log2-bucket est., n=%" PRIu64 "; %s", h ? h->count : 0,
              moves.c_str())};
}

double Mean(const MetricsSnapshot& m, const std::string& histogram) {
  const HistogramSnapshot* h = Hist(m, histogram);
  return h ? static_cast<double>(h->sum) / h->count : 0.0;
}

// Durations of spans by name (and by op for the root span), and root
// self time: the op span minus the time its children cover.
struct SpanTable {
  std::map<std::string, std::vector<uint64_t>> durations;

  explicit SpanTable(const std::vector<Span>& spans) {
    std::unordered_map<uint64_t, uint64_t> child_ns;
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const Span& s : spans) {
      const uint64_t d = s.end_ns - s.start_ns;
      if (s.name == kSpanOp) {
        const std::string op = kOpNames[s.op];
        durations["op." + op].push_back(d);
        const uint64_t children = child_ns[s.id];
        durations["self." + op].push_back(d > children ? d - children : 0);
      } else {
        durations[kSpanNames[s.name]].push_back(d);
        if (s.op < kOpCount) {
          durations[std::string(kSpanNames[s.name]) + "." + kOpNames[s.op]]
              .push_back(d);
        }
      }
    }
  }

  double P50Us(const std::string& name) {
    auto it = durations.find(name);
    return it == durations.end() ? 0.0 : Micros(Percentile(&it->second, 0.5));
  }
  size_t Count(const std::string& name) const {
    auto it = durations.find(name);
    return it == durations.end() ? 0 : it->second.size();
  }
  Metric Exact(const std::string& metric, const std::string& span,
               const std::string& moves) {
    return {metric, P50Us(span), "us",
            Fmt("exact span, n=%zu; %s", Count(span), moves.c_str())};
  }
};

volatile uint8_t hash_sink = 0;

struct CryptoTiming {
  double ns_64 = 0;
  double mbps_4k = 0;
};

// Public hash calls on fixed inputs: median of five batches each.
CryptoTiming TimeSha256() {
  CryptoTiming t;
  const std::string small(64, 'x');
  const std::string large(4096, 'y');
  std::vector<double> ns_64;
  std::vector<double> mbps;
  uint8_t sink = 0;
  for (int batch = 0; batch < 5; batch++) {
    constexpr int kSmall = 100'000;
    uint64_t start = NowNs();
    for (int i = 0; i < kSmall; i++) sink ^= spitz::Hash256::Of(small).data()[0];
    ns_64.push_back(static_cast<double>(NowNs() - start) / kSmall);
    constexpr int kLarge = 4'000;
    start = NowNs();
    for (int i = 0; i < kLarge; i++) sink ^= spitz::Hash256::Of(large).data()[0];
    const double secs = static_cast<double>(NowNs() - start) / 1e9;
    mbps.push_back(kLarge * 4096.0 / 1e6 / secs);
  }
  std::sort(ns_64.begin(), ns_64.end());
  std::sort(mbps.begin(), mbps.end());
  hash_sink = sink;  // keeps the timed hashes from being optimised away
  t.ns_64 = ns_64[2];
  t.mbps_4k = mbps[2];
  return t;
}

std::vector<Metric> PerLayer(Window* traced,
                             const std::vector<Metric>& untraced_e2e,
                             const std::vector<Metric>& traced_e2e,
                             const CryptoTiming& crypto) {
  const MetricsSnapshot& d = traced->delta;
  ThreadStats& s = traced->stats;
  SpanTable spans(s.spans);
  const double ops = static_cast<double>(s.Attempted());
  const double secs = traced->seconds;
  std::vector<Metric> out;
  auto counter = [&](const std::string& name) {
    return static_cast<double>(d.CounterValue(name));
  };
  auto count_metric = [&](const std::string& name, const std::string& moves) {
    out.push_back({name, counter(name), "count", "registry delta; " + moves});
  };

  // net
  out.push_back(spans.Exact("net.digest_rtt_p50_us", "net.digest_rtt",
                            "moves get_p50_us on read-hot"));
  out.push_back(spans.Exact("net.get_proof_call_p50_us",
                            "net.get_proof_call.verified_get",
                            "moves verified_get_p50_us on read-hot"));
  out.push_back(HistP50Us(d, "net.server.dispatch_p50_us",
                          "net.server.dispatch_latency_ns",
                          "all methods; moves verified_get_p50_us on read-hot"));
  out.push_back({"net.frames_per_op",
                 Ratio(counter("net.frames.rx") - s.digest_probes, ops), "frames",
                 "request frames per op (digest probes excluded); moves "
                 "throughput_ops_s"});
  count_metric("net.server.overloaded", "moves failed_op_share");

  // core
  out.push_back(HistP50Us(d, "core.processor.queue_wait_p50_us",
                          "core.processor.queue_wait_ns",
                          "moves get_p50_us on read-hot"));
  out.push_back(HistP50Us(d, "core.processor.handle_p50_us.get",
                          "core.processor.handle_latency_ns.get",
                          "moves get_p50_us on read-hot"));
  out.push_back(HistP50Us(d, "core.db.read_p50_us", "core.db.read_latency_ns",
                          "moves get_p50_us"));
  out.push_back(HistP50Us(d, "core.db.proof_build_p50_us",
                          "core.db.proof_build_latency_ns",
                          "moves verified_get_p50_us on read-hot"));
  out.push_back(spans.Exact("core.verify_read_p50_us", "core.verify_read",
                            "moves verified_get_p50_us on read-hot"));
  out.push_back(spans.Exact("core.verify_scan_p50_us", "core.verify_scan",
                            "per shard; moves verified_scan_p50_us on "
                            "cluster-scan-txn"));
  out.push_back(HistP50Us(d, "core.db.write_p50_us", "core.db.write_latency_ns",
                          "moves put_p50_us on write-replicated-cold"));
  out.push_back(HistP50Us(d, "core.db.seal_p50_us", "core.db.seal_latency_ns",
                          "moves put_p50_us on write-replicated-cold"));
  out.push_back({"core.db.commit.group_size_mean",
                 Mean(d, "core.db.commit.group_size"), "writes",
                 "exact mean; moves throughput_ops_s on write-replicated-cold"});
  out.push_back({"core.db.journal.fsyncs_per_put",
                 Ratio(counter("core.db.journal.fsyncs"),
                       static_cast<double>(s.writes_acked)),
                 "ratio",
                 Fmt("per acknowledged put or txn (%" PRIu64
                     "); moves put_p50_us on write-replicated-cold",
                     s.writes_acked)});
  count_metric("core.db.txn.prepare_conflicts",
               "moves failed_op_share on cluster-scan-txn");

  // crypto
  out.push_back({"crypto.sha256_ns_64B", crypto.ns_64, "ns",
                 "Hash256::Of, median of 5 batches; moves verified_get_p50_us "
                 "on read-hot"});
  out.push_back({"crypto.sha256_MBps_4KiB", crypto.mbps_4k, "MB/s",
                 "Hash256::Of, median of 5 batches; moves throughput_ops_s on "
                 "write-replicated-cold"});

  // index
  out.push_back({"index.cache.hit_rate",
                 Ratio(counter("index.cache.hits"),
                       counter("index.cache.hits") + counter("index.cache.misses")),
                 "ratio", "moves get_p50_us (~1 on read-hot)"});
  double proof_sum = 0;
  double proof_count = 0;
  for (const auto& [name, h] : d.histograms) {
    if (name.rfind("index.siri.proof_bytes.", 0) == 0) {
      proof_sum += h.sum;
      proof_count += h.count;
    }
  }
  out.push_back({"index.proof_bytes_mean", Ratio(proof_sum, proof_count), "B",
                 "server-side point proofs, exact mean; moves "
                 "proof_bytes_per_verified_read"});

  // chunk
  out.push_back({"cache.hit_rate",
                 Ratio(counter("cache.hits"),
                       counter("cache.hits") + counter("cache.misses")),
                 "ratio", "moves verified_get_p50_us on write-replicated-cold"});
  out.push_back({"cache.evictions_per_op", Ratio(counter("cache.evictions"), ops),
                 "ratio", "moves verified_get_p50_us on write-replicated-cold"});
  out.push_back({"chunk.file.reads_per_op",
                 Ratio(counter("chunk.file.reads"), ops), "ratio",
                 "moves verified_get_p50_us on write-replicated-cold"});
  out.push_back({"chunk.file.read_bytes_per_op",
                 Ratio(counter("chunk.file.read_bytes"), ops), "B",
                 "moves verified_get_p50_us on write-replicated-cold"});
  out.push_back({"chunk.file.appended_bytes_per_user_byte",
                 Ratio(counter("chunk.file.appended_bytes"),
                       static_cast<double>(s.user_bytes)),
                 "B/B", "moves storage_bytes_per_user_byte"});
  // Background GC is off in every workload (see write-replicated-cold);
  // these read 0 until a workload turns it on.
  count_metric("gc.runs", "moves storage_bytes_per_user_byte, put_p99_us");
  count_metric("gc.reclaimed_bytes", "moves storage_bytes_per_user_byte");
  count_metric("gc.rewritten_bytes", "moves put_p99_us");

  // cluster
  out.push_back(spans.Exact("cluster.digest_fetch_p50_us", "cluster.digest_fetch",
                            "moves verified_get/scan_p50_us on "
                            "cluster-scan-txn"));
  const double one_pc = counter("cluster.coordinator.commits_1pc");
  const double two_pc = counter("cluster.coordinator.commits_2pc");
  out.push_back({"cluster.coordinator.two_pc_share",
                 Ratio(two_pc, one_pc + two_pc), "ratio", "moves txn_p50_us"});
  count_metric("cluster.coordinator.aborts", "moves failed_op_share");
  count_metric("cluster.coordinator.commit_retries", "moves failed_op_share");

  // replica
  const HistogramSnapshot* lag = Hist(d, "replica.primary.lag_ns");
  const std::string lag_note =
      Fmt("log2-bucket est., n=%" PRIu64 "; moves replica_drain_s",
          lag ? lag->count : 0);
  out.push_back({"replica.primary.lag_p50_ms", lag ? lag->p50() / 1e6 : 0.0,
                 "ms", lag_note});
  out.push_back({"replica.primary.lag_p99_ms", lag ? lag->p99() / 1e6 : 0.0,
                 "ms", lag_note});
  out.push_back(HistP50Us(d, "replica.primary.ship_p50_us",
                          "replica.primary.ship_ns", "moves replica_drain_s"));
  out.push_back(HistP50Us(d, "replica.backup.apply_p50_us",
                          "replica.backup.apply_ns", "moves replica_drain_s"));
  // The lag histogram only times blocks whose seal time the replicator
  // still holds (its last 4096), so under a deeper backlog it goes
  // blind; the backlog gauge does not.
  out.push_back({"replica.primary.lag_blocks",
                 static_cast<double>(d.GaugeValue("replica.primary.lag_blocks")),
                 "blocks", "sealed but unacked at the end of the traced half; "
                 "moves replica_drain_s"});
  out.push_back({"replica.primary.batches_acked_per_s",
                 counter("replica.primary.batches_acked") / secs, "1/s",
                 "moves replica_drain_s, throughput_ops_s"});

  // What the spans and server stages do not explain of a verified get:
  // its exact p50 minus the server-side handling of its RPCs (log2
  // estimates) and the client verify span.
  double explained = spans.P50Us("core.verify_read");
  const char* proof_method = spans.Count("cluster.digest_fetch.verified_get")
                                 ? "net.server.method_latency_ns.get_proof_at"
                                 : "net.server.method_latency_ns.get_proof";
  if (const HistogramSnapshot* h = Hist(d, proof_method)) {
    explained += Micros(h->p50());
  }
  if (spans.Count("cluster.digest_fetch.verified_get")) {
    if (const HistogramSnapshot* h =
            Hist(d, "net.server.method_latency_ns.digest")) {
      explained += 3 * Micros(h->p50());
    }
  }
  const double vget = spans.P50Us("op.verified_get");
  out.push_back({"net.unexplained_verified_get_p50_us", vget - explained, "us",
                 Fmt("traced verified_get p50 %.1f us minus client verify and "
                     "server handling (%.1f us): wire, event loop, dispatch "
                     "queue, decode",
                     vget, explained)});

  // Tracing overhead: traced minus untraced medians.
  auto value = [](const std::vector<Metric>& v, const std::string& name) {
    const Metric* m = Find(v, name);
    return m != nullptr ? m->value : 0.0;
  };
  const char* const overhead[][2] = {{"verified_get_p50_us", "us"},
                                     {"throughput_ops_s", "1/s"}};
  for (const auto& [name, unit] : overhead) {
    out.push_back({std::string("trace.overhead_") + name,
                   value(traced_e2e, name) - value(untraced_e2e, name), unit,
                   "traced minus untraced half"});
  }
  // Every end-to-end metric of the untraced half, so the traced run
  // also carries the ones a workload's gate does not (0 = not in the mix).
  for (const auto& [name, unit] : kEndToEnd) {
    out.push_back({std::string("e2e.") + name, value(untraced_e2e, name), unit,
                   "untraced half"});
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return;
  fprintf(f, "id,parent,name,op,start_ns,end_ns\n");
  for (const Span& s : spans) {
    fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%s,%" PRIu64 ",%" PRIu64 "\n", s.id,
            s.parent, kSpanNames[s.name],
            s.op < kOpCount ? kOpNames[s.op] : "probe", s.start_ns, s.end_ns);
  }
  fclose(f);
}

void PrintSpanBreakdown(const std::vector<Span>& spans) {
  SpanTable table(spans);
  printf("\nspans (exact p50 over the traced half; self = op minus its "
         "children)\n");
  for (auto& [name, durations] : table.durations) {
    printf("  %-44s %10.1f us  n=%zu\n", name.c_str(), table.P50Us(name),
           durations.size());
  }
}

// --- Run ---------------------------------------------------------------------------

// Aggregate CPU time of the machine from /proc/stat: {steal, total}
// jiffies, or zeros where unavailable. Steal is time the hypervisor ran
// someone else while this machine's vCPUs wanted to run.
std::pair<uint64_t, uint64_t> CpuSteal() {
  FILE* f = fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                       &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

int Run(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.work_dir, args.seed);
  if (workload == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Set up kSetups times; the last deployment stays up.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; i++) {
    if (i > 0) workload->Teardown();
    const uint64_t start = NowNs();
    spitz::Status s = workload->Setup();
    if (!s.ok()) {
      fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::vector<double> sorted_setup = setup_s;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const double setup_median = sorted_setup[sorted_setup.size() / 2];

  printf("workload: %s\n", workload->name());
  printf("why: %s\n", workload->why());
  printf("seed: %" PRIu64 "\n", args.seed);
  printf("nproc: %ld, hardware_concurrency: %u\n", sysconf(_SC_NPROCESSORS_ONLN),
         std::thread::hardware_concurrency());
  printf("flush policy: sync_writes = true (an acknowledged put or txn is "
         "fsynced)\n");
  for (const std::string& line : workload->Describe()) {
    printf("%s\n", line.c_str());
  }
  printf("window: %.1f s measured after %.1f s warm-up%s\n", args.seconds,
         kWarmupSeconds,
         args.trace ? " (first half untraced, second half traced)" : "");
  std::string setups;
  for (double s : setup_s) setups += Fmt(" %.3f", s);
  printf("set-up times (s):%s\n", setups.c_str());
  fflush(stdout);

  // Closed loop: each client thread sends its next op when the last
  // returns. Phases: 0 warm-up, 1 first window, 2 traced window, 3 stop.
  const size_t threads = kClientThreads;
  std::atomic<int> phase{0};
  std::atomic<uint64_t> window_start[3] = {0, 0, 0};
  std::vector<ThreadStats> warm(threads);
  std::vector<ThreadStats> first(threads);
  std::vector<ThreadStats> second(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      Rng rng(args.seed * 0x100000001b3ull + t + 1);
      uint64_t next_span = static_cast<uint64_t>(t + 1) << 48;
      uint64_t next_tag = static_cast<uint64_t>(t + 1) << 48;
      uint64_t traced_ops = 0;
      OpContext ctx;
      ctx.thread = t;
      ctx.rng = &rng;
      ctx.next_span = &next_span;
      ctx.next_tag = &next_tag;
      for (;;) {
        const int p = phase.load(std::memory_order_acquire);
        if (p == 3) break;
        ctx.stats = p == 0 ? &warm[t] : p == 1 ? &first[t] : &second[t];
        ctx.trace = p == 2;
        if (ctx.trace && traced_ops++ % 8 == 0) {
          workload->ProbeDigest(&ctx);
        }
        const uint64_t done_before = ctx.stats->Attempted() - ctx.stats->Failed();
        workload->RunOp(&ctx);
        if (p > 0) {
          // Completions per whole second of the window, for the median rate.
          const uint64_t second =
              (NowNs() - window_start[p].load(std::memory_order_acquire)) /
              1'000'000'000;
          std::vector<uint64_t>& slices = ctx.stats->completed_per_second;
          if (slices.size() <= second) slices.resize(second + 1);
          slices[second] +=
              ctx.stats->Attempted() - ctx.stats->Failed() - done_before;
        }
      }
    });
  }
  auto sleep_until = [](uint64_t deadline_ns) {
    const uint64_t now = NowNs();
    if (deadline_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
    }
  };
  sleep_until(NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9));
  // Sleeps through a window second by second, sampling the host's CPU
  // steal in each whole second.
  auto measure = [&](Window* w, int p, double seconds) {
    const uint64_t start = NowNs();
    window_start[p].store(start, std::memory_order_release);
    phase.store(p, std::memory_order_release);
    auto previous = CpuSteal();
    for (int k = 1; k <= static_cast<int>(seconds); k++) {
      sleep_until(start + k * 1'000'000'000ull);
      const auto now = CpuSteal();
      w->steal_per_second.push_back(
          now.second > previous.second
              ? static_cast<double>(now.first - previous.first) /
                    (now.second - previous.second)
              : 0.0);
      previous = now;
    }
    sleep_until(start + static_cast<uint64_t>(seconds * 1e9));
    w->seconds = static_cast<double>(NowNs() - start) / 1e9;
  };
  Window w1;
  Window w2;
  measure(&w1, 1, args.trace ? args.seconds / 2 : args.seconds);
  if (args.trace) {
    // Registry deltas cover the traced half only.
    const MetricsSnapshot before = workload->Snapshot();
    measure(&w2, 2, args.seconds / 2);
    w2.delta = Delta(before, workload->Snapshot());
  }
  phase.store(3, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  ThreadStats all;
  for (size_t t = 0; t < threads; t++) {
    w1.stats.Merge(first[t]);
    w2.stats.Merge(second[t]);
    all.Merge(warm[t]);
    all.Merge(first[t]);
    all.Merge(second[t]);
  }

  FinishReport report;
  workload->Finish(all, &report);
  const double peak_rss = PeakRssMb();
  const uint64_t user_bytes = workload->loaded_user_bytes() + all.user_bytes;
  workload.reset();  // tears the deployment down and deletes its data

  // Correctness gate.
  std::vector<std::string> violations = report.violations;
  if (all.proof_failures > 0) {
    violations.push_back(Fmt("%" PRIu64 " proof failures", all.proof_failures));
  }
  if (all.wrong_values > 0) {
    violations.push_back(
        Fmt("%" PRIu64 " reads returned a wrong value", all.wrong_values));
  }
  const bool correct = violations.empty();

  std::vector<Metric> e2e = EndToEnd(&w1);
  e2e.push_back({"storage_bytes_per_user_byte",
                 Ratio(static_cast<double>(report.storage_bytes), user_bytes),
                 "B/B",
                 Fmt("%.1f MiB on disk / %.1f MiB of keys+values loaded or "
                     "written",
                     report.storage_bytes / 1048576.0, user_bytes / 1048576.0)});
  if (report.replica_drain_s.has_value()) {
    e2e.push_back({"replica_drain_s", *report.replica_drain_s, "s",
                   Fmt("window end to backup acked and agreeing; backup holds "
                       "%.1f MiB",
                       report.backup_storage_bytes / 1048576.0)});
  }
  e2e.push_back({"peak_rss_mb", peak_rss, "MB", "whole benchmark process"});
  e2e.push_back({"setup_s", setup_median, "s",
                 Fmt("median of %d set-ups", kSetups)});
  PrintTable(args.trace ? "end-to-end (untraced half)" : "end-to-end", e2e);
  PrintNotInMix(e2e);
  std::string per_second;
  for (uint64_t n : w1.stats.completed_per_second) per_second += Fmt(" %" PRIu64, n);
  printf("ops completed per second of the window:%s\n", per_second.c_str());
  std::string steal_series;
  double steal_sum = 0;
  for (double s : w1.steal_per_second) {
    steal_series += Fmt(" %.0f", 100 * s);
    steal_sum += s;
  }
  printf("host cpu steal per second of the window (%%):%s (mean %.1f%%)\n",
         steal_series.c_str(),
         100 * steal_sum / std::max<size_t>(1, w1.steal_per_second.size()));
  for (const std::string& note : report.notes) printf("%s\n", note.c_str());

  std::vector<Metric> result = e2e;
  if (args.trace) {
    std::vector<Metric> traced_e2e = EndToEnd(&w2);
    PrintTable("end-to-end (traced half)", traced_e2e);
    const CryptoTiming crypto = TimeSha256();
    result = PerLayer(&w2, e2e, traced_e2e, crypto);
    PrintTable("per-layer (traced half; registry deltas over the same window)",
               result);
    PrintSpanBreakdown(w2.stats.spans);
    const std::string spans_path =
        args.work_dir + "/spans-" + args.workload + ".csv";
    WriteSpans(spans_path, w2.stats.spans);
    printf("spans written to %s\n", spans_path.c_str());
  }

  printf("\ncorrectness: %s\n", correct ? "ok" : "VIOLATED");
  for (const std::string& v : violations) printf("  violation: %s\n", v.c_str());
  ThreadStats measured = w1.stats;
  measured.Merge(w2.stats);
  printf("%s\n", JsonResult(correct, measured.Attempted(), measured.Failed(),
                            result)
                     .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: spitz_perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> [--work-dir <dir>]\n"
            "workloads:");
    for (const std::string& name : perfbench::WorkloadNames()) {
      fprintf(stderr, " %s", name.c_str());
    }
    fprintf(stderr, "\n");
    return 2;
  }
  return perfbench::Run(args);
}

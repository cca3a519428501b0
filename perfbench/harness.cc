#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/clock.h"

namespace perfbench {

// --- Inputs -----------------------------------------------------------------

Zipfian::Zipfian(uint64_t items, double theta)
    : items_(items), theta_(theta), zetan_(0) {
  for (uint64_t i = 1; i <= items_; i++) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t Zipfian::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const double uz = u * zetan_;
  uint64_t rank = 0;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(items_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= items_) rank = items_ - 1;
  }
  // Scatter the rank (FNV-1a over its bytes, as YCSB does).
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 8; i++) {
    h ^= (rank >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h % items_;
}

std::string KeyOf(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(index));
  return buf;
}

namespace {

// "k<12-digit index>|" — the part of a value that names its key.
std::string ValuePrefix(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%012llu|",
           static_cast<unsigned long long>(index));
  return buf;
}

}  // namespace

std::string ValueOf(uint64_t index, uint64_t tag, uint64_t seed) {
  std::string value = ValuePrefix(index);
  char buf[24];
  snprintf(buf, sizeof(buf), "%016llx|", static_cast<unsigned long long>(tag));
  value += buf;
  Rng rng(seed ^ (index * 0x9e3779b97f4a7c15ull) ^ (tag << 1));
  while (value.size() < kValueBytes) {
    value.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  return value;
}

bool ValueBelongsTo(const std::string& value, uint64_t index) {
  const std::string prefix = ValuePrefix(index);
  return value.size() == kValueBytes &&
         value.compare(0, prefix.size(), prefix) == 0;
}

// --- Samples ----------------------------------------------------------------

const char* const kOpNames[kOpCount] = {"get", "verified_get", "put", "txn",
                                        "verified_scan"};

const char* const kSpanNames[kSpanCount] = {
    "op",                   "net.get_proof_call", "core.verify_read",
    "core.verify_scan",     "net.digest_rtt",     "cluster.digest_fetch",
    "net.scan_proof_call",  "net.write_call",     "net.read_call"};

double Percentile(std::vector<uint64_t>* samples, double p) {
  if (samples->empty()) return 0;
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  return static_cast<double>((*samples)[rank - 1]);
}

void ThreadStats::Merge(const ThreadStats& other) {
  for (int op = 0; op < kOpCount; op++) {
    latency_ns[op].insert(latency_ns[op].end(), other.latency_ns[op].begin(),
                          other.latency_ns[op].end());
    attempted[op] += other.attempted[op];
    failed[op] += other.failed[op];
  }
  busy += other.busy;
  timeouts += other.timeouts;
  stale_pairs += other.stale_pairs;
  proof_failures += other.proof_failures;
  wrong_values += other.wrong_values;
  errors += other.errors;
  proof_bytes += other.proof_bytes;
  proven_reads += other.proven_reads;
  user_bytes += other.user_bytes;
  writes_acked += other.writes_acked;
  digest_probes += other.digest_probes;
  writes.insert(writes.end(), other.writes.begin(), other.writes.end());
  if (completed_per_second.size() < other.completed_per_second.size()) {
    completed_per_second.resize(other.completed_per_second.size());
  }
  for (size_t i = 0; i < other.completed_per_second.size(); i++) {
    completed_per_second[i] += other.completed_per_second[i];
  }
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

uint64_t ThreadStats::Attempted() const {
  uint64_t n = 0;
  for (uint64_t a : attempted) n += a;
  return n;
}

uint64_t ThreadStats::Failed() const {
  uint64_t n = 0;
  for (uint64_t f : failed) n += f;
  return n;
}

SpanScope::SpanScope(ThreadStats* stats, uint64_t* next_id, SpanName name,
                     Op op, uint64_t parent)
    : stats_(stats) {
  if (stats_ == nullptr) return;
  span_.id = ++*next_id;
  span_.parent = parent;
  span_.name = name;
  span_.op = op;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (stats_ == nullptr) return;
  span_.end_ns = NowNs();
  stats_->spans.push_back(span_);
}

// --- Registries ---------------------------------------------------------------

spitz::MetricsSnapshot Delta(const spitz::MetricsSnapshot& before,
                             const spitz::MetricsSnapshot& after) {
  spitz::MetricsSnapshot d = after;
  for (auto& [name, value] : d.counters) {
    const uint64_t old = before.CounterValue(name);
    value = value >= old ? value - old : 0;
  }
  for (auto& [name, h] : d.histograms) {
    const spitz::HistogramSnapshot* old = before.FindHistogram(name);
    if (old == nullptr) continue;
    h.count -= std::min(h.count, old->count);
    h.sum -= std::min(h.sum, old->sum);
    for (size_t i = 0; i < h.buckets.size(); i++) {
      h.buckets[i] -= std::min(h.buckets[i], old->buckets[i]);
    }
  }
  return d;
}

// --- Process and file system --------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const std::string& path) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t NowNs() { return spitz::MonotonicNanos(); }

}  // namespace perfbench

// Measurement harness of the Spitz end-to-end benchmark: exact latency
// samples, benchmark-side spans, registry deltas, and the deterministic
// key/value generator every workload draws its inputs from.

#ifndef SPITZ_PERFBENCH_HARNESS_H_
#define SPITZ_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace perfbench {

// --- Inputs -----------------------------------------------------------------

// SplitMix64: the only source of randomness, so one seed fixes every
// key, value and op choice a client thread makes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// YCSB scrambled zipfian over [0, items): zipfian ranks, hashed across
// the key space so the hot keys are scattered (and, on a cluster, spread
// over shards).
class Zipfian {
 public:
  Zipfian(uint64_t items, double theta);
  uint64_t Next(Rng* rng) const;

 private:
  uint64_t items_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

constexpr size_t kValueBytes = 100;

// Fixed-width keys, so key order is index order and a scan of `n` rows
// from index i covers exactly keys i..i+n-1.
std::string KeyOf(uint64_t index);
// A 100-byte value that names its key and writer tag, then pseudorandom
// filler (incompressible, so chunk dedup cannot flatter storage
// figures). Tag 0 is the bulk-loaded version.
std::string ValueOf(uint64_t index, uint64_t tag, uint64_t seed);
// True when `value` is a well-formed value of key `index` — what a
// read of that key may legally return under concurrent writers.
bool ValueBelongsTo(const std::string& value, uint64_t index);

// --- Samples ----------------------------------------------------------------

// The end-to-end operation kinds.
enum Op { kGet, kVerifiedGet, kPut, kTxn, kVerifiedScan, kOpCount };
extern const char* const kOpNames[kOpCount];

// Nearest-rank percentile of raw samples (sorts in place); 0 if empty.
double Percentile(std::vector<uint64_t>* samples, double p);

// Spans the benchmark records around its own calls into Spitz.
enum SpanName {
  kSpanOp,             // one whole client operation (the root)
  kSpanGetProofCall,   // SpitzClient::GetProof / GetProofAt round trip
  kSpanVerifyRead,     // SpitzDb::VerifyRead on the client
  kSpanVerifyScan,     // SpitzDb::VerifyScan on the client
  kSpanDigestRtt,      // SpitzClient::Digest, the cheapest round trip
  kSpanClusterDigest,  // ClusterClient::GetClusterDigest
  kSpanScanProofCall,  // SpitzClient::ScanProofAt round trip
  kSpanWriteCall,      // Put / Write round trip
  kSpanReadCall,       // plain Get round trip
  kSpanCount
};
extern const char* const kSpanNames[kSpanCount];

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span
  uint32_t name = 0;    // SpanName
  uint32_t op = 0;      // Op of the request the span belongs to
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Everything one client thread observed. Threads never share one.
struct ThreadStats {
  std::array<std::vector<uint64_t>, kOpCount> latency_ns;
  std::array<uint64_t, kOpCount> attempted{};
  std::array<uint64_t, kOpCount> failed{};
  // Failure classes (each failed op lands in exactly one).
  uint64_t busy = 0;            // Busy refusals (prepare-lock conflicts)
  uint64_t timeouts = 0;
  uint64_t stale_pairs = 0;     // proof and digest from different versions
  uint64_t proof_failures = 0;  // proof does not verify at its own root
  uint64_t wrong_values = 0;    // a read returned a value of another key
  uint64_t errors = 0;          // any other non-OK status
  uint64_t proof_bytes = 0;     // proof bytes received by verified reads
  uint64_t proven_reads = 0;    // verified gets and scans that delivered one
  uint64_t user_bytes = 0;      // key+value bytes of acknowledged writes
  uint64_t writes_acked = 0;    // acknowledged puts and txns
  uint64_t digest_probes = 0;   // traced run: extra Digest round trips
  // Every put attempted (key index, writer tag) and whether it was
  // acknowledged — the reopen check re-reads acknowledged writes.
  struct Write {
    uint64_t index;
    uint64_t tag;
    bool acked;
  };
  std::vector<Write> writes;
  // Ops completed in each whole second of a measured window.
  std::vector<uint64_t> completed_per_second;
  std::vector<Span> spans;      // traced run only

  void Merge(const ThreadStats& other);
  uint64_t Attempted() const;
  uint64_t Failed() const;
};

// Opens a span when tracing is on (`stats` non-null); records it on
// destruction. The root span of an op passes parent 0 and its id
// becomes the request id its children carry.
class SpanScope {
 public:
  SpanScope(ThreadStats* stats, uint64_t* next_id, SpanName name, Op op,
            uint64_t parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  ThreadStats* stats_;
  Span span_;
};

// --- Registries ---------------------------------------------------------------

// Counter and histogram growth between two snapshots (gauges keep the
// later value). Histogram max is the later snapshot's lifetime max.
spitz::MetricsSnapshot Delta(const spitz::MetricsSnapshot& before,
                             const spitz::MetricsSnapshot& after);

// --- Process and file system --------------------------------------------------

double PeakRssMb();
uint64_t DirBytes(const std::string& path);
uint64_t NowNs();

}  // namespace perfbench

#endif  // SPITZ_PERFBENCH_HARNESS_H_

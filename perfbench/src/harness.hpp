// Shared plumbing of the end-to-end benchmark: command-line options,
// the metric tables that BENCHMARK.json mirrors, wall-clock helpers,
// percentile summaries, correctness-check tallies, the in-memory span
// log, and the provenance block printed with every result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

/// Seconds on the steady (wall) clock, from an arbitrary origin.
double wall_now();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run (BENCHMARK.json "per_layer").
const std::vector<MetricSpec>& per_layer_metrics();
/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> xs);

/// p50/p90/p99 of a latency sample through repro::quantile (exact,
/// sort-based), with the sample count each percentile rests on.
struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};
Percentiles percentiles(const std::vector<double>& xs);

/// Named correctness checks. Every check is counted into `failed` of
/// the printed result and makes the exit code nonzero when it fails.
class Checks {
 public:
  /// Records one check outcome; prints a line to stderr when it fails.
  void expect(bool ok, const std::string& what);
  std::size_t failures() const noexcept { return failures_; }
  std::size_t total() const noexcept { return total_; }

 private:
  std::size_t total_ = 0;
  std::size_t failures_ = 0;
};

/// One span: a timed call into a layer, recorded by the benchmark's
/// wrappers (never from inside the library).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< flow/request ordinal; 0 = none
};

/// Bounded in-memory span store, written out when the run ends. Spans
/// past the capacity are counted, not stored, so a long run cannot grow
/// memory without bound.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = std::size_t{1} << 18);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Reserves an id for a span whose end is not known yet.
  std::uint64_t next_id() noexcept { return ++last_id_; }
  void add(const Span& span);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Writes {"spans": [...], "dropped": n} to `path`; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::size_t capacity_;
  bool enabled_ = false;
  std::uint64_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Everything one run reports.
struct Result {
  std::map<std::string, double> metrics;
  /// Extra human-readable facts (sample counts, layer counters, ...).
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;

  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
};

/// Provenance stamped on every result: commit, build type, contract
/// checks, CPU model, core count, threads, lanes and seeds.
struct Provenance {
  std::string commit;
  std::string build_type;
  bool contract_checks = false;
  std::string cpu_model;
  unsigned nproc = 0;
  std::size_t threads = 0;
  std::size_t lanes = 0;
  std::uint64_t seed = 0;
  std::string model_seed;
};

/// Build type and contract setting this binary was compiled with.
std::string build_type();
bool contracts_compiled_in();
std::string cpu_model();

/// Pins the calling thread to one CPU (modulo the CPUs online); threads
/// it starts afterwards inherit the pin. Returns false when the kernel
/// refuses, in which case the thread keeps its previous affinity.
bool pin_current_thread(unsigned cpu);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Prints the human-readable report (provenance, every metric with its
/// unit, notes) followed by the one-line JSON result as the LAST line of
/// stdout. Returns false when the metric set does not match the table
/// for this mode (a benchmark bug).
bool print_result(const Options& options, const Provenance& provenance,
                  const Result& result);

/// Writes the result, provenance and spans to `options.out_dir`.
void write_artifacts(const Options& options, const Provenance& provenance,
                     const Result& result, const SpanLog& spans);

}  // namespace perfbench

#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "common/telemetry/export.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"delivered_pps", "pkt/s"}, {"latency_p50_ms", "ms"},
      {"ok_frac", "frac"},        {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.batch_flows_mean", "flows"},
      {"serve.reject_frac", "frac"},
      {"serve.queue_depth_start", "requests"},
      {"serve.queue_depth_end", "requests"},
      {"serve.net.encode_us", "us"},
      {"serve.net.decode_us", "us"},
      {"serve.net.reply_bytes", "bytes"},
      {"diffusion.call_ms_b16", "ms"},
      {"diffusion.call_ms_b1", "ms"},
      {"diffusion.unet_step_ms_b16", "ms"},
      {"diffusion.unet_step_ms_b1", "ms"},
      {"diffusion.ae_decode_ms_b16", "ms"},
      {"diffusion.coverage", "frac"},
      {"nn.qgemm_gops", "GOP/s"},
      {"nn.gemm_gflops", "GFLOP/s"},
      {"nn.arena_reuse_frac", "frac"},
      {"nprint.decode_us_per_flow", "us"},
      {"parallel.wait_share", "frac"},
      {"replay.emit.source_share", "frac"},
      {"replay.emit.self_ns_per_pkt", "ns"},
      {"replay.emit.underrun_frac", "frac"},
      {"replay.chain_ns_per_pkt", "ns"},
      {"replay.accept_frac", "frac"},
      {"replay.connections", "count"},
      {"net.pcap_ns_per_pkt", "ns"},
      {"net.pcap_bytes_per_pkt", "bytes"},
      {"load.send_late_ms_p99", "ms"},
      {"load.trace_overhead_pct", "%"},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pipeline_fp32d5_b16", "socket_fp32_light", "replay_chain_host"};
  return names;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  return repro::quantile(std::move(xs), 0.5);
}

Percentiles percentiles(const std::vector<double>& xs) {
  Percentiles out;
  out.count = xs.size();
  if (xs.empty()) return out;
  out.p50 = repro::quantile(xs, 0.50);
  out.p90 = repro::quantile(xs, 0.90);
  out.p99 = repro::quantile(xs, 0.99);
  return out;
}

void Checks::expect(bool ok, const std::string& what) {
  ++total_;
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {}

void SpanLog::add(const Span& span) {
  if (!enabled_) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

bool SpanLog::write_json(const std::string& path) const {
  repro::telemetry::JsonWriter json;
  json.begin_object();
  json.key("dropped");
  json.value(dropped_);
  json.key("spans");
  json.begin_array();
  for (const Span& s : spans_) {
    json.begin_object();
    json.key("name");
    json.value(s.name);
    json.key("start");
    json.value(s.start);
    json.key("end");
    json.value(s.end);
    json.key("id");
    json.value(s.id);
    json.key("parent");
    json.value(s.parent);
    json.key("request_id");
    json.value(s.request_id);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << '\n';
  return static_cast<bool>(out);
}

void Result::note(const std::string& key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  notes.emplace_back(key, buf);
}

std::string build_type() { return PERFBENCH_BUILD_TYPE; }

bool contracts_compiled_in() { return repro::contracts_enabled(); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

bool pin_current_thread(unsigned cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

void append_provenance(repro::telemetry::JsonWriter& json,
                       const Provenance& p) {
  json.begin_object();
  json.key("commit");
  json.value(p.commit);
  json.key("build_type");
  json.value(p.build_type);
  json.key("checks");
  json.value(p.contract_checks);
  json.key("cpu_model");
  json.value(p.cpu_model);
  json.key("nproc");
  json.value(static_cast<std::uint64_t>(p.nproc));
  json.key("repro_threads");
  json.value(static_cast<std::uint64_t>(p.threads));
  json.key("lanes");
  json.value(static_cast<std::uint64_t>(p.lanes));
  json.key("seed");
  json.value(p.seed);
  json.key("model_seed");
  json.value(p.model_seed);
  json.end_object();
}

const std::vector<MetricSpec>& table_for(const Options& options) {
  return options.trace ? per_layer_metrics() : end_to_end_metrics();
}

}  // namespace

bool print_result(const Options& options, const Provenance& provenance,
                  const Result& result) {
  std::printf("perfbench %s  seed=%llu  seconds=%g  trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("provenance: commit=%s build=%s checks=%s cpu=\"%s\" nproc=%u "
              "REPRO_THREADS=%zu lanes=%zu model_seed=%s\n",
              provenance.commit.c_str(), provenance.build_type.c_str(),
              provenance.contract_checks ? "on" : "off",
              provenance.cpu_model.c_str(), provenance.nproc,
              provenance.threads, provenance.lanes,
              provenance.model_seed.c_str());
  for (const auto& [key, value] : result.notes) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }

  const std::vector<MetricSpec>& table = table_for(options);
  std::set<std::string> expected;
  for (const MetricSpec& spec : table) expected.insert(spec.name);
  std::set<std::string> got;
  for (const auto& entry : result.metrics) got.insert(entry.first);
  const bool names_match = expected == got;

  repro::telemetry::JsonWriter json;
  json.begin_object();
  const bool correct = names_match && result.checks.failures() == 0;
  json.key("correct");
  json.value(correct);
  json.key("attempted");
  json.value(result.attempted);
  json.key("failed");
  json.value(result.failed);
  json.key("metrics");
  json.begin_object();
  for (const MetricSpec& spec : table) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) continue;
    std::printf("  %-34s %.6g %s\n", spec.name, it->second, spec.unit);
    json.key(spec.name);
    json.begin_object();
    json.key("value");
    json.value(it->second);
    json.key("unit");
    json.value(spec.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  if (!names_match) {
    std::fprintf(stderr, "perfbench: metric set does not match the %s "
                         "table\n",
                 options.trace ? "per_layer" : "end_to_end");
  }
  std::printf("checks: %zu run, %zu failed\n", result.checks.total(),
              result.checks.failures());
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return names_match;
}

void write_artifacts(const Options& options, const Provenance& provenance,
                     const Result& result, const SpanLog& spans) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), ec.message().c_str());
    return;
  }
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  repro::telemetry::JsonWriter json;
  json.begin_object();
  json.key("workload");
  json.value(options.workload);
  json.key("provenance");
  append_provenance(json, provenance);
  json.key("attempted");
  json.value(result.attempted);
  json.key("failed");
  json.value(result.failed);
  json.key("metrics");
  json.begin_object();
  for (const auto& [name, value] : result.metrics) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
  json.key("notes");
  json.begin_object();
  for (const auto& [key, value] : result.notes) {
    json.key(key);
    json.value(value);
  }
  json.end_object();
  json.end_object();
  std::ofstream(stem + ".json") << json.str() << '\n';
  if (options.trace && !spans.write_json(stem + ".spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write spans for %s\n",
                 stem.c_str());
  }
}

}  // namespace perfbench

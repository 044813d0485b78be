// perfbench_run: one workload of the end-to-end benchmark per process.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--commit <id>]
//   perfbench_run --list-metrics
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the JSON result. The exit code is nonzero when
// a correctness check fails, and the binary refuses to run at all in a
// non-Release build or one with contract checks compiled in.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n"
               "       perfbench_run --list-metrics\n");
}

bool parse(int argc, char** argv, Options& options, bool& list_metrics) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--commit") {
        options.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

void list_metrics() {
  const auto print_table = [](const char* key,
                              const std::vector<perfbench::MetricSpec>& t) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < t.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                  t[i].name, t[i].unit);
    }
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
  }
  std::printf("], ");
  print_table("end_to_end", perfbench::end_to_end_metrics());
  std::printf(", ");
  print_table("per_layer", perfbench::per_layer_metrics());
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool want_list = false;
  if (!parse(argc, argv, options, want_list)) {
    usage();
    return 2;
  }
  if (want_list) {
    list_metrics();
    return 0;
  }
  if (perfbench::build_type() != "Release" ||
      perfbench::contracts_compiled_in()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build with contract "
                 "checks %s; build Release with REPRO_CHECKS=OFF\n",
                 perfbench::build_type().c_str(),
                 perfbench::contracts_compiled_in() ? "on" : "off");
    return 3;
  }
  if (options.seconds <= 0.0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  perfbench::SpanLog spans;
  perfbench::Provenance provenance;
  provenance.commit = options.commit;
  provenance.build_type = perfbench::build_type();
  provenance.contract_checks = perfbench::contracts_compiled_in();
  provenance.cpu_model = perfbench::cpu_model();
  provenance.nproc = std::thread::hardware_concurrency();
  provenance.seed = options.seed;
  provenance.model_seed = std::to_string(perfbench::kModelSeed);
  perfbench::RunContext ctx{options, result, spans, provenance};

  try {
    if (options.workload == "pipeline_fp32d5_b16") {
      perfbench::run_pipeline(ctx, repro::nn::Precision::kFp32);
    } else if (options.workload == "pipeline_int8d5_b16") {
      perfbench::run_pipeline(ctx, repro::nn::Precision::kInt8);
    } else if (options.workload == "socket_fp32_light") {
      perfbench::run_socket(ctx);
    } else if (options.workload == "replay_chain_host") {
      perfbench::run_replay(ctx);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 4;
  }

  if (!options.trace) {
    result.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
    result.metrics["ok_frac"] =
        result.attempted > 0
            ? static_cast<double>(result.attempted - result.failed) /
                  static_cast<double>(result.attempted)
            : 0.0;
  }
  result.checks.expect(result.attempted > 0, "the run attempted some work");
  if (options.trace) {
    result.note("spans.recorded", static_cast<double>(spans.spans().size()));
    result.note("spans.dropped", static_cast<double>(spans.dropped()));
  }
  perfbench::write_artifacts(options, provenance, result, spans);
  const bool names_ok = perfbench::print_result(options, provenance, result);
  return names_ok && result.checks.failures() == 0 ? 0 : 1;
}

// pipeline_{fp32,int8}d5_b16: closed-loop served generation into the
// replay stack. ServedFlowSource pulls distilled-5 flows from a
// TraceService it pumps itself (cooperative mode), one single-flow
// request per ring slot; with a 16-slot ring and a 16-flow batch budget
// every model call carries exactly 16 flows. Flows go through
// OpenLoopEmitter on a VirtualPacer into conntrack -> NAT and a pcap
// writer. REPRO_THREADS=2, one driver thread.
#include <memory>

#include "common/parallel/thread_pool.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "replay/emit/source.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kBatchFlows = 16;
constexpr std::uint64_t kFlowsPerRound = 4 * kBatchFlows;
constexpr std::size_t kSampleEvery = 53;  // prime: samples every batch slot

struct Served {
  std::shared_ptr<repro::diffusion::TraceDiffusion> model;
  std::unique_ptr<repro::serve::ModelRegistry> registry;
  std::unique_ptr<repro::serve::TraceService> service;

  /// Tears down in dependency order (the service refers to the registry).
  void reset() {
    service.reset();
    registry.reset();
    model.reset();
  }
};

Served set_up() {
  Served s;
  s.model = build_model(/*fast_routes=*/true);
  s.registry = std::make_unique<repro::serve::ModelRegistry>();
  s.registry->install("default", s.model, "perfbench");
  repro::serve::ServiceConfig cfg;
  cfg.queue_capacity = 4 * kBatchFlows;
  cfg.batch.max_batch_flows = kBatchFlows;
  cfg.cache_capacity = 0;  // every seed is distinct: a cache never hits
  cfg.flightrec_capacity = std::size_t{1} << 16;
  s.service = std::make_unique<repro::serve::TraceService>(*s.registry, cfg);
  return s;
}

/// Request seed of fetch ordinal k in a run seeded with `seed`; the
/// class alternates per round.
std::uint64_t seed_base(std::uint64_t seed) { return seed * 1'000'003ULL; }
int class_of_round(std::uint64_t seed, std::uint64_t round) {
  return static_cast<int>((seed + round) % kModelClasses);
}

EmitPhase run_phase(Served& s, const Options& options,
                    repro::nn::Precision precision, double seconds,
                    bool traced, SpanLog& spans, Checks& checks,
                    std::vector<int>& round_classes) {
  round_classes.clear();
  std::unique_ptr<repro::replay::emit::ServedFlowSource> source;
  return run_emit_rounds(
      seconds, traced, options.seed, kFlowsPerRound,
      /*chunk_flows=*/kFlowsPerRound, kSampleEvery, spans, checks,
      [&](std::uint64_t round,
          std::uint64_t first_ordinal) -> repro::replay::emit::FlowSource& {
        repro::replay::emit::ServedSourceConfig src;
        src.class_id = class_of_round(options.seed, round);
        src.seed_base = seed_base(options.seed) + first_ordinal;
        src.total_flows = kFlowsPerRound;
        src.ring_capacity = kBatchFlows;
        src.flows_per_request = 1;
        src.sampler = repro::diffusion::SamplerKind::kDistilled;
        src.ddim_steps = kDistilledSteps;
        src.precision = precision;
        src.pump_service = true;
        round_classes.push_back(src.class_id);
        source = std::make_unique<repro::replay::emit::ServedFlowSource>(
            *s.service, src);
        return *source;
      });
}

/// Served flows must equal the direct library call for the same seed.
/// Runs after the clock stops.
void check_samples(Served& s, const EmitPhase& phase,
                   repro::nn::Precision precision,
                   const std::vector<int>& round_classes, std::uint64_t seed,
                   Result& result, std::uint64_t& failed) {
  std::size_t bad = 0;
  for (const auto& [ordinal, hash] : phase.samples) {
    const int class_id = round_classes.at(ordinal / kFlowsPerRound);
    if (!hash_matches_library(*s.model, class_id,
                              distilled_route_options(precision),
                              seed_base(seed) + ordinal, hash)) {
      ++bad;
    }
  }
  result.checks.expect(bad == 0, std::to_string(bad) + " of " +
                                     std::to_string(phase.samples.size()) +
                                     " sampled served flows differ from "
                                     "generate_seeded");
  failed += bad;
}

}  // namespace

void run_pipeline(RunContext& ctx, repro::nn::Precision precision) {
  // One CPU per thread: the pool's worker inherits CPU 1, this driver
  // thread (the pool's calling lane) stays on CPU 0.
  pin_current_thread(1);
  repro::parallel::set_thread_count(kThreads);
  pin_current_thread(0);
  ctx.provenance.threads = kThreads;
  ctx.provenance.lanes = 1;
  Result& result = ctx.result;

  Served s;
  const double setup = timed_setup([&] {
    s.reset();
    s = set_up();
  });

  // Warm-up round: arenas and caches fill before anything is timed.
  std::vector<int> classes;
  {
    SpanLog quiet;
    Checks warm_checks;
    Options warm = ctx.options;
    warm.seed = ctx.options.seed + 0x10000;
    run_phase(s, warm, precision, 0.0, false, quiet, warm_checks, classes);
  }

  if (!ctx.options.trace) {
    const EmitPhase phase = run_phase(s, ctx.options, precision, ctx.options.seconds,
                                      false, ctx.spans, result.checks, classes);
    std::uint64_t failed = phase.totals.underruns + phase.failed_flows;
    check_samples(s, phase, precision, classes, ctx.options.seed, result, failed);
    result.attempted = phase.totals.flows_scheduled;
    result.failed = std::min(failed, result.attempted);
    result.metrics["delivered_pps"] = fast_chunk_pps(phase);
    put_latency(result, fast_chunk_p50_seconds(phase), phase.latencies,
                "flow delivery");
    result.metrics["setup_s"] = setup;
    result.note("rounds", static_cast<double>(phase.rounds));
    result.note("chunks", static_cast<double>(phase.chunk_pps.size()));
    result.note("flows", static_cast<double>(phase.flows_emitted));
    result.note("packets", static_cast<double>(phase.totals.packets));
    return;
  }

  // Traced run: half the time untraced (the reference for the overhead),
  // half traced with library telemetry and the flight recorder on.
  const double half = ctx.options.seconds / 2.0;
  const EmitPhase plain = run_phase(s, ctx.options, precision, half, false, ctx.spans,
                                    result.checks, classes);
  std::uint64_t failed = plain.totals.underruns + plain.failed_flows;
  check_samples(s, plain, precision, classes, ctx.options.seed, result, failed);

  repro::telemetry::Registry::instance().reset();
  repro::telemetry::reset_profile();
  repro::telemetry::set_enabled(true);
  s.service->flight_recorder().set_forced(true);
  ctx.spans.set_enabled(true);
  const LayerCounters start = LayerCounters::now();
  Options traced_opts = ctx.options;
  traced_opts.seed = ctx.options.seed + 0x20000;
  std::vector<int> traced_classes;
  const EmitPhase traced = run_phase(s, traced_opts, precision, half, true, ctx.spans,
                                     result.checks, traced_classes);
  ctx.spans.set_enabled(false);
  repro::telemetry::set_enabled(false);
  const std::uint64_t batches = put_registry_metrics(result, start);
  failed += traced.totals.underruns + traced.failed_flows;
  check_samples(s, traced, precision, traced_classes, traced_opts.seed, result, failed);
  result.attempted = plain.totals.flows_scheduled + traced.totals.flows_scheduled;
  result.failed = std::min(failed, result.attempted);

  put_emit_metrics(result, traced.totals);
  put_queue_metrics(result, s.service->flight_recorder().dump(), 0, 0);
  run_probes(*s.model, distilled_route_options(precision), result);
  // Children accounting for their parent: model calls priced at the
  // probed batch-16 call time, against the measured source time.
  const double predicted =
      static_cast<double>(batches) * result.metrics["diffusion.call_ms_b16"] /
      1e3;
  result.metrics["diffusion.coverage"] =
      traced.totals.source_seconds > 0.0
          ? predicted / traced.totals.source_seconds
          : 0.0;
  const double pps_plain = fast_chunk_pps(plain);
  const double pps_traced = fast_chunk_pps(traced);
  result.metrics["load.trace_overhead_pct"] =
      pps_plain > 0.0 ? (pps_plain - pps_traced) / pps_plain * 100.0 : 0.0;
  result.metrics["load.send_late_ms_p99"] = 0.0;  // closed loop: no schedule
  result.note("model_calls (traced phase)", static_cast<double>(batches));
  result.note("delivered_pps untraced / traced",
              std::to_string(pps_plain) + " / " + std::to_string(pps_traced));
}

}  // namespace perfbench

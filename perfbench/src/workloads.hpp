// The three workloads and the pieces they share: the benchmark model,
// set-up timing, the seeded arrival schedule, the library-side
// correctness references, and the traced run's layer probes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "diffusion/pipeline.hpp"
#include "harness.hpp"
#include "replay/emit/source.hpp"
#include "serve/observe/events.hpp"

namespace perfbench {

/// Everything a workload reads and fills.
struct RunContext {
  const Options& options;
  Result& result;
  SpanLog& spans;
  Provenance& provenance;
};

/// Closed-loop served pipeline at batch 16 on the distilled-5 route in
/// the given precision.
void run_pipeline(RunContext& ctx, repro::nn::Precision precision);
void run_socket(RunContext& ctx);
void run_replay(RunContext& ctx);

// --- Shared pieces ---------------------------------------------------------

/// Seed the benchmark model is fitted with. The model is fixed program
/// configuration; the workload seed drives only the generated inputs.
inline constexpr std::uint64_t kModelSeed = 11;
/// Classes of the benchmark model.
inline constexpr int kModelClasses = 2;
/// Packets per generated flow (flow-image height).
inline constexpr std::size_t kModelPackets = 16;
/// Step count of the distilled route.
inline constexpr std::size_t kDistilledSteps = 5;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// Fits the benchmark model (toy scale, like bench/serve_load). With
/// `fast_routes` it is also distilled to 5 steps and int8-calibrated.
std::shared_ptr<repro::diffusion::TraceDiffusion> build_model(
    bool fast_routes);

/// Generation options of the two routes the workloads serve. They match
/// what the service sends for a request on that route (the service's
/// base options are the GenerateOptions defaults).
repro::diffusion::GenerateOptions distilled_route_options(
    repro::nn::Precision precision);                        // distilled-5
repro::diffusion::GenerateOptions default_route_options();  // fp32 / DDIM-20

/// Runs `setup` kSetupRepeats times and returns the median wall time.
/// Each call must fully replace the previous call's state.
template <typename F>
double timed_setup(F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = wall_now();
    setup();
    times.push_back(wall_now() - t0);
  }
  return median(std::move(times));
}

/// Writes latency_p50_ms from `p50_seconds`, and notes the pooled p50,
/// p90 and p99 of `samples` (seconds) with their count. p90 and p99 are
/// reported, not gated: see README.md.
void put_latency(Result& result, double p50_seconds,
                 const std::vector<double>& samples, const std::string& what);

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second over `seconds`, conditioned on exactly round(rate * seconds)
/// arrivals; reproducible from (seed, stream).
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed, std::uint64_t stream);

/// True when `served_hash` (serve::wire::hash_flows of a served flow, or
/// hash_wire_flows of its decoded reply) equals the hash of the direct
/// library call generate_seeded(class_id, opts with count 1, seed).
bool hash_matches_library(repro::diffusion::TraceDiffusion& model,
                          int class_id,
                          const repro::diffusion::GenerateOptions& opts,
                          std::uint64_t seed, std::uint64_t served_hash);

/// Replay check: the strict conntrack accepted every TCP packet.
bool check_acceptance(Checks& checks, std::uint64_t tcp_accepted,
                      std::uint64_t tcp_packets, const std::string& label);

/// Open-loop check: the mean number of outstanding requests in the second
/// half of the run is at most one above the first half's. A backlog that
/// grows means the offered load is past saturation and the latency is
/// not a light-load figure.
bool check_backlog(Checks& checks, double first_half, double second_half,
                   const std::string& label);

/// Layer-level figures the traced run collects across its timed phase,
/// then completes with the probes.
struct LayerTotals {
  double phase_seconds = 0.0;   ///< wall time of the emitter rounds
  double source_seconds = 0.0;  ///< inside FlowSource::next_flow
  double chain_seconds = 0.0;   ///< inside ChainSink::emit
  double pcap_seconds = 0.0;    ///< inside PcapSink::emit
  std::uint64_t packets = 0;
  std::uint64_t pcap_bytes = 0;
  std::uint64_t flows_scheduled = 0;
  std::uint64_t underruns = 0;
  std::uint64_t tcp_packets = 0;
  std::uint64_t tcp_accepted = 0;
  std::uint64_t connections = 0;  ///< per round (the working set)
};

/// Result of a phase of emitter rounds (see run_emit_rounds).
struct EmitPhase {
  std::vector<double> chunk_pps;  ///< packets per wall second, per chunk
  std::vector<double> latencies;  ///< flow delivery latency, seconds
  std::vector<double> chunk_p50;  ///< median delivery latency, per chunk
  LayerTotals totals;
  std::uint64_t flows_emitted = 0;
  /// Flows of rounds that broke conservation, the pcap record count,
  /// the chain's packet count, or delivery order.
  std::uint64_t failed_flows = 0;
  /// (fetch ordinal, content hash) of every sampled flow.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples;
  std::size_t rounds = 0;
};

/// Emitter rounds for `seconds` of wall time. Each round asks
/// `source_for(round, first_ordinal)` for a FlowSource with at least
/// `flows_per_round` flows (built before the round's clock starts) and
/// runs OpenLoopEmitter on a VirtualPacer into a tee of ChainSink
/// (conntrack -> source NAT) and PcapSink (into memory). Flows arrive at
/// a fixed virtual rate with compressed timelines, so one flow is on the
/// wire at a time. Every `sample_every`-th flow's hash is kept in `samples`.
/// Each round is cut into chunks of `chunk_flows` flows (a divisor of
/// `flows_per_round`), timed one by one (DeliveryTracker).
EmitPhase run_emit_rounds(
    double seconds, bool traced, std::uint64_t seed,
    std::uint64_t flows_per_round, std::size_t chunk_flows,
    std::size_t sample_every, SpanLog& spans, Checks& checks,
    const std::function<repro::replay::emit::FlowSource&(
        std::uint64_t round, std::uint64_t first_ordinal)>& source_for);

/// Quantile of a run's chunks that the emitter workloads report: the
/// fastest twentieth. Contention from other tenants of a shared host only
/// ever slows a chunk, and it comes and goes over seconds to minutes, so
/// the fastest chunks of a run track the code far better than its median
/// chunk does (README.md, "Why the fastest twentieth of chunks").
inline constexpr double kFastChunkQuantile = 0.95;

/// kFastChunkQuantile of the chunk rates (packets per wall second).
double fast_chunk_pps(const EmitPhase& phase);
/// 1 - kFastChunkQuantile of the chunk median latencies (seconds).
double fast_chunk_p50_seconds(const EmitPhase& phase);

/// Writes the replay.* and net.* per-layer metrics from `totals`
/// (zeros for a workload that does not emit packets).
void put_emit_metrics(Result& result, const LayerTotals& totals);

/// Snapshot of registry counters and arena counters, taken at the start
/// of a traced phase so the phase's own deltas can be reported.
struct LayerCounters {
  std::uint64_t batches = 0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_reuses = 0;
  static LayerCounters now();
};

/// Writes serve.batch_flows_mean, serve.reject_frac, nn.arena_reuse_frac
/// and parallel.wait_share from telemetry gathered since the registry
/// was reset at the start of the traced phase; returns the number of
/// model calls (batches) in the phase.
std::uint64_t put_registry_metrics(Result& result, const LayerCounters& start);

/// Writes serve.queue_wait_ms_p50 (admitted -> coalesced into a batch,
/// from flight-recorder events) and the queue depths sampled at the
/// start and end of the traced phase.
void put_queue_metrics(Result& result,
                       const std::vector<repro::serve::observe::FlightEvent>&
                           events,
                       double depth_start, double depth_end);

/// Times each layer's public entry point at the workloads' shapes and
/// writes the diffusion.*, nn.*, nprint.* and serve.net.* metrics. The
/// batch-16 figures use `b16_route` (the pipeline workload's route), the
/// batch-1 figures the default route. `model` must have the fast routes
/// (build_model(true)).
void run_probes(repro::diffusion::TraceDiffusion& model,
                const repro::diffusion::GenerateOptions& b16_route,
                Result& result);

/// Route of the batch-16 probes in the socket and replay traced runs.
inline constexpr repro::nn::Precision kProbePrecision = repro::nn::Precision::kFp32;

}  // namespace perfbench

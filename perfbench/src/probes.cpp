// Shared workload pieces: the benchmark model, the arrival schedule, the
// library-side references, and the traced run's per-layer figures.
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/trace.hpp"
#include "flowgen/generator.hpp"
#include "nn/arena.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/qgemm.hpp"
#include "nprint/codec.hpp"
#include "serve/net/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using repro::diffusion::GenerateOptions;
using repro::diffusion::SamplerKind;
using repro::diffusion::TraceDiffusion;

std::shared_ptr<TraceDiffusion> build_model(bool fast_routes) {
  repro::diffusion::PipelineConfig cfg;
  cfg.packets = kModelPackets;
  cfg.autoencoder.hidden_dim = 256;
  cfg.autoencoder.latent_dim = 40;
  cfg.ae_max_rows = 3500;
  cfg.unet.base_channels = 24;
  cfg.unet.temb_dim = 48;
  cfg.timesteps = 100;
  // Speed depends on the architecture, not on fit quality: train briefly.
  cfg.ae_epochs = 4;
  cfg.diffusion_epochs = 2;
  cfg.control_epochs = 1;
  cfg.seed = kModelSeed;
  auto model = std::make_shared<TraceDiffusion>(
      cfg, std::vector<std::string>{"netflix", "teams"});
  repro::Rng rng(kModelSeed);
  repro::flowgen::Dataset ds;
  for (int i = 0; i < 6; ++i) {
    repro::net::Flow a = repro::flowgen::generate_flow(
        repro::flowgen::App::kNetflix, kModelPackets, rng);
    a.label = 0;
    ds.flows.push_back(std::move(a));
    repro::net::Flow b = repro::flowgen::generate_flow(
        repro::flowgen::App::kTeams, kModelPackets, rng);
    b.label = 1;
    ds.flows.push_back(std::move(b));
  }
  model->fit(ds);
  if (fast_routes) {
    repro::diffusion::DistillConfig dcfg;
    dcfg.teacher_steps = 20;
    dcfg.rounds = 2;  // 20 -> 10 -> 5
    dcfg.calibration_count = 4;
    dcfg.options = GenerateOptions{};  // the service's base options
    model->distill(dcfg);
    model->prepare_quantized();
  }
  return model;
}

GenerateOptions distilled_route_options(repro::nn::Precision precision) {
  GenerateOptions opts;
  opts.count = 1;
  opts.sampler = SamplerKind::kDistilled;
  opts.ddim_steps = kDistilledSteps;
  opts.precision = precision;
  return opts;
}

GenerateOptions default_route_options() {
  GenerateOptions opts;
  opts.count = 1;
  opts.sampler = SamplerKind::kDdim;
  opts.ddim_steps = 20;
  opts.precision = repro::nn::Precision::kFp32;
  return opts;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed, std::uint64_t stream) {
  // A Poisson process conditioned on its count: round(rate * seconds)
  // arrivals placed uniformly at random in [0, seconds), then sorted.
  // Fixing the count keeps the offered load identical across seeds.
  repro::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> out(n);
  for (double& t : out) t = rng.uniform(0.0, seconds);
  std::sort(out.begin(), out.end());
  return out;
}

bool hash_matches_library(TraceDiffusion& model, int class_id,
                          const GenerateOptions& opts, std::uint64_t seed,
                          std::uint64_t served_hash) {
  GenerateOptions one = opts;
  one.count = 1;
  return repro::serve::wire::hash_flows(
             model.generate_seeded(class_id, one, seed)) == served_hash;
}

bool check_acceptance(Checks& checks, std::uint64_t tcp_accepted,
                      std::uint64_t tcp_packets, const std::string& label) {
  const bool ok = tcp_packets > 0 && tcp_accepted == tcp_packets;
  checks.expect(ok, label + ": strict conntrack accepts every packet (" +
                        std::to_string(tcp_accepted) + "/" +
                        std::to_string(tcp_packets) + ")");
  return ok;
}

bool check_backlog(Checks& checks, double first_half, double second_half,
                   const std::string& label) {
  const bool ok = second_half <= first_half + 1.0;
  checks.expect(ok, label + ": backlog did not grow (mean outstanding " +
                        std::to_string(first_half) + " -> " +
                        std::to_string(second_half) + ")");
  return ok;
}

void put_latency(Result& result, double p50_seconds,
                 const std::vector<double>& samples, const std::string& what) {
  const Percentiles p = percentiles(samples);
  result.metrics["latency_p50_ms"] = p50_seconds * 1e3;
  result.note("latency.samples (" + what + ")", static_cast<double>(p.count));
  result.note("latency_p50_ms (pooled)", p.p50 * 1e3);
  result.note("latency_p90_ms (not gated)", p.p90 * 1e3);
  result.note("latency_p99_ms (not gated)", p.p99 * 1e3);
}

double fast_chunk_pps(const EmitPhase& phase) {
  if (phase.chunk_pps.empty()) return 0.0;
  return repro::quantile(phase.chunk_pps, kFastChunkQuantile);
}

double fast_chunk_p50_seconds(const EmitPhase& phase) {
  if (phase.chunk_p50.empty()) return 0.0;
  return repro::quantile(phase.chunk_p50, 1.0 - kFastChunkQuantile);
}

void put_emit_metrics(Result& result, const LayerTotals& t) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double packets = static_cast<double>(t.packets);
  const double self_seconds =
      t.phase_seconds - t.source_seconds - t.chain_seconds - t.pcap_seconds;
  result.metrics["replay.emit.source_share"] =
      ratio(t.source_seconds, t.phase_seconds);
  result.metrics["replay.emit.self_ns_per_pkt"] =
      ratio(self_seconds * 1e9, packets);
  result.metrics["replay.emit.underrun_frac"] =
      ratio(static_cast<double>(t.underruns),
            static_cast<double>(t.flows_scheduled));
  result.metrics["replay.chain_ns_per_pkt"] =
      ratio(t.chain_seconds * 1e9, packets);
  result.metrics["replay.accept_frac"] =
      ratio(static_cast<double>(t.tcp_accepted),
            static_cast<double>(t.tcp_packets));
  result.metrics["replay.connections"] = static_cast<double>(t.connections);
  result.metrics["net.pcap_ns_per_pkt"] = ratio(t.pcap_seconds * 1e9, packets);
  result.metrics["net.pcap_bytes_per_pkt"] =
      ratio(static_cast<double>(t.pcap_bytes), packets);
}

LayerCounters LayerCounters::now() {
  LayerCounters c;
  c.batches = repro::telemetry::Registry::instance()
                  .counter("serve.batch.dispatched")
                  .value();
  const auto f = repro::nn::TensorArena::scratch().stats();
  const auto q = repro::nn::kernels::quant_arena_stats();
  c.arena_allocs = f.allocs + q.allocs;
  c.arena_reuses = f.reuses + q.reuses;
  return c;
}

namespace {

/// Sums inclusive time of every span node called `name`.
double span_seconds(const repro::telemetry::SpanReport& node,
                    const std::string& name) {
  double total = node.name == name ? node.total_seconds : 0.0;
  for (const auto& child : node.children) total += span_seconds(child, name);
  return total;
}

/// Median wall time of `reps` calls of `fn`, in seconds.
double median_call_seconds(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = wall_now();
    fn();
    times.push_back(wall_now() - t0);
  }
  return median(std::move(times));
}

}  // namespace

std::uint64_t put_registry_metrics(Result& result, const LayerCounters& start) {
  auto& registry = repro::telemetry::Registry::instance();
  const repro::telemetry::MetricsSnapshot snap = registry.snapshot();
  const auto counter = [&snap](const char* name) -> double {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto hist = snap.histograms.find("serve.batch.size");
  result.metrics["serve.batch_flows_mean"] =
      hist == snap.histograms.end() ? 0.0 : hist->second.mean();
  const double submitted = counter("serve.requests.submitted");
  const double rejected = counter("serve.requests.rejected_queue_full") +
                          counter("serve.requests.rejected_invalid");
  result.metrics["serve.reject_frac"] =
      submitted > 0.0 ? rejected / submitted : 0.0;

  const LayerCounters end = LayerCounters::now();
  const double allocs = static_cast<double>(end.arena_allocs - start.arena_allocs);
  const double reuses = static_cast<double>(end.arena_reuses - start.arena_reuses);
  result.metrics["nn.arena_reuse_frac"] =
      allocs + reuses > 0.0 ? reuses / (allocs + reuses) : 0.0;

  // Share of pool-worker time spent waiting for a job to be picked up:
  // parallel.queue_wait (submit -> worker start) against the workers'
  // busy spans.
  const auto wait = snap.histograms.find("parallel.queue_wait");
  const double wait_s = wait == snap.histograms.end() ? 0.0 : wait->second.sum;
  const double busy_s =
      span_seconds(repro::telemetry::profile_snapshot(), "parallel.worker");
  result.metrics["parallel.wait_share"] =
      wait_s + busy_s > 0.0 ? wait_s / (wait_s + busy_s) : 0.0;
  return end.batches - start.batches;
}

void put_queue_metrics(
    Result& result,
    const std::vector<repro::serve::observe::FlightEvent>& events,
    double depth_start, double depth_end) {
  using repro::serve::observe::EventKind;
  std::unordered_map<std::uint64_t, double> admitted;
  std::unordered_map<std::uint64_t, double> model_start;
  std::vector<double> waits;
  std::vector<double> calls;
  for (const auto& e : events) {
    if (e.kind == EventKind::kModelStart) {
      model_start[e.batch_id] = e.time;
    } else if (e.kind == EventKind::kModelEnd) {
      const auto it = model_start.find(e.batch_id);
      if (it != model_start.end()) calls.push_back(e.time - it->second);
    } else if (e.kind == EventKind::kAdmitted) {
      admitted[e.request_id] = e.time;
    } else if (e.kind == EventKind::kCoalesced) {
      const auto it = admitted.find(e.request_id);
      if (it != admitted.end()) waits.push_back(e.time - it->second);
    }
  }
  result.metrics["serve.queue_wait_ms_p50"] = median(waits) * 1e3;
  result.note("serve.queue_wait.samples", static_cast<double>(waits.size()));
  result.note("serve.model_call_ms_p50 (in service)", median(calls) * 1e3);
  result.note("serve.model_calls", static_cast<double>(calls.size()));
  result.metrics["serve.queue_depth_start"] = depth_start;
  result.metrics["serve.queue_depth_end"] = depth_end;
}

void run_probes(TraceDiffusion& model, const GenerateOptions& b16_route,
                Result& result) {
  constexpr int kReps = 7;
  constexpr std::size_t kBatch = 16;
  const GenerateOptions& fast = b16_route;
  const GenerateOptions slow = default_route_options();

  // diffusion: one batched model call per route and batch size.
  std::vector<std::uint64_t> seeds(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) seeds[i] = 0x5eed + i;
  model.generate_with_flow_seeds(0, fast, seeds);  // warm the arenas
  result.metrics["diffusion.call_ms_b16"] =
      1e3 * median_call_seconds(kReps, [&] {
        model.generate_with_flow_seeds(0, fast, seeds);
      });
  const std::vector<std::uint64_t> one_seed = {0x5eed};
  result.metrics["diffusion.call_ms_b1"] =
      1e3 * median_call_seconds(kReps, [&] {
        model.generate_with_flow_seeds(0, slow, one_seed);
      });

  // U-Net: one eps evaluation under classifier-free guidance, i.e. a
  // forward over 2 x batch latents (cond + uncond).
  const auto& ucfg = model.unet().config();
  const std::size_t channels = ucfg.in_channels;
  const std::size_t length = model.config().packets;
  repro::Rng rng(7);
  const auto unet_ms = [&](std::size_t batch, repro::nn::Precision p) {
    repro::nn::Tensor x({2 * batch, channels, length});
    for (float& v : x.vec()) v = static_cast<float>(rng.gaussian());
    const std::vector<float> ts(2 * batch, 30.0f);
    std::vector<int> ids(2 * batch, 0);
    for (std::size_t i = batch; i < 2 * batch; ++i) {
      ids[i] = model.prompts().null_id();
    }
    model.unet().set_precision(p);
    model.unet().forward(x, ts, ids);
    const double s = median_call_seconds(
        kReps, [&] { model.unet().forward(x, ts, ids); });
    model.unet().set_precision(repro::nn::Precision::kFp32);
    return 1e3 * s;
  };
  result.metrics["diffusion.unet_step_ms_b16"] =
      unet_ms(kBatch, b16_route.precision);
  result.metrics["diffusion.unet_step_ms_b1"] =
      unet_ms(1, repro::nn::Precision::kFp32);

  // Autoencoder decode of a batch of 16 latents.
  repro::nn::Tensor latents({kBatch, channels, length});
  for (float& v : latents.vec()) v = static_cast<float>(rng.gaussian());
  result.metrics["diffusion.ae_decode_ms_b16"] =
      1e3 * median_call_seconds(kReps, [&] {
        model.autoencoder().decode_matrices(latents);
      });

  // nprint: decode generated (quantized, projected) matrices to flows.
  std::vector<repro::nprint::Matrix> matrices;
  for (std::size_t i = 0; i < 4; ++i) {
    matrices.push_back(model.generate_matrix(static_cast<int>(i % 2), fast));
  }
  const double decode_s = median_call_seconds(kReps, [&] {
    for (const auto& m : matrices) repro::nprint::decode_flow(m);
  });
  result.metrics["nprint.decode_us_per_flow"] =
      1e6 * decode_s / static_cast<double>(matrices.size());

  // nn kernels at the U-Net's largest conv GEMM: res_u2.conv1 maps
  // 4B -> 2B channels with kernel 3 over half-length rows, for a CFG
  // batch of 2 x 16 latents: C[2B, 32 * L/2] = W[2B, 12B] . X.
  const std::size_t base = ucfg.base_channels;
  const std::size_t gm = 2 * base;
  const std::size_t gk = 4 * base * 3;
  const std::size_t gn = 2 * kBatch * (length / 2);
  std::vector<float> a(gm * gk), b(gk * gn), c(gm * gn);
  for (float& v : a) v = static_cast<float>(rng.gaussian());
  for (float& v : b) v = static_cast<float>(rng.gaussian());
  const repro::nn::kernels::QuantizedTensor aq =
      repro::nn::kernels::quantize_tensor(a.data(), a.size());
  const double ops = 2.0 * static_cast<double>(gm * gk * gn);
  constexpr int kInner = 50;
  const double q_s = median_call_seconds(kReps, [&] {
    for (int i = 0; i < kInner; ++i) {
      repro::nn::kernels::qgemm_nn(gm, gk, gn, aq, b.data(), c.data());
    }
  });
  const double f_s = median_call_seconds(kReps, [&] {
    for (int i = 0; i < kInner; ++i) {
      repro::nn::kernels::gemm_nn(gm, gk, gn, a.data(), b.data(), c.data());
    }
  });
  result.metrics["nn.qgemm_gops"] = ops * kInner / q_s * 1e-9;
  result.metrics["nn.gemm_gflops"] = ops * kInner / f_s * 1e-9;
  result.note("probe.gemm_shape_mkn", std::to_string(gm) + "x" +
                                          std::to_string(gk) + "x" +
                                          std::to_string(gn));

  // serve.net: encode and decode of a one-flow reply on the default route.
  repro::serve::Response response;
  response.request_id = 1;
  response.flows = model.generate_seeded(0, slow, 0x5eed);
  response.model_version = "perfbench";
  response.batch_flows = 1;
  std::vector<std::uint8_t> frame;
  constexpr int kWireInner = 200;
  const double enc_s = median_call_seconds(kReps, [&] {
    for (int i = 0; i < kWireInner; ++i) {
      frame.clear();
      repro::serve::wire::append_response_frame(frame, response);
    }
  });
  repro::serve::wire::FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  repro::serve::wire::Frame decoded;
  decoder.next(decoded);
  bool parsed = true;
  const double dec_s = median_call_seconds(kReps, [&] {
    for (int i = 0; i < kWireInner; ++i) {
      parsed = parsed && repro::serve::wire::parse_response_payload(
                             decoded.payload)
                             .has_value();
    }
  });
  result.checks.expect(parsed, "probe: a response frame failed to parse");
  result.metrics["serve.net.encode_us"] = 1e6 * enc_s / kWireInner;
  result.metrics["serve.net.decode_us"] = 1e6 * dec_s / kWireInner;
  result.metrics["serve.net.reply_bytes"] = static_cast<double>(frame.size());
}

}  // namespace perfbench

#include "decorators.hpp"

#include "serve/net/protocol.hpp"

namespace perfbench {

using repro::net::Flow;
using repro::net::Packet;

std::uint64_t packet_fingerprint(const Packet& packet) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(packet.ip.src_addr);
  mix(packet.ip.dst_addr);
  if (packet.tcp) {
    mix(packet.tcp->src_port);
    mix(packet.tcp->dst_port);
    mix(packet.tcp->seq);
    mix(packet.tcp->ack);
  } else if (packet.udp) {
    mix(packet.udp->src_port);
    mix(packet.udp->dst_port);
  }
  mix(packet.payload.size());
  return h;
}

DeliveryTracker::DeliveryTracker(std::size_t max_samples,
                                 std::size_t chunk_flows)
    : max_samples_(max_samples), chunk_flows_(chunk_flows) {}

void DeliveryTracker::start_chunk(double start) {
  chunk_start_ = start;
  chunk_packets_ = 0;
  chunk_latencies_.clear();
}

void DeliveryTracker::record(double latency, double now) {
  ++completed_;
  if (latencies_.size() < max_samples_) {
    latencies_.push_back(latency);
  } else {
    const std::uint64_t slot = reservoir_rng_.uniform_u64(completed_);
    if (slot < max_samples_) latencies_[slot] = latency;
  }
  if (chunk_flows_ == 0) return;
  chunk_latencies_.push_back(latency);
  if (chunk_latencies_.size() < chunk_flows_) return;
  chunks_.push_back(Chunk{
      static_cast<double>(chunk_packets_) / (now - chunk_start_),
      median(chunk_latencies_)});
  start_chunk(now);
}

void DeliveryTracker::fetched(double ask_time, const Flow& flow) {
  Entry entry;
  entry.ask_time = ask_time;
  entry.fingerprints.reserve(flow.packets.size());
  for (const Packet& p : flow.packets) {
    entry.fingerprints.push_back(packet_fingerprint(p));
  }
  fifo_.push_back(std::move(entry));
  // A flow without packets is delivered the moment it is fetched.
  if (fifo_.back().fingerprints.empty() && fifo_.size() == 1) {
    complete_front();
  }
}

void DeliveryTracker::delivered(const Packet& packet) {
  ++chunk_packets_;
  if (fifo_.empty()) {
    ++mismatches_;
    return;
  }
  Entry& front = fifo_.front();
  if (packet_fingerprint(packet) != front.fingerprints[front.next]) {
    ++mismatches_;
  }
  if (++front.next == front.fingerprints.size()) complete_front();
}

void DeliveryTracker::complete_front() {
  const double now = wall_now();
  record(now - fifo_.front().ask_time, now);
  fifo_.pop_front();
  // Empty flows queued behind the completed one are done as well.
  while (!fifo_.empty() && fifo_.front().fingerprints.empty()) {
    record(now - fifo_.front().ask_time, now);
    fifo_.pop_front();
  }
}

TimedSource::TimedSource(repro::replay::emit::FlowSource& inner,
                         DeliveryTracker& tracker, SpanLog& spans,
                         std::uint64_t parent_span,
                         std::uint64_t first_ordinal, std::size_t sample_every)
    : inner_(inner),
      tracker_(tracker),
      spans_(spans),
      parent_span_(parent_span),
      ordinal_(first_ordinal),
      sample_every_(sample_every) {}

std::optional<Flow> TimedSource::next_flow() {
  const double t0 = wall_now();
  std::optional<Flow> flow = inner_.next_flow();
  const double t1 = wall_now();
  seconds_ += t1 - t0;
  if (!flow) return flow;
  const std::uint64_t ordinal = ordinal_++;
  ++fetched_;
  tracker_.fetched(t0, *flow);
  if (sample_every_ > 0 && ordinal % sample_every_ == 0) {
    samples_.emplace_back(ordinal, repro::serve::wire::hash_flows({*flow}));
  }
  if (spans_.enabled()) {
    spans_.add(Span{"replay.emit.source.next_flow", t0, t1, spans_.next_id(),
                    parent_span_, ordinal + 1});
  }
  return flow;
}

TeeSink::TeeSink(std::vector<repro::replay::emit::PacketSink*> children,
                 DeliveryTracker& tracker, bool timed)
    : children_(std::move(children)),
      child_seconds_(children_.size(), 0.0),
      tracker_(tracker),
      timed_(timed) {}

void TeeSink::emit(const Packet& packet, double time) {
  ++packets_;
  if (timed_) {
    double t = wall_now();
    for (std::size_t i = 0; i < children_.size(); ++i) {
      children_[i]->emit(packet, time);
      const double after = wall_now();
      child_seconds_[i] += after - t;
      t = after;
    }
  } else {
    for (auto* child : children_) child->emit(packet, time);
  }
  tracker_.delivered(packet);
}

void TeeSink::finish() {
  for (auto* child : children_) child->finish();
}

MemoryStreamBuf::MemoryStreamBuf(std::size_t capacity) : buffer_(capacity) {
  setp(buffer_.data(), buffer_.data() + buffer_.size());
}

std::uint64_t MemoryStreamBuf::bytes() const noexcept {
  return wrapped_ + static_cast<std::uint64_t>(pptr() - pbase());
}

MemoryStreamBuf::int_type MemoryStreamBuf::overflow(int_type ch) {
  wrapped_ += static_cast<std::uint64_t>(pptr() - pbase());
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

}  // namespace perfbench

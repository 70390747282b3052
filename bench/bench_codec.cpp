// E13 — codec microbenchmarks (google-benchmark): raw field arithmetic and
// RLNC encode/recode/decode. These bound the CPU cost per delivered byte of
// the whole system.

#include <benchmark/benchmark.h>

#include "metrics_session.hpp"

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "gf/dispatch.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace {

using ncast::Rng;
using Gf = ncast::gf::Gf256;

void BM_Gf256RegionMadd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> dst(n), src(n);
  Rng rng(1);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.below(256));
  std::uint8_t c = 7;
  for (auto _ : state) {
    Gf::region_madd(dst.data(), src.data(), c, n);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<std::uint8_t>(c * 3 + 1);
    if (c == 0) c = 1;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Gf256RegionMadd)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Gf2_16RegionMadd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint16_t> dst(n), src(n);
  Rng rng(2);
  for (auto& b : src) b = static_cast<std::uint16_t>(rng.below(65536));
  std::uint16_t c = 7;
  for (auto _ : state) {
    ncast::gf::Gf2_16::region_madd(dst.data(), src.data(), c, n);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<std::uint16_t>(c * 3 + 1);
    if (c == 0) c = 1;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_Gf2_16RegionMadd)->Arg(64)->Arg(1024)->Arg(8192);

std::vector<std::vector<std::uint8_t>> random_source(std::size_t g,
                                                     std::size_t symbols,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> src(g, std::vector<std::uint8_t>(symbols));
  for (auto& row : src) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return src;
}

void BM_RlncEncode(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(3);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  for (auto _ : state) {
    auto p = enc.emit(rng);
    benchmark::DoNotOptimize(p.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncEncode)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RlncDecodeGeneration(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(4);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  // Pre-generate enough packets (with slack for rare dependencies).
  std::vector<ncast::coding::CodedPacket<Gf>> packets;
  for (std::size_t i = 0; i < g + 8; ++i) packets.push_back(enc.emit(rng));
  for (auto _ : state) {
    ncast::coding::Decoder<Gf> dec(0, g, symbols);
    for (const auto& p : packets) {
      if (dec.complete()) break;
      dec.absorb(p);
    }
    benchmark::DoNotOptimize(dec.rank());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g * symbols));
}
BENCHMARK(BM_RlncDecodeGeneration)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_RlncRecode(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(5);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  ncast::coding::Decoder<Gf> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));
  for (auto _ : state) {
    auto p = rec.emit(rng);
    benchmark::DoNotOptimize(p->payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncRecode)->Arg(16)->Arg(32)->Arg(64);

// The allocation-free variant the simulators actually run: one packet whose
// buffers are recycled across emissions. The delta to BM_RlncRecode is the
// cost of per-emission packet allocation.
void BM_RlncRecodeInto(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const std::size_t symbols = 1024;
  Rng rng(5);
  ncast::coding::SourceEncoder<Gf> enc(0, random_source(g, symbols, rng));
  ncast::coding::Decoder<Gf> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));
  ncast::coding::CodedPacket<Gf> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.emit_into(out, rng));
    benchmark::DoNotOptimize(out.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols));
}
BENCHMARK(BM_RlncRecodeInto)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

// Expanded BENCHMARK_MAIN() with a MetricsSession wrapped around the run so
// the registry counters and histograms (decoder.*, recoder.*) land in
// BENCH_codec.json.
int main(int argc, char** argv) {
  ncast::bench::MetricsSession session("codec");
  session.param("k", "g in 16..128");  // generation sizes; no overlay here
  session.param("d", "n/a");
  session.param("n", 1024);  // symbols per packet
  session.param("seed", std::uint64_t{1});
  // Which GF kernel tier these numbers were measured on (see src/gf/dispatch).
  session.param("gf_tier", ncast::gf::tier_name(ncast::gf::active_tier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

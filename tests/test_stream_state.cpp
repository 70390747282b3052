// Unit tests for the shared endpoint stream state (origin setup, the stream
// announcement, plan bootstrap, wire absorb/emit, verification hooks,
// reassembly).

#include "node/stream_state.hpp"

#include <gtest/gtest.h>

#include "coding/file_codec.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using node::Message;
using node::MessageType;
using node::StreamState;

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(StreamState, StartsUninitialized) {
  StreamState s;
  EXPECT_FALSE(s.initialized());
  EXPECT_FALSE(s.decoded());
  EXPECT_EQ(s.rank(), 0u);
  Rng rng(1);
  EXPECT_FALSE(s.emit_wire(rng).has_value());
}

TEST(StreamState, RejectsNonsensePlans) {
  StreamState s;
  EXPECT_FALSE(s.initialize(64, 0, 8, 8));
  EXPECT_FALSE(s.initialize(64, 2, 0, 8));
  EXPECT_FALSE(s.initialize(64, 2, 8, 0));
  EXPECT_FALSE(s.initialized());
  EXPECT_TRUE(s.initialize(64, 1, 8, 8));
  EXPECT_TRUE(s.initialized());
}

TEST(StreamState, EndToEndRoundTrip) {
  Rng rng(2);
  const auto content = random_bytes(300, rng);
  coding::FileEncoder encoder(content, 8, 16);  // 128 B/gen -> 3 generations
  StreamState s;
  ASSERT_TRUE(s.initialize(content.size(), 3, 8, 16));

  std::size_t fed = 0;
  while (!s.decoded()) {
    const auto gen = rng.below(encoder.generations());
    ASSERT_TRUE(s.absorb_wire(coding::serialize(encoder.emit(gen, rng))));
    ASSERT_LT(++fed, 500u);
  }
  EXPECT_EQ(s.data(), content);
  EXPECT_EQ(s.rank(), 24u);
}

TEST(StreamState, DropsMalformedAndForeignWire) {
  StreamState s;
  ASSERT_TRUE(s.initialize(64, 1, 8, 8));
  EXPECT_FALSE(s.absorb_wire({1, 2, 3}));
  // Well-formed packet from an out-of-range generation.
  coding::CodedPacket<gf::Gf256> p;
  p.generation = 5;
  p.coeffs.assign(8, 1);
  p.payload.assign(8, 1);
  EXPECT_FALSE(s.absorb_wire(coding::serialize(p)));
  // Right generation and g, wrong symbol count: dropped before any decoder
  // sees (and counts) it.
  const auto& received = obs::metrics().counter("decoder.packets_received");
  const std::uint64_t before = received.value();
  p.generation = 0;
  p.payload.assign(16, 1);
  EXPECT_FALSE(s.absorb_wire(coding::serialize(p)));
  EXPECT_EQ(received.value(), before);
  EXPECT_EQ(s.rank(), 0u);
}

TEST(StreamState, OneAbsorbPerAcceptedFrame) {
  // The generation's one buffer both decodes and recodes, so every accepted
  // frame is eliminated exactly once — redundant ones after decode included.
  Rng rng(9);
  const auto content = random_bytes(256, rng);
  coding::FileEncoder encoder(content, 8, 16);  // 2 generations
  StreamState s;
  ASSERT_TRUE(s.initialize(content.size(), 2, 8, 16));
  const auto& received = obs::metrics().counter("decoder.packets_received");
  const std::uint64_t before = received.value();
  std::uint64_t accepted = 0;
  for (int i = 0; i < 60; ++i) {
    const auto gen = rng.below(encoder.generations());
    accepted += s.absorb_wire(coding::serialize(encoder.emit(gen, rng))) ? 1 : 0;
    EXPECT_FALSE(s.absorb_wire({1, 2, 3}));
  }
  EXPECT_TRUE(s.decoded());
  EXPECT_EQ(accepted, 60u);
  EXPECT_EQ(received.value() - before, NCAST_OBS_ENABLED ? accepted : 0u);
}

TEST(StreamState, RelayRoundTripThroughEmit) {
  // A relay that has absorbed part of a generation must emit wire packets
  // that a downstream state accepts and can finish decoding from.
  Rng rng(3);
  const auto content = random_bytes(128, rng);
  coding::FileEncoder encoder(content, 8, 16);
  StreamState relay, sink;
  ASSERT_TRUE(relay.initialize(content.size(), 1, 8, 16));
  ASSERT_TRUE(sink.initialize(content.size(), 1, 8, 16));

  while (!relay.decoded()) {
    relay.absorb_wire(coding::serialize(encoder.emit(0, rng)));
  }
  std::size_t hops = 0;
  while (!sink.decoded()) {
    const auto wire = relay.emit_wire(rng);
    ASSERT_TRUE(wire.has_value());
    sink.absorb_wire(*wire);
    ASSERT_LT(++hops, 200u);
  }
  EXPECT_EQ(sink.data(), content);
}

TEST(StreamState, KeyedStateRejectsForgeries) {
  Rng rng(4);
  const auto content = random_bytes(128, rng);
  coding::FileEncoder encoder(content, 8, 16);
  const auto source = coding::generation_packets(content, encoder.plan(), 0);
  const auto keys = coding::NullKeySet<gf::Gf256>::generate(0, source, 3, rng);

  StreamState s;
  ASSERT_TRUE(s.initialize(content.size(), 1, 8, 16));
  s.install_keys({keys.serialize()});
  EXPECT_TRUE(s.verification_enabled());

  // Honest packets pass...
  EXPECT_TRUE(s.absorb_wire(coding::serialize(encoder.emit(0, rng))));
  // ...forgeries do not.
  auto forged = encoder.emit(0, rng);
  forged.payload[0] ^= 0x77;
  EXPECT_FALSE(s.absorb_wire(coding::serialize(forged)));
}

TEST(StreamState, RejectsGenCountDisagreeingWithPlan) {
  // The announced generation count must agree with the plan recomputed from
  // data_size — a mismatched accept would build buffers that can never
  // reassemble the content.
  StreamState s;
  EXPECT_FALSE(s.initialize(300, 2, 8, 16));  // plan says 3
  EXPECT_FALSE(s.initialize(300, 4, 8, 16));
  EXPECT_FALSE(s.initialize(128, 2, 8, 16));  // plan says 1
  EXPECT_FALSE(s.initialized());
  EXPECT_TRUE(s.initialize(300, 3, 8, 16));
  EXPECT_TRUE(s.initialized());
}

TEST(StreamState, RejectsStructureWithWrongGenerationSize) {
  StreamState s;
  EXPECT_FALSE(
      s.initialize(128, 1, 8, 16, coding::GenerationStructure::banded(16, 4)));
  EXPECT_TRUE(
      s.initialize(128, 1, 8, 16, coding::GenerationStructure::banded(8, 4)));
}

TEST(StreamState, BandedEndToEndWithRelayDensification) {
  // A banded stream carries mixed traffic: compact strips straight from the
  // encoder plus dense rows from relays (recoding densifies bands). Both
  // must be admitted, and the sink must still reconstruct exactly.
  Rng rng(5);
  const auto content = random_bytes(256, rng);
  coding::FileEncoder encoder(content, 16, 8,
                              coding::StructureSpec::banded(4, true));
  StreamState relay, sink;
  ASSERT_TRUE(relay.initialize(content.size(), 2, 16, 8, encoder.structure()));
  ASSERT_TRUE(sink.initialize(content.size(), 2, 16, 8, encoder.structure()));

  std::size_t fed = 0;
  while (!sink.decoded()) {
    ASSERT_LT(++fed, 2000u);
    const auto gen = rng.below(encoder.generations());
    // Encoder-direct strip to both endpoints (v2 compact framing).
    const auto wire = coding::serialize_stream(encoder.emit(gen, rng),
                                               encoder.structure());
    relay.absorb_wire(wire);
    sink.absorb_wire(wire);
    // Relay-recoded row to the sink (dense v1 framing after densification).
    if (const auto relayed = relay.emit_wire(rng)) sink.absorb_wire(*relayed);
  }
  EXPECT_EQ(sink.data(), content);
}

TEST(StreamState, OverlappedEndToEndStructurePreserving) {
  // Overlapped recoding is class-local, so every hop — encoder-direct or
  // relayed — stays within the structure and the v2 compact framing.
  Rng rng(6);
  const auto content = random_bytes(256, rng);
  coding::FileEncoder encoder(content, 16, 8,
                              coding::StructureSpec::overlapping(6, 2));
  StreamState relay, sink;
  ASSERT_TRUE(relay.initialize(content.size(), 2, 16, 8, encoder.structure()));
  ASSERT_TRUE(sink.initialize(content.size(), 2, 16, 8, encoder.structure()));

  std::size_t fed = 0;
  while (!sink.decoded()) {
    ASSERT_LT(++fed, 4000u);
    const auto gen = rng.below(encoder.generations());
    relay.absorb_wire(coding::serialize_stream(encoder.emit(gen, rng),
                                               encoder.structure()));
    if (const auto relayed = relay.emit_wire(rng)) {
      ASSERT_TRUE(sink.absorb_wire(*relayed));
    }
  }
  EXPECT_EQ(sink.data(), content);
}

TEST(StreamState, StructuredStreamRejectsForeignShapes) {
  // A banded stream rejects strips whose width disagrees with the announced
  // structure, even when the packet would be well-formed under some other
  // structure.
  Rng rng(7);
  const auto content = random_bytes(128, rng);
  coding::FileEncoder wide(content, 16, 8, coding::StructureSpec::banded(8));
  StreamState s;
  ASSERT_TRUE(s.initialize(content.size(), 1, 16, 8,
                           coding::GenerationStructure::banded(16, 4)));
  EXPECT_FALSE(s.absorb_wire(
      coding::serialize_stream(wide.emit(0, rng), wide.structure())));
  EXPECT_EQ(s.rank(), 0u);
}

TEST(StreamState, KeyedBandedStateVerifiesStrips) {
  // Null-key verification must work on compact band strips: validity
  // commutes with scatter-expansion, so a strip is checked by expanding it
  // onto the dense basis first.
  Rng rng(8);
  const auto content = random_bytes(128, rng);
  coding::FileEncoder encoder(content, 16, 8,
                              coding::StructureSpec::banded(4, true));
  const auto source = coding::generation_packets(content, encoder.plan(), 0);
  const auto keys = coding::NullKeySet<gf::Gf256>::generate(0, source, 3, rng);

  StreamState s;
  ASSERT_TRUE(s.initialize(content.size(), 1, 16, 8, encoder.structure()));
  s.install_keys({keys.serialize()});
  EXPECT_TRUE(s.verification_enabled());

  EXPECT_TRUE(s.absorb_wire(
      coding::serialize_stream(encoder.emit(0, rng), encoder.structure())));
  auto forged = encoder.emit(0, rng);
  forged.payload[0] ^= 0x77;
  EXPECT_FALSE(s.absorb_wire(
      coding::serialize_stream(forged, encoder.structure())));
}

TEST(StreamState, PartialKeyBundlesDisableVerification) {
  StreamState s;
  ASSERT_TRUE(s.initialize(256, 2, 8, 16));
  s.install_keys({{1, 2, 3}});  // wrong count AND malformed
  EXPECT_FALSE(s.verification_enabled());
  s.install_keys({{1, 2, 3}, {4, 5, 6}});  // right count, malformed
  EXPECT_FALSE(s.verification_enabled());
}

/// An origin over 300 random bytes at g = 8 with 8-byte symbols (5
/// generations) and two null keys per generation, and its announcement.
struct Announced {
  explicit Announced(const coding::StructureSpec& spec) {
    Rng rng(11);
    origin.initialize_source(random_bytes(300, rng), 8, 8, spec, 2, rng);
    accept.type = MessageType::kJoinAccept;
    origin.announce(accept);
  }
  StreamState origin;
  Message accept;
};

TEST(StreamState, AnnouncementRoundTrip) {
  // announce() is the one writer and initialize(const Message&) the one
  // reader of the stream announcement: a receiver set up from an origin's
  // accept agrees on plan, structure and verification, and decodes the
  // origin's uploads byte-identically.
  for (const auto& spec : {coding::StructureSpec::dense(),
                           coding::StructureSpec::banded(3, true),
                           coding::StructureSpec::overlapping(4, 1)}) {
    Announced a(spec);
    ASSERT_TRUE(a.origin.is_source());
    ASSERT_TRUE(a.origin.decoded());
    StreamState receiver;
    ASSERT_TRUE(receiver.initialize(a.accept));
    EXPECT_FALSE(receiver.is_source());
    EXPECT_EQ(receiver.plan().data_size, a.origin.plan().data_size);
    EXPECT_EQ(receiver.plan().generations, a.origin.plan().generations);
    EXPECT_EQ(receiver.plan().generation_size,
              a.origin.plan().generation_size);
    EXPECT_EQ(receiver.plan().symbols, a.origin.plan().symbols);
    EXPECT_EQ(receiver.structure(), a.origin.structure());
    EXPECT_TRUE(a.origin.verification_enabled());
    EXPECT_TRUE(receiver.verification_enabled());

    // A relay forwards exactly the announcement it verified.
    Message grant;
    receiver.announce(grant);
    EXPECT_EQ(grant.key_bundles, a.accept.key_bundles);
    EXPECT_EQ(grant.structure_kind, a.accept.structure_kind);
    EXPECT_EQ(grant.band_width, a.accept.band_width);

    Rng rng(12);
    std::size_t sent = 0;
    while (!receiver.decoded()) {
      ASSERT_LT(++sent, 4000u);
      const Message up = a.origin.upload(node::kServerAddress, 1, 2, rng);
      ASSERT_EQ(up.type, MessageType::kData);
      EXPECT_EQ(up.to, 1u);
      EXPECT_EQ(up.column, 2u);
      ASSERT_TRUE(receiver.absorb_wire(up.wire));
    }
    EXPECT_EQ(receiver.data(), a.origin.data());
    EXPECT_EQ(receiver.data(), a.origin.source_data());
  }
}

TEST(StreamState, UploadIsAKeepaliveUntilTheRelayHasData) {
  Announced a(coding::StructureSpec::dense());
  StreamState relay;
  ASSERT_TRUE(relay.initialize(a.accept));
  Rng rng(13);
  const Message idle = relay.upload(5, 6, 1, rng);
  EXPECT_EQ(idle.type, MessageType::kKeepalive);
  EXPECT_TRUE(idle.wire.empty());
  ASSERT_TRUE(relay.absorb_wire(a.origin.upload(0, 5, 1, rng).wire));
  EXPECT_EQ(relay.upload(5, 6, 1, rng).type, MessageType::kData);
}

TEST(StreamState, AnnouncementRefusesNonsenseDescriptors) {
  // Each corrupted announcement leaves the receiver uninitialized.
  const auto refused = [](const char* what, auto corrupt) {
    Announced a(coding::StructureSpec::overlapping(4, 1));
    corrupt(a.accept);
    StreamState receiver;
    EXPECT_FALSE(receiver.initialize(a.accept)) << what;
    EXPECT_FALSE(receiver.initialized()) << what;
  };
  refused("kind byte 3", [](Message& m) { m.structure_kind = 3; });
  refused("band width > g", [](Message& m) { m.band_width = 9; });
  refused("overlap >= width", [](Message& m) { m.class_overlap = 4; });
  refused("wrap on a non-banded kind", [](Message& m) {
    m.structure_wrap = 1;
  });
  refused("gen_count disagrees with the plan", [](Message& m) {
    m.gen_count += 1;
  });
}

TEST(StreamState, MalformedKeyBundlesOnlyTurnVerificationOff) {
  Announced a(coding::StructureSpec::banded(3, true));
  for (const auto& bundles :
       {std::vector<std::vector<std::uint8_t>>{{1, 2, 3}},
        std::vector<std::vector<std::uint8_t>>(5, {1, 2, 3})}) {
    Message m = a.accept;
    m.key_bundles = bundles;
    StreamState receiver;
    ASSERT_TRUE(receiver.initialize(m));
    EXPECT_TRUE(receiver.initialized());
    EXPECT_FALSE(receiver.verification_enabled());
    Message grant;
    receiver.announce(grant);
    EXPECT_TRUE(grant.key_bundles.empty());
  }
}

}  // namespace
}  // namespace ncast

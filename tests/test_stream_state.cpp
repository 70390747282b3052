// Unit tests for the shared endpoint stream state (origin setup, the stream
// announcement, plan bootstrap, wire absorb/emit, verification hooks,
// reassembly, and the out-link masks the children's haves set).

#include "node/stream_state.hpp"

#include <gtest/gtest.h>

#include "coding/file_codec.hpp"
#include "coding/wire.hpp"
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
    ASSERT_NE(grant.body(), nullptr);
    EXPECT_EQ(grant.body()->key_bundles, a.accept.body()->key_bundles);
    EXPECT_EQ(grant.body()->structure_kind, a.accept.body()->structure_kind);
    EXPECT_EQ(grant.body()->band_width, a.accept.body()->band_width);

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
  refused("kind byte 3",
          [](Message& m) { m.mutable_body().structure_kind = 3; });
  refused("band width > g",
          [](Message& m) { m.mutable_body().band_width = 9; });
  refused("overlap >= width",
          [](Message& m) { m.mutable_body().class_overlap = 4; });
  refused("wrap on a non-banded kind", [](Message& m) {
    m.mutable_body().structure_wrap = 1;
  });
  refused("gen_count disagrees with the plan", [](Message& m) {
    m.mutable_body().gen_count += 1;
  });
  refused("an accept with no body", [](Message& m) {
    const MessageType type = m.type;
    m = Message{};
    m.type = type;
  });
}

TEST(StreamState, MalformedKeyBundlesOnlyTurnVerificationOff) {
  Announced a(coding::StructureSpec::banded(3, true));
  for (const auto& bundles :
       {std::vector<std::vector<std::uint8_t>>{{1, 2, 3}},
        std::vector<std::vector<std::uint8_t>>(5, {1, 2, 3})}) {
    Message m = a.accept;
    m.mutable_body().key_bundles = bundles;
    StreamState receiver;
    ASSERT_TRUE(receiver.initialize(m));
    EXPECT_TRUE(receiver.initialized());
    EXPECT_FALSE(receiver.verification_enabled());
    Message grant;
    receiver.announce(grant);
    ASSERT_NE(grant.body(), nullptr);
    EXPECT_TRUE(grant.body()->key_bundles.empty());
  }
}

/// A transport that keeps what it is handed instead of delivering it.
struct Outbox final : node::Transport {
  void crash(node::Address) override {}
  void revive(node::Address) override {}
  bool crashed(node::Address) const override { return false; }
  std::vector<Message> sent;

 protected:
  void route(Message m) override { sent.push_back(std::move(m)); }
};

/// What `origin` serves in one tick, one message per out-link.
std::vector<Message> serve_once(StreamState& origin, Rng& rng) {
  Outbox out;
  origin.serve(node::kServerAddress, out, rng);
  return out.sent;
}

std::vector<MessageType> types(const std::vector<Message>& sent) {
  std::vector<MessageType> out;
  for (const Message& m : sent) out.push_back(m.type);
  return out;
}

Message have(node::Address from, node::LinkId link, std::uint32_t gen) {
  Message m;
  m.type = MessageType::kHave;
  m.from = from;
  m.to = node::kServerAddress;
  m.column = link;
  m.subject = gen;
  return m;
}

constexpr MessageType kData = MessageType::kData;
constexpr MessageType kKeepalive = MessageType::kKeepalive;

TEST(StreamState, HavesMaskTheirLinkOnly) {
  // The origin feeds node 7 on link 3 and node 8 on link 4. Link 3's haves
  // for generations 0-3 leave generation 4 as its only draw; once all five
  // are in, link 3 carries keepalives while link 4 still gets data.
  Announced a(coding::StructureSpec::dense());
  ASSERT_EQ(a.origin.plan().generations, 5u);
  a.origin.feed(3, 7);
  a.origin.feed(4, 8);
  Rng rng(14);
  for (std::uint32_t g = 0; g < 4; ++g) a.origin.apply_have(have(7, 3, g));
  for (int tick = 0; tick < 30; ++tick) {
    const auto sent = serve_once(a.origin, rng);
    ASSERT_EQ(types(sent), (std::vector<MessageType>{kData, kData}));
    const auto p = coding::deserialize<gf::Gf256>(sent[0].wire);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->generation, 4u);
  }
  a.origin.apply_have(have(7, 3, 4));
  EXPECT_EQ(types(serve_once(a.origin, rng)),
            (std::vector<MessageType>{kKeepalive, kData}));
  // The link key still belongs to each upload.
  const auto sent = serve_once(a.origin, rng);
  EXPECT_EQ(sent[0].column, 3u);
  EXPECT_EQ(sent[0].to, 7u);
}

TEST(StreamState, HavesFromStrangersOrPastThePlanAreIgnored) {
  // A have is untrusted wire input: from a node the link does not feed, on
  // a link the state does not serve, or naming a generation past the
  // plan's, it masks nothing.
  Announced a(coding::StructureSpec::dense());
  a.origin.feed(3, 7);
  a.origin.feed(4, 8);
  for (std::uint32_t g = 0; g < 5; ++g) {
    a.origin.apply_have(have(8, 3, g));  // node 8 is link 4's child
    a.origin.apply_have(have(7, 4, g));  // link 4 does not feed node 7
    a.origin.apply_have(have(7, 9, g));  // no link 9
  }
  a.origin.apply_have(have(7, 3, 5));  // the plan has generations 0-4
  a.origin.apply_have(have(7, 3, 0xffffffffu));
  Rng rng(15);
  for (int tick = 0; tick < 20; ++tick) {
    EXPECT_EQ(types(serve_once(a.origin, rng)),
              (std::vector<MessageType>{kData, kData}));
  }
  // An uninitialized state has no plan to check a have against.
  StreamState blank;
  blank.feed(3, 7);
  blank.apply_have(have(7, 3, 0));
  EXPECT_EQ(types(serve_once(blank, rng)),
            (std::vector<MessageType>{kKeepalive}));
}

TEST(StreamState, FeedingAChildStartsAnEmptyMask) {
  // Attach, repair, offload/restore and re-admission all point a link at a
  // child through feed(), and each starts the link with every generation
  // open — even for the child it fed before — so none needs a handshake.
  Announced a(coding::StructureSpec::dense());
  a.origin.feed(3, 7);
  for (std::uint32_t g = 0; g < 5; ++g) a.origin.apply_have(have(7, 3, g));
  Rng rng(16);
  ASSERT_EQ(types(serve_once(a.origin, rng)),
            (std::vector<MessageType>{kKeepalive}));
  a.origin.feed(3, 9);
  EXPECT_EQ(types(serve_once(a.origin, rng)), (std::vector<MessageType>{kData}));
  a.origin.apply_have(have(7, 3, 0));  // node 7's late have: not link 3's now
  for (std::uint32_t g = 0; g < 5; ++g) a.origin.apply_have(have(9, 3, g));
  ASSERT_EQ(types(serve_once(a.origin, rng)),
            (std::vector<MessageType>{kKeepalive}));
  a.origin.feed(3, 9);
  EXPECT_EQ(types(serve_once(a.origin, rng)), (std::vector<MessageType>{kData}));
}

TEST(StreamState, ReceiveAnswersEveryFrameOfAFinishedGeneration) {
  // The child keeps no state: each accepted frame of a generation it holds
  // in full is answered with a have to the frame's sender on the frame's
  // link; frames of unfinished generations and dropped frames get none.
  Announced a(coding::StructureSpec::dense());
  StreamState relay;
  ASSERT_TRUE(relay.initialize(a.accept));
  const coding::FileEncoder encoder(a.origin.data(), 8, 8);
  Rng rng(17);
  const auto frame = [&](std::uint32_t gen) {
    Message m;
    m.type = MessageType::kData;
    m.from = 4;
    m.to = 6;
    m.column = 2;
    m.wire = coding::serialize(encoder.emit(gen, rng));
    return m;
  };
  Outbox net;
  std::size_t after_full = 0;
  for (int fed = 0; after_full < 5; ++fed) {
    ASSERT_LT(fed, 100);
    const std::size_t before = net.sent.size();
    ASSERT_TRUE(relay.receive(6, frame(1), net));
    const bool full = relay.rank() == 8;  // only generation 1 has data
    ASSERT_EQ(net.sent.size(), before + (full ? 1 : 0)) << fed;
    after_full += full ? 1 : 0;
  }
  for (const Message& h : net.sent) {
    EXPECT_EQ(h.type, MessageType::kHave);
    EXPECT_EQ(h.from, 6u);
    EXPECT_EQ(h.to, 4u);
    EXPECT_EQ(h.column, 2u);
    EXPECT_EQ(h.subject, 1u);
  }
  ASSERT_TRUE(relay.receive(6, frame(0), net));  // generation 0 is unfinished
  Message garbage = frame(1);
  garbage.wire = {1, 2, 3};
  EXPECT_FALSE(relay.receive(6, garbage, net));
  EXPECT_EQ(net.sent.size(), 5u);
}

}  // namespace
}  // namespace ncast

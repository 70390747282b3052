#include "node/gossip_peer.hpp"

#include <algorithm>

namespace ncast::node {

namespace {

/// The seed of everything peer `address` draws in a swarm seeded `seed`.
std::uint64_t peer_seed(std::uint64_t seed, Address address) {
  return seed ^ (static_cast<std::uint64_t>(address) << 18);
}

}  // namespace

GossipPeer::GossipPeer(Address address, GossipPeerConfig config,
                       Address introducer)
    : address_(address),
      config_(config),
      rng_(peer_seed(config.seed, address)),
      data_rng_(sim::RngStreams(peer_seed(config.seed, address))
                    .stream("node.gossip.data")) {
  learn(introducer);
}

GossipPeer::GossipPeer(Address address, GossipPeerConfig config,
                       std::vector<std::uint8_t> content,
                       std::size_t generation_size, std::size_t symbols)
    : GossipPeer(address, config, /*introducer=*/address) {
  // learn() skips the peer's own address, so the source starts with an
  // empty view. Key generation draws from its own stream too, so turning
  // verification on shifts neither membership nor the uploads.
  Rng key_rng = sim::RngStreams(peer_seed(config.seed, address))
                    .stream("node.gossip.keys");
  stream_.initialize_source(std::move(content), generation_size, symbols,
                            config_.structure, config_.null_keys, key_rng);
}

void GossipPeer::crash() {
  crashed_ = true;
  if (engine_) engine_->cancel(tick_timer_);
}

void GossipPeer::start(sim::Scheduler& engine, AttachableTransport& net) {
  engine_ = &engine;
  net_ = &net;
  net.attach(address_, this);
  tick_timer_ = engine.schedule_in(1.0, [this] { event_tick(); },
                                   sim::TimerClass::kServe);
}

void GossipPeer::event_tick() {
  if (!active()) return;  // the periodic loop dies with the peer
  tick_body();
  tick_timer_ = engine_->schedule_in(1.0, [this] { event_tick(); },
                                     sim::TimerClass::kServe);
}

void GossipPeer::learn(Address peer) {
  if (peer == address_) return;
  if (std::find(view_.begin(), view_.end(), peer) != view_.end()) return;
  if (view_.size() >= kViewLimit) {
    // Evict a random old entry; churned-out addresses age away this way.
    view_[rng_.below(view_.size())] = peer;
    return;
  }
  view_.push_back(peer);
}

void GossipPeer::learn_sample(const Message& m) {
  if (const MessageBody* b = m.body()) {
    for (Address a : b->peers) learn(a);
  }
}

std::vector<Address> GossipPeer::sample_view(std::size_t count,
                                             Address exclude) {
  std::vector<Address> pool;
  for (Address a : view_) {
    if (a != exclude) pool.push_back(a);
  }
  rng_.shuffle(pool);
  if (pool.size() > count) pool.resize(count);
  return pool;
}

void GossipPeer::leave(Transport& net) {
  if (!active()) return;
  departed_ = true;
  if (engine_) engine_->cancel(tick_timer_);
  for (const auto& [parent, last] : parents_) {
    Message m;
    m.type = MessageType::kSlotRelease;
    m.from = address_;
    m.to = parent;
    net.send(std::move(m));
  }
  for (const auto& [link, child] : stream_.links()) {
    Message m;
    m.type = MessageType::kParentBye;
    m.from = address_;
    m.to = child;
    net.send(std::move(m));
  }
  parents_.clear();
  stream_.unfeed_all();
}

void GossipPeer::handle_slot_request(const Message& m) {
  learn(m.from);
  const auto children = stream_.links();
  if (stream_.initialized() && children.size() < config_.upload_slots &&
      children.count(m.from) == 0) {
    stream_.feed(m.from, m.from);  // a slot link is keyed by its child
    Message grant;
    grant.type = MessageType::kSlotGrant;
    grant.from = address_;
    grant.to = m.from;
    // A trackerless overlay has no server to announce the stream, so the
    // announcement propagates grant to grant.
    stream_.announce(grant);
    net_->send(std::move(grant));
  } else {
    // Denials still help: they carry a sample of this peer's view, so the
    // requester's search fans out instead of stalling.
    Message deny;
    deny.type = MessageType::kSlotDeny;
    deny.from = address_;
    deny.to = m.from;
    deny.mutable_body().peers = sample_view(kSampleSize, m.from);
    net_->send(std::move(deny));
  }
}

void GossipPeer::handle_slot_grant(const Message& m) {
  pending_.erase(m.from);
  learn(m.from);
  if (parents_.size() >= config_.want_parents ||
      parents_.count(m.from) != 0) {
    // Acquired elsewhere in the meantime: return the slot politely.
    Message release;
    release.type = MessageType::kSlotRelease;
    release.from = address_;
    release.to = m.from;
    net_->send(std::move(release));
    return;
  }
  if (!stream_.initialized() && !stream_.initialize(m)) {
    return;  // nonsense plan or structure: ignore the grant entirely
  }
  parents_[m.from] = now();
}

void GossipPeer::on_message(const Message& m) {
  if (!active()) return;  // drain silently
  switch (m.type) {
    case MessageType::kSlotRequest:
      handle_slot_request(m);
      break;
    case MessageType::kSlotGrant:
      handle_slot_grant(m);
      break;
    case MessageType::kSlotDeny:
      pending_.erase(m.from);
      learn_sample(m);
      break;
    case MessageType::kSlotRelease:
      stream_.unfeed(m.from);
      break;
    case MessageType::kParentBye:
      parents_.erase(m.from);
      learn(m.from);  // it still exists; it just stopped serving us
      break;
    case MessageType::kData: {
      const auto it = parents_.find(m.from);
      if (it != parents_.end()) it->second = now();
      if (!is_source()) {
        stream_.receive(address_, m, *net_);
        if (decode_time_ < 0.0 && stream_.decoded()) decode_time_ = now();
      }
      break;
    }
    case MessageType::kKeepalive: {
      const auto it = parents_.find(m.from);
      if (it != parents_.end()) it->second = now();
      break;
    }
    case MessageType::kHave:
      stream_.apply_have(m);  // on the slot link keyed by its sender
      break;
    case MessageType::kPeerSampleRequest: {
      learn(m.from);
      Message reply;
      reply.type = MessageType::kPeerSampleReply;
      reply.from = address_;
      reply.to = m.from;
      reply.mutable_body().peers = sample_view(kSampleSize, m.from);
      net_->send(std::move(reply));
      break;
    }
    case MessageType::kPeerSampleReply:
      learn_sample(m);
      break;
    default:
      break;  // centralized-protocol messages are not ours
  }
}

void GossipPeer::acquire_parents() {
  // Expire stale slot requests (the target may be gone or overloaded; the
  // grant or denial may also have been lost on a lossy control plane —
  // expiry-then-reissue is this protocol's retransmission).
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now() - it->second >= kRequestTimeout) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  const std::size_t have = parents_.size() + pending_.size();
  if (have >= config_.want_parents) return;

  // Candidates: known peers that are not us, not already feeding us, and
  // not already asked.
  std::vector<Address> candidates;
  for (Address a : view_) {
    if (parents_.count(a) != 0 || pending_.count(a) != 0) continue;
    candidates.push_back(a);
  }
  rng_.shuffle(candidates);
  const std::size_t need = config_.want_parents - have;
  for (std::size_t i = 0; i < candidates.size() && i < need; ++i) {
    Message req;
    req.type = MessageType::kSlotRequest;
    req.from = address_;
    req.to = candidates[i];
    net_->send(std::move(req));
    pending_[candidates[i]] = now();
  }
}

void GossipPeer::tick_body() {
  stream_.serve(address_, *net_, data_rng_);

  if (!is_source()) {
    // Decentralized repair: drop silent feeds, look for replacements.
    for (auto it = parents_.begin(); it != parents_.end();) {
      if (now() - it->second >= static_cast<double>(config_.silence_timeout)) {
        // The feed is dead (or hopelessly congested): forget the peer too,
        // so we do not immediately re-request from a corpse.
        view_.erase(std::remove(view_.begin(), view_.end(), it->first),
                    view_.end());
        it = parents_.erase(it);
        ++reacquisitions_;
      } else {
        ++it;
      }
    }
    acquire_parents();
  }

  // Proactive view gossip keeps partitions from fossilizing.
  if (!view_.empty() &&
      now() - last_sample_ >= kSamplePeriod) {
    last_sample_ = now();
    Message req;
    req.type = MessageType::kPeerSampleRequest;
    req.from = address_;
    req.to = view_[rng_.below(view_.size())];
    net_->send(std::move(req));
  }
}

}  // namespace ncast::node

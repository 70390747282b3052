#include "overlay/gossip.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace ncast::overlay {

std::vector<ColumnId> gossip_discover(const ThreadMatrix& m, std::uint32_t d,
                                      const GossipConfig& config, Rng& rng,
                                      std::uint64_t* messages_out) {
  if (d == 0 || d > m.k()) throw std::invalid_argument("gossip_discover: bad d");
  std::uint64_t messages = 0;

  // Hanging ends grouped by owner (kServerNode owns unclipped columns).
  const auto ends = m.hanging_ends();
  std::vector<bool> taken(m.k(), false);
  std::vector<ColumnId> chosen;
  chosen.reserve(d);

  const std::vector<NodeId> members = m.nodes_in_order();

  auto columns_owned_by = [&](NodeId owner) {
    std::vector<ColumnId> cols;
    for (const HangingEnd& e : ends) {
      if (e.owner == owner && !e.owner_failed && !taken[e.column]) {
        cols.push_back(e.column);
      }
    }
    return cols;
  };

  for (std::size_t walk = 0; walk < config.max_walks && chosen.size() < d; ++walk) {
    // Introduction: a uniformly random existing member (the server if the
    // overlay is empty — a brand-new swarm).
    NodeId cur = members.empty()
                     ? kServerNode
                     : members[rng.below(members.size())];
    ++messages;  // the introduction itself

    for (std::size_t hop = 0; hop < config.walk_length; ++hop) {
      // Neighbor relation: parents and children (the peers a member already
      // holds connections to). The server is reachable as a parent of the
      // top rows and knows only its own unclipped threads.
      if (cur == kServerNode) break;
      std::vector<NodeId> nbrs = m.parents(cur);
      const auto kids = m.children(cur);
      nbrs.insert(nbrs.end(), kids.begin(), kids.end());
      if (nbrs.empty()) break;
      cur = nbrs[rng.below(nbrs.size())];
      ++messages;
    }

    // Ask the endpoint for an unserved thread it owns.
    const auto cols = columns_owned_by(cur);
    ++messages;
    if (!cols.empty()) {
      const ColumnId c = cols[rng.below(cols.size())];
      taken[c] = true;
      chosen.push_back(c);
    }
  }

  // Tracker fallback: complete the selection uniformly from what's left.
  if (chosen.size() < d) {
    std::vector<ColumnId> remaining;
    for (ColumnId c = 0; c < m.k(); ++c) {
      if (!taken[c]) remaining.push_back(c);
    }
    while (chosen.size() < d) {
      const std::size_t i = rng.below(remaining.size());
      chosen.push_back(remaining[i]);
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(i));
      ++messages;
    }
  }

  std::sort(chosen.begin(), chosen.end());
  // ncast:shared(reference to a registry counter, which is internally synchronized; magic-static init is thread-safe)
  static obs::Counter& msg_ctr = obs::metrics().counter("gossip.discovery_messages");
  // ncast:shared(reference to a registry histogram, which locks internally; magic-static init is thread-safe)
  static obs::Histogram& msg_hist = obs::metrics().histogram("gossip.messages_per_join");
  msg_ctr.inc(messages);
  msg_hist.observe(static_cast<double>(messages));
  if (messages_out != nullptr) *messages_out = messages;
  return chosen;
}

}  // namespace ncast::overlay

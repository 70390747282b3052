// Protocol walkthrough: the actual message-level endpoints (ServerNode /
// ClientNode) running Section 3's hello, good-bye, and repair protocols over
// a transport — the embeddable API, one level below the simulators.
//
//   $ ./protocol_demo

#include <cstdio>
#include <memory>
#include <vector>

#include "node/client_node.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

using namespace ncast;
using namespace ncast::node;

int main() {
  // The stream: 1.5 KiB split into two generations of 12 packets x 64 bytes.
  Rng rng(1);
  std::vector<std::uint8_t> content(1536);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng.below(256));

  ServerConfig scfg;
  scfg.k = 8;
  scfg.default_degree = 2;
  scfg.repair_delay = 3;
  scfg.generation_size = 12;
  scfg.symbols = 64;
  ServerNode server(scfg, content);

  // The event kernel and the fabric: every endpoint runs on its own lane
  // (lane = address), every link delivers after one time unit.
  sim::ShardedEngine engine(/*shards=*/1, /*workers=*/0, /*epoch=*/1.0);
  ShardedTransport net(engine, TransportSpec{}, /*seed=*/1, /*addresses=*/19);
  server.start(engine.lane(kServerAddress), net);

  ClientConfig ccfg;
  ccfg.silence_timeout = 5;

  std::printf("t=0: 18 clients send JoinRequest\n");
  std::vector<std::unique_ptr<ClientNode>> clients;
  for (Address a = 1; a <= 18; ++a) {
    clients.push_back(std::make_unique<ClientNode>(a, ccfg));
    clients.back()->start(engine.lane(a), net);
  }
  engine.run_until(2.0);
  std::printf("t=2: matrix has %zu rows; control msgs so far: %llu\n",
              server.matrix().row_count(),
              static_cast<unsigned long long>(net.control_messages()));

  engine.run_until(10.0);
  std::size_t decoded = 0;
  for (auto& c : clients) decoded += c->decoded() ? 1 : 0;
  std::printf("t=10: %zu/18 decoded (stream flowing through recoders)\n",
              decoded);

  // A mid-curtain node crashes; nobody tells the server — children notice.
  std::printf("t=10: client 3 crashes silently\n");
  clients[2]->crash();
  net.crash(clients[2]->address());
  const auto repairs_before = server.repairs_done();
  engine.run_until(25.0);
  std::printf("t=25: server executed %llu repair(s) from complaints; "
              "matrix rows: %zu, failed tags: %zu\n",
              static_cast<unsigned long long>(server.repairs_done() - repairs_before),
              server.matrix().row_count(), server.matrix().failed_count());

  // A polite departure.
  std::printf("t=25: client 7 sends Goodbye\n");
  clients[6]->leave(net);
  engine.run_until(90.0);

  decoded = 0;
  for (auto& c : clients) {
    if (!c->crashed() && c->decoded()) ++decoded;
  }
  std::printf("t=90: %zu/17 live clients decoded; verifying payloads... ",
              decoded);
  bool all_match = true;
  for (auto& c : clients) {
    if (c->crashed() || !c->decoded()) continue;
    all_match &= (c->data() == server.data());
  }
  std::printf("%s\n", all_match ? "all match the source" : "MISMATCH");

  std::printf(
      "\ntraffic: %llu data, %llu control, %llu keepalive/have, %llu dropped\n"
      "Control stays O(d) per membership event; everything else is the data\n"
      "plane, and once a child holds a generation its parents stop sending it.\n",
      static_cast<unsigned long long>(net.data_messages()),
      static_cast<unsigned long long>(net.control_messages()),
      static_cast<unsigned long long>(net.keepalive_messages()),
      static_cast<unsigned long long>(net.messages_dropped()));
  return 0;
}

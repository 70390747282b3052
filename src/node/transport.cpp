#include "node/transport.hpp"

namespace ncast::node {

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kCrashed: return "crashed";
    case DropReason::kLoss: return "loss";
    case DropReason::kPartition: return "partition";
    case DropReason::kBlackhole: return "blackhole";
    case DropReason::kUnattached: return "unattached";
  }
  return "unknown";
}

}  // namespace ncast::node

#include "src/server/cluster.h"

#include <algorithm>

namespace mfc {

ServerCluster::ServerCluster(EventLoop& loop, const WebServerConfig& config, size_t replica_count,
                             const ContentStore* content)
    : content_(content) {
  replicas_.reserve(replica_count);
  for (size_t i = 0; i < replica_count; ++i) {
    WebServerConfig replica_config = config;
    replica_config.name = config.name + "-" + std::to_string(i);
    replicas_.push_back(std::make_unique<WebServer>(loop, replica_config, content));
  }
}

size_t ServerCluster::PickReplica() const {
  size_t best = 0;
  for (size_t i = 1; i < replicas_.size(); ++i) {
    if (replicas_[i]->OutstandingRequests() < replicas_[best]->OutstandingRequests()) {
      best = i;
    }
  }
  return best;
}

void ServerCluster::OnRequest(const HttpRequest& request, bool is_mfc,
                              ResponseTransport transport) {
  replicas_[PickReplica()]->OnRequest(request, is_mfc, std::move(transport));
}

std::vector<AccessLogEntry> ServerCluster::MergedAccessLog() const {
  std::vector<AccessLogEntry> merged;
  for (const auto& replica : replicas_) {
    const auto& log = replica->AccessLog();
    merged.insert(merged.end(), log.begin(), log.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const AccessLogEntry& a, const AccessLogEntry& b) { return a.arrival < b.arrival; });
  return merged;
}

}  // namespace mfc

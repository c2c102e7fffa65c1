// Load-balanced server cluster.
//
// The paper's QTP production system served the tested IP from a data center
// with 16 multiprocessor servers behind a load balancer; no MFC stage could
// move its response time (Section 4.1). ServerCluster models that: one
// HttpTarget fronting k identical WebServers with least-outstanding-requests
// dispatch.
#ifndef MFC_SRC_SERVER_CLUSTER_H_
#define MFC_SRC_SERVER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/server/web_server.h"

namespace mfc {

class ServerCluster : public HttpTarget {
 public:
  // Builds |replica_count| servers from |config| (names suffixed by index).
  ServerCluster(EventLoop& loop, const WebServerConfig& config, size_t replica_count,
                const ContentStore* content);

  void OnRequest(const HttpRequest& request, bool is_mfc, ResponseTransport transport) override;
  const ContentStore* Content() const override { return content_; }

  size_t ReplicaCount() const { return replicas_.size(); }
  WebServer& Replica(size_t i) { return *replicas_[i]; }

  // Merged access log across replicas, sorted by arrival (the operators
  // collected logs "from all 16 servers").
  std::vector<AccessLogEntry> MergedAccessLog() const;

 private:
  size_t PickReplica() const;

  const ContentStore* content_;
  std::vector<std::unique_ptr<WebServer>> replicas_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_CLUSTER_H_

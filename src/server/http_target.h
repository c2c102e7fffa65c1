// Interface between the network-facing testbed and a server implementation.
//
// The testbed delivers fully-arrived requests and a ResponseTransport that
// moves response bytes back toward the requesting client (over the simulated
// wide-area network, a LAN, or instantaneously in unit tests). Servers call
// the transport exactly once per request; |on_sent| fires when the last byte
// has been delivered, which is when a worker thread blocked on the socket
// write would be released.
#ifndef MFC_SRC_SERVER_HTTP_TARGET_H_
#define MFC_SRC_SERVER_HTTP_TARGET_H_

#include <functional>

#include "src/content/object_store.h"
#include "src/http/message.h"

namespace mfc {

// (status, wire bytes, completion) — wire bytes include headers.
using ResponseTransport =
    std::function<void(HttpStatus status, double bytes, std::function<void()> on_sent)>;

class HttpTarget {
 public:
  virtual ~HttpTarget() = default;

  // Handles a request arriving at the server now. |is_mfc| tags probe
  // requests in the access log (the paper separated MFC from background
  // traffic in the operators' logs). |request| is borrowed for this call
  // only (a blocking fetch hands in its caller's request), so a target
  // copies whatever it needs later.
  virtual void OnRequest(const HttpRequest& request, bool is_mfc, ResponseTransport transport) = 0;

  // The content hosted here, if content-backed (nullptr for synthetic).
  virtual const ContentStore* Content() const { return nullptr; }
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_HTTP_TARGET_H_

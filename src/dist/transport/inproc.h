#ifndef DBTF_DIST_TRANSPORT_INPROC_H_
#define DBTF_DIST_TRANSPORT_INPROC_H_

#include <memory>

#include "dist/transport/transport.h"

namespace dbtf {

// In-process transport: each endpoint wraps a driver-process Worker and
// delivers messages as direct handler calls, timing each with the thread-CPU
// clock so the virtual machine clocks charge exactly what the socket
// transport's reply envelopes would carry. This is the bitwise oracle the
// socket transport is checked against, and the configuration the sanitizer
// presets exercise (one process means TSan sees every handler).

/// Wraps a shared worker, keeping it alive for the endpoint's lifetime.
std::shared_ptr<WorkerEndpoint> MakeInProcessEndpoint(
    std::shared_ptr<Worker> worker);

}  // namespace dbtf

#endif  // DBTF_DIST_TRANSPORT_INPROC_H_

/// \file http.h
/// \brief The scheduling service's HTTP API, as routes on the metrics
///        server.
///
/// `dvfs_execute --serve` historically wired these handlers inline;
/// extracting them lets tests drive the real API over a real socket
/// without spawning the tool. The endpoints:
///
///   POST /submit            {"id":N,"cycles":N} or {"tasks":[...]}
///                           → 202 {"accepted":a,"rejected":r}
///                           (503 when everything bounced — pure
///                           backpressure), 400 on malformed JSON or
///                           any invalid task (then nothing is admitted)
///   GET  /schedule/{id}     → 200 placement decision JSON (state,
///                           shard, core, rate_idx, trace_id,
///                           ...) | 400 bad id | 404 unknown
///   GET  /tasks/{id}/trace  → 200 reconstructed request timeline JSON
///                           (steps with per-stage durations, the
///                           admission critical stage) | 400 |
///                           404 unknown or evicted
///
/// Handlers run on the server thread and only touch the service's
/// thread-safe surfaces (submit, the task table).
#pragma once

#include <string_view>
#include <vector>

#include "dvfs/obs/promtext.h"
#include "dvfs/svc/service.h"

namespace dvfs::svc {

/// Decodes a `POST /submit` body into `tasks` (cleared first) in one pass
/// over the text, building no JSON tree. The body is one task object
/// `{"id":N,"cycles":N}`, or an object whose top-level `"tasks"` array
/// holds task objects (then any top-level `id`/`cycles` are ignored). A
/// repeated key counts by its last occurrence; unknown members are
/// skipped but must still be valid JSON. `id` must be an integer in
/// [0, 2^53] and `cycles` in [1, 2^53]. Returns nullptr on success, else
/// the 400 message (and leaves `tasks` empty): a syntax error anywhere
/// wins over a schema error, and among schema errors the first task's.
const char* decode_submit(std::string_view body,
                          std::vector<Submission>& tasks);

/// Registers POST /submit, GET /schedule/{id} and GET /tasks/{id}/trace
/// on `server`. Call before `server.start()`; `svc` must outlive the
/// server.
void register_service_routes(obs::MetricsHttpServer& server,
                             SchedulingService& svc);

}  // namespace dvfs::svc

#ifndef INFLUMAX_OBS_SPAN_NAMES_H_
#define INFLUMAX_OBS_SPAN_NAMES_H_

#include <cstdint>

namespace influmax {

/// Interned span-name catalog (docs/tracing.md). SpanRecord used to
/// carry a raw `const char*` literal, which cannot cross a process
/// boundary — a shard server's span names would be dangling pointers on
/// the client. Spans therefore carry a u16 id from this fixed catalog;
/// the wire ships the id and the *receiving* side resolves it to text.
///
/// Ids are part of the wire contract (docs/tracing.md): append new names
/// with fresh ids, never renumber or reuse. Ids < 256 are reserved for
/// this static catalog. The catalog is plain data, identical in ON and
/// OFF builds, so OFF-built tools can still print traces produced by an
/// ON-built server.
enum SpanName : std::uint16_t {
  kSpanUnknown = 0,

  // In-process shard router (src/shard/shard_router.cc).
  kSpanRouterGain = 1,
  kSpanRouterShardFold = 2,
  kSpanRouterCommit = 3,
  kSpanRouterTopk = 4,

  // Serving CLI query scopes (tools/serve_credit.cc, serve_shards.cc).
  kSpanQueryTopk = 5,
  kSpanQueryGain = 6,
  kSpanQueryCommit = 7,
  kSpanQuerySpread = 8,
  kSpanQueryReset = 9,

  // Remote-router client side (src/net/remote_router.cc).
  kSpanNetRpc = 10,
  kSpanNetFailover = 11,
  kSpanNetTraceFetch = 12,

  // Shard-server request handling (src/net/shard_server.cc).
  kSpanServerRequest = 13,
  kSpanServerDecode = 14,
  kSpanServerPin = 15,
  kSpanServerFold = 16,
  kSpanServerSend = 17,

  // Remote-router fan-out: one per request sent to every slot at once,
  // parent of that fan-out's net.rpc spans; detail = slot count.
  kSpanNetFanout = 18,
};

/// Human-readable name for a catalog id; "span.unknown" for anything
/// not (or not yet) in this build's catalog, so a newer peer's spans
/// degrade to a label instead of garbage.
inline const char* SpanNameString(std::uint16_t id) {
  switch (id) {
    case kSpanRouterGain:
      return "router.gain";
    case kSpanRouterShardFold:
      return "router.shard_fold";
    case kSpanRouterCommit:
      return "router.commit";
    case kSpanRouterTopk:
      return "router.topk";
    case kSpanQueryTopk:
      return "query.topk";
    case kSpanQueryGain:
      return "query.gain";
    case kSpanQueryCommit:
      return "query.commit";
    case kSpanQuerySpread:
      return "query.spread";
    case kSpanQueryReset:
      return "query.reset";
    case kSpanNetRpc:
      return "net.rpc";
    case kSpanNetFailover:
      return "net.failover";
    case kSpanNetTraceFetch:
      return "net.trace_fetch";
    case kSpanServerRequest:
      return "server.request";
    case kSpanServerDecode:
      return "server.decode";
    case kSpanServerPin:
      return "server.pin";
    case kSpanServerFold:
      return "server.fold";
    case kSpanServerSend:
      return "server.send";
    case kSpanNetFanout:
      return "net.fanout";
    default:
      return "span.unknown";
  }
}

}  // namespace influmax

#endif  // INFLUMAX_OBS_SPAN_NAMES_H_

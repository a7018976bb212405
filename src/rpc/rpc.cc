#include "rpc/rpc.h"

#include <algorithm>
#include <array>
#include <vector>

#include "obs/sampler.h"

namespace ordma::rpc {

namespace {

std::uint32_t read_u32_at(std::span<const std::byte> v, Bytes off) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x = (x << 8) | std::to_integer<std::uint32_t>(v[off + i]);
  }
  return x;
}

void put_u32_at(std::span<std::byte> w, Bytes off, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    w[off + i] = static_cast<std::byte>((x >> (8 * (3 - i))) & 0xff);
  }
}

// Finish an encoded message whose cksum word was left zero: compute the
// end-to-end checksum over everything but the cksum field and stamp it in.
net::Buffer seal_message(XdrEncoder& enc) {
  net::Buffer b = enc.finish();
  auto w = b.mutable_view();
  std::uint32_t ck = checksum32(w.first(kRpcCksumOffset));
  ck = checksum32(w.subspan(kRpcHeaderBytes), ck);
  put_u32_at(w, kRpcCksumOffset, ck);
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

bool RpcClient::reply_checksum_ok(const RpcReplyInfo& info,
                                  const Prepost* prepost) {
  const auto v = info.raw.view();
  if (v.size() < kRpcHeaderBytes) return false;
  const std::uint32_t want = read_u32_at(v, kRpcCksumOffset);
  std::uint32_t ck = checksum32(v.first(kRpcCksumOffset));
  ck = checksum32(v.subspan(kRpcHeaderBytes), ck);
  if (info.rddp_placed && info.rddp_data_len > 0 && prepost && prepost->as) {
    // Bulk was header-split into the pre-posted buffer; continue the
    // checksum over the bytes that actually landed there.
    std::vector<std::byte> placed(
        std::min<Bytes>(info.rddp_data_len, prepost->len));
    if (!prepost->as->read(prepost->va, placed).ok()) return false;
    ck = checksum32(placed, ck);
  }
  return ck == want;
}

sim::Task<Result<RpcReplyInfo>> RpcClient::call(net::NodeId server,
                                                std::uint16_t server_port,
                                                std::uint32_t proc,
                                                net::Buffer args,
                                                const Prepost* prepost,
                                                obs::OpId trace_op) {
  const auto& cm = host_.costs();
  const std::uint32_t xid = next_xid_++;
  host_.flight().record(host_.engine().now().ns, obs::flight::Ev::rpc_call,
                        xid, proc);

  co_await host_.cpu_consume(cm.rpc_client_issue, trace_op, "io/rpc_issue");
  if (prepost) {
    // The tagged buffer descriptor goes to the NIC (§3.2) with each send.
    co_await host_.cpu_consume(cm.nic_prepost, trace_op, "io/register");
  }

  XdrEncoder enc;
  enc.u32(xid);
  enc.u32(kRpcCall);
  enc.u32(proc);
  enc.u32(static_cast<std::uint32_t>(trace_op));
  enc.u32(0);  // cksum, stamped by seal_message
  enc.raw(args.view());
  const net::Buffer msg = seal_message(enc);

  auto send = [&] {
    // Arm the prepost; a retransmission re-arms it (the last attempt's
    // reply consumed it, or accept() disarmed it).
    if (prepost) {
      host_.nic().prepost(xid, *prepost->as, prepost->va, prepost->len);
    }
    return socket_.send_to(server, server_port, net::Buffer(msg),
                           /*rddp_xid=*/0, /*rddp_data_offset=*/0,
                           /*rddp_data_len=*/0, /*gather_send=*/false,
                           trace_op);
  };
  auto accept = [&](const std::optional<RpcReplyInfo>& got) {
    // A reply that did not consume the prepost leaves it armed; disarm
    // before accepting so no late duplicate can scribble on the buffer
    // after we return.
    if (prepost && (!got || !got->rddp_placed)) {
      host_.nic().cancel_prepost(xid);
    }
    if (!got) return false;
    if (!reply_checksum_ok(*got, prepost)) {
      ++cksum_drops_;
      host_.flight().record(host_.engine().now().ns,
                            obs::flight::Ev::rpc_cksum_drop, xid);
      return false;
    }
    host_.flight().record(host_.engine().now().ns, obs::flight::Ev::rpc_reply,
                          xid, got->status);
    return true;
  };
  Result<RpcReplyInfo> out =
      co_await retry_.call(waiters_, xid, trace_op, send, accept);
  co_await host_.cpu_consume(cm.rpc_client_complete, trace_op,
                             "io/rpc_complete");
  co_return out;
}

sim::Task<void> RpcClient::rx_loop() {
  for (;;) {
    msg::UdpDatagram d = co_await socket_.recv();
    XdrDecoder dec(d.data);
    const std::uint32_t xid = dec.u32();
    const std::uint32_t type = dec.u32();
    const std::uint32_t status = dec.u32();
    dec.u32();  // trace echo
    dec.u32();  // cksum — verified in call() against the raw bytes
    if (!dec.ok() || type != kRpcReply) continue;

    RpcReplyInfo info;
    info.status = status;
    info.results =
        d.data.slice(kRpcHeaderBytes, d.data.size() - kRpcHeaderBytes);
    info.raw = d.data;
    info.rddp_placed = d.rddp_placed;
    info.rddp_data_len = d.rddp_data_len;
    waiters_.deliver(xid, std::move(info));  // late duplicates are dropped
  }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

sim::Task<void> RpcServer::rx_loop() {
  for (;;) {
    msg::UdpDatagram d = co_await socket_.recv();
    // One logical nfsd thread per request; the host CPU serialises work.
    host_.engine().spawn(serve_one(std::move(d)));
  }
}

sim::Task<void> RpcServer::serve_one(msg::UdpDatagram d) {
  const auto& cm = host_.costs();
  XdrDecoder dec(d.data);
  const std::uint32_t xid = dec.u32();
  const std::uint32_t type = dec.u32();
  const std::uint32_t proc = dec.u32();
  const std::uint32_t trace = dec.u32();
  const std::uint32_t cksum = dec.u32();
  if (!dec.ok() || type != kRpcCall) co_return;
  {
    const auto v = d.data.view();
    std::uint32_t ck = checksum32(v.first(kRpcCksumOffset));
    ck = checksum32(v.subspan(kRpcHeaderBytes), ck);
    if (ck != cksum) {
      // Corrupt request: drop it; the client's retransmission recovers.
      ++cksum_drops_;
      host_.flight().record(host_.engine().now().ns,
                            obs::flight::Ev::srv_cksum_drop, xid);
      co_return;
    }
  }

  const ReplyKey key{d.src, d.src_port, xid};
  auto dup = dups_.admit(key);
  if (dup.kind == dup.drop) {
    // Original still executing; its reply will serve the retransmission.
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::srv_dup_drop, xid);
    co_return;
  }
  const bool replay = dup.kind == dup.replay;
  if (replay) {
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::srv_dup_replay, xid);
  } else {
    host_.flight().record(host_.engine().now().ns,
                          obs::flight::Ev::srv_serve, xid, proc);
  }
  co_await host_.cpu().consume_parts(
      trace, std::array<sim::Resource::Part, 2>{{
                 {cm.cpu_schedule, "io/sched"},
                 {cm.rpc_server_dispatch, "io/rpc_dispatch"},
             }});
  if (replay) {
    ReplyEntry& e = dup.reply;
    co_await socket_.send_to(d.src, d.src_port, std::move(e.reply),
                             e.rddp_xid, e.data_offset, e.data_len,
                             e.gather_send, trace);
    co_return;
  }

  RpcCallCtx ctx;
  ctx.client = d.src;
  ctx.client_port = d.src_port;
  ctx.xid = xid;
  ctx.proc = proc;
  ctx.trace_op = trace;
  ctx.args = d.data.slice(kRpcHeaderBytes, d.data.size() - kRpcHeaderBytes);

  auto it = handlers_.find(proc);
  RpcServerReply reply;
  if (it == handlers_.end()) {
    reply.status = static_cast<std::uint32_t>(Errc::not_supported);
  } else {
    reply = co_await it->second(ctx);
  }
  ++served_;

  // Assemble the reply datagram: header | results | bulk.
  XdrEncoder enc;
  enc.u32(xid);
  enc.u32(kRpcReply);
  enc.u32(reply.status);
  enc.u32(trace);  // echo the caller's trace context
  enc.u32(0);      // cksum, stamped by seal_message
  const auto results_bytes = reply.results.take();
  enc.raw(results_bytes);
  const Bytes data_offset = kRpcHeaderBytes + results_bytes.size();
  const Bytes data_len = reply.bulk.size();
  enc.raw(reply.bulk.view());
  net::Buffer wire = seal_message(enc);
  const std::uint32_t rddp_xid = data_len > 0 ? xid : 0;

  dups_.complete(key,
                 ReplyEntry{wire, rddp_xid, data_offset, data_len,
                            reply.gather_send},
                 wire.size());

  co_await socket_.send_to(d.src, d.src_port, std::move(wire), rddp_xid,
                           data_offset, data_len, reply.gather_send, trace);
}

}  // namespace ordma::rpc

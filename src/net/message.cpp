#include "net/message.h"

namespace hoh::net {

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kAck: return "Ack";
    case MsgType::kAllocateRequest: return "AllocateRequest";
    case MsgType::kAllocateReply: return "AllocateReply";
    case MsgType::kLaunchRequest: return "LaunchRequest";
    case MsgType::kContainerRunning: return "ContainerRunning";
    case MsgType::kReleaseRequest: return "ReleaseRequest";
    case MsgType::kNodeProbe: return "NodeProbe";
    case MsgType::kNodeStatus: return "NodeStatus";
    case MsgType::kWatchNotify: return "WatchNotify";
    case MsgType::kStoreIngest: return "StoreIngest";
    case MsgType::kAgentCommand: return "AgentCommand";
    case MsgType::kAgentEvent: return "AgentEvent";
    case MsgType::kSubmitRequest: return "SubmitRequest";
    case MsgType::kSubmitReply: return "SubmitReply";
    case MsgType::kHello: return "Hello";
    case MsgType::kUnitAssign: return "UnitAssign";
    case MsgType::kUnitResult: return "UnitResult";
    case MsgType::kBye: return "Bye";
  }
  return "unknown";
}

FrameHeader FrameHeader::unpack(Unpacker& u) {
  FrameHeader h;
  h.magic = u.u32();
  if (h.magic != kFrameMagic) {
    throw CodecError("frame: bad magic");
  }
  h.version = u.u16();
  if (h.version != kWireVersion) {
    throw CodecError("frame: unsupported wire version " +
                     std::to_string(h.version) + " (speaking " +
                     std::to_string(kWireVersion) + ")");
  }
  h.type = u.u16();
  h.length = u.u32();
  if (h.length > kMaxFrameBytes) {
    throw CodecError("frame: length " + std::to_string(h.length) +
                     " exceeds kMaxFrameBytes");
  }
  return h;
}

void AllocateRequest::pack(Packer& p) const {
  p.str(container_id);
  p.str(app_id);
  p.str(node);
  p.i64(memory_mb);
  p.i64(vcores);
  p.boolean(is_am);
}

AllocateRequest AllocateRequest::unpack(Unpacker& u) {
  AllocateRequest m;
  m.container_id = u.str();
  m.app_id = u.str();
  m.node = u.str();
  m.memory_mb = u.i64();
  m.vcores = u.i64();
  m.is_am = u.boolean();
  u.expect_done();
  return m;
}

void AllocateReply::pack(Packer& p) const {
  p.boolean(ok);
  p.str(node);
}

AllocateReply AllocateReply::unpack(Unpacker& u) {
  AllocateReply m;
  m.ok = u.boolean();
  m.node = u.str();
  u.expect_done();
  return m;
}

void LaunchRequest::pack(Packer& p) const {
  p.str(node);
  p.str(container_id);
  p.u64(correlation);
}

LaunchRequest LaunchRequest::unpack(Unpacker& u) {
  LaunchRequest m;
  m.node = u.str();
  m.container_id = u.str();
  m.correlation = u.u64();
  u.expect_done();
  return m;
}

void ContainerRunning::pack(Packer& p) const {
  p.str(container_id);
  p.u64(correlation);
}

ContainerRunning ContainerRunning::unpack(Unpacker& u) {
  ContainerRunning m;
  m.container_id = u.str();
  m.correlation = u.u64();
  u.expect_done();
  return m;
}

void ReleaseRequest::pack(Packer& p) const {
  p.str(node);
  p.str(container_id);
  p.u8(final_state);
}

ReleaseRequest ReleaseRequest::unpack(Unpacker& u) {
  ReleaseRequest m;
  m.node = u.str();
  m.container_id = u.str();
  m.final_state = u.u8();
  u.expect_done();
  return m;
}

void NodeProbe::pack(Packer& p) const { p.str(node); }

NodeProbe NodeProbe::unpack(Unpacker& u) {
  NodeProbe m;
  m.node = u.str();
  u.expect_done();
  return m;
}

void NodeStatus::pack(Packer& p) const {
  p.str(node);
  p.f64(last_heartbeat);
  p.boolean(alive);
}

NodeStatus NodeStatus::unpack(Unpacker& u) {
  NodeStatus m;
  m.node = u.str();
  m.last_heartbeat = u.f64();
  m.alive = u.boolean();
  u.expect_done();
  return m;
}

void WatchNotify::pack(Packer& p) const {
  p.u32(static_cast<std::uint32_t>(watcher_ids.size()));
  for (const std::uint64_t id : watcher_ids) p.u64(id);
  p.u8(event_type);
  p.str(bucket);
  p.str(key);
  p.u8(state);
}

WatchNotify WatchNotify::unpack(Unpacker& u) {
  WatchNotify m;
  const std::uint32_t targets = u.u32();
  // Bound the count by the bytes present before reserving, so a corrupt
  // count cannot drive an allocation.
  if (targets > u.remaining() / 8) {
    throw CodecError("WatchNotify: target count " + std::to_string(targets) +
                     " exceeds payload");
  }
  m.watcher_ids.reserve(targets);
  for (std::uint32_t i = 0; i < targets; ++i) m.watcher_ids.push_back(u.u64());
  m.event_type = u.u8();
  m.bucket = u.str();
  m.key = u.str();
  m.state = u.u8();
  u.expect_done();
  return m;
}

void StoreIngest::pack(Packer& p) const {
  p.str(collection);
  p.str(unit_id);
  p.str(queue);
  p.bytes(document);
}

StoreIngest StoreIngest::unpack(Unpacker& u) {
  StoreIngest m;
  m.collection = u.str();
  m.unit_id = u.str();
  m.queue = u.str();
  m.document = u.bytes();
  u.expect_done();
  return m;
}

void AgentCommand::pack(Packer& p) const {
  p.str(pilot_id);
  p.u8(op);
}

AgentCommand AgentCommand::unpack(Unpacker& u) {
  AgentCommand m;
  m.pilot_id = u.str();
  m.op = u.u8();
  u.expect_done();
  return m;
}

void AgentEvent::pack(Packer& p) const {
  p.str(pilot_id);
  p.u8(kind);
}

AgentEvent AgentEvent::unpack(Unpacker& u) {
  AgentEvent m;
  m.pilot_id = u.str();
  m.kind = u.u8();
  u.expect_done();
  return m;
}

void SubmitRequest::pack(Packer& p) const {
  p.str(tenant_id);
  p.bytes(description);
}

SubmitRequest SubmitRequest::unpack(Unpacker& u) {
  SubmitRequest m;
  m.tenant_id = u.str();
  m.description = u.bytes();
  u.expect_done();
  return m;
}

void SubmitReply::pack(Packer& p) const { p.str(unit_id); }

SubmitReply SubmitReply::unpack(Unpacker& u) {
  SubmitReply m;
  m.unit_id = u.str();
  u.expect_done();
  return m;
}

void Hello::pack(Packer& p) const {
  p.u8(role);
  p.str(name);
  p.i64(cores);
}

Hello Hello::unpack(Unpacker& u) {
  Hello m;
  m.role = u.u8();
  m.name = u.str();
  m.cores = u.i64();
  u.expect_done();
  return m;
}

void UnitAssign::pack(Packer& p) const {
  p.str(unit_id);
  p.str(name);
  p.f64(duration);
}

UnitAssign UnitAssign::unpack(Unpacker& u) {
  UnitAssign m;
  m.unit_id = u.str();
  m.name = u.str();
  m.duration = u.f64();
  u.expect_done();
  return m;
}

void UnitResult::pack(Packer& p) const {
  p.str(unit_id);
  p.str(name);
  p.boolean(ok);
}

UnitResult UnitResult::unpack(Unpacker& u) {
  UnitResult m;
  m.unit_id = u.str();
  m.name = u.str();
  m.ok = u.boolean();
  u.expect_done();
  return m;
}

std::vector<std::uint8_t> encode_frame(const Envelope& e) {
  Packer p;
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(e.type);
  h.length = static_cast<std::uint32_t>(e.payload.size());
  h.pack(p);
  auto out = p.take();
  out.insert(out.end(), e.payload.begin(), e.payload.end());
  return out;
}

std::size_t try_decode_frame(const std::uint8_t* data, std::size_t size,
                             Envelope* out) {
  if (size < kFrameHeaderBytes) return 0;
  Unpacker u(data, size);
  const FrameHeader h = FrameHeader::unpack(u);
  if (size < kFrameHeaderBytes + h.length) return 0;
  out->type = static_cast<MsgType>(h.type);
  out->payload.assign(data + kFrameHeaderBytes,
                      data + kFrameHeaderBytes + h.length);
  return kFrameHeaderBytes + h.length;
}

}  // namespace hoh::net

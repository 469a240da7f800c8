#include "pilot/state_store.h"

#include <utility>

#include "common/error.h"
#include "net/json_codec.h"
#include "pilot/transitions.h"

namespace hoh::pilot {

namespace {

/// FNV-1a over the bucket name; stable across runs so shard placement —
/// and with it every digest — is deterministic.
std::uint64_t bucket_hash(const std::string& bucket) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bucket) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A "unit" document's lifecycle state, parsed once at put time.
std::optional<UnitState> parse_unit_state(const std::string& collection,
                                          const common::Json& doc) {
  if (collection != "unit" || !doc.is_object() || !doc.contains("state")) {
    return std::nullopt;
  }
  return unit_state_from_string(doc.at("state").as_string());
}

}  // namespace

StateStore::StateStore(sim::Engine& engine, common::Seconds op_latency)
    : engine_(engine), op_latency_(op_latency) {
  shards_.push_back(std::make_unique<Shard>());
}

StateStore::Shard& StateStore::shard_for(const std::string& bucket) const {
  return *shards_[bucket_hash(bucket) % shards_.size()];
}

bool StateStore::in_use() const {
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    if (!shard->collections.empty() || !shard->queues.empty() ||
        !shard->watchers.empty()) {
      return true;
    }
  }
  return false;
}

void StateStore::set_shard_count(std::size_t count) {
  if (count == 0 || count > kMaxShards) {
    throw common::ConfigError("StateStore: shard count must be in [1, " +
                              std::to_string(kMaxShards) + "]");
  }
  if (in_use()) {
    throw common::StateError(
        "StateStore::set_shard_count: store already holds documents, "
        "queues or watchers");
  }
  std::uint64_t carried = 0;
  std::uint64_t carried_muts = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    carried += shard->ops;
    carried_muts += shard->muts;
  }
  {
    common::MutexLock lock(id_mu_);
    ops_base_ += carried;
    muts_base_ += carried_muts;
  }
  shards_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void StateStore::put(const std::string& collection, const std::string& id,
                     common::Json document) {
  Shard& shard = shard_for(collection);
  const std::optional<UnitState> state = parse_unit_state(collection, document);
  {
    common::MutexLock lock(shard.mu);
    ++shard.ops;
    ++shard.muts;
    shard.collections[collection][id] = Document{std::move(document), state};
  }
  notify(WatchEventType::kPut, collection, id, state);
}

std::optional<common::Json> StateStore::get(const std::string& collection,
                                            const std::string& id) const {
  Shard& shard = shard_for(collection);
  common::MutexLock lock(shard.mu);
  ++shard.ops;
  auto cit = shard.collections.find(collection);
  if (cit == shard.collections.end()) return std::nullopt;
  auto dit = cit->second.find(id);
  if (dit == cit->second.end()) return std::nullopt;
  return dit->second.json;
}

std::optional<UnitState> StateStore::unit_state(const std::string& id) const {
  Shard& shard = shard_for("unit");
  common::MutexLock lock(shard.mu);
  ++shard.ops;
  auto cit = shard.collections.find("unit");
  if (cit == shard.collections.end()) return std::nullopt;
  auto dit = cit->second.find(id);
  if (dit == cit->second.end()) return std::nullopt;
  return dit->second.state;
}

std::optional<common::Json> StateStore::get_field(
    const std::string& collection, const std::string& id,
    const std::string& field) const {
  Shard& shard = shard_for(collection);
  common::MutexLock lock(shard.mu);
  ++shard.ops;
  auto cit = shard.collections.find(collection);
  if (cit == shard.collections.end()) return std::nullopt;
  auto dit = cit->second.find(id);
  if (dit == cit->second.end()) return std::nullopt;
  const common::Json& doc = dit->second.json;
  if (!doc.is_object() || !doc.contains(field)) return std::nullopt;
  return doc.at(field);
}

void StateStore::update(const std::string& collection, const std::string& id,
                        const common::JsonObject& fields) {
  Shard& shard = shard_for(collection);
  std::optional<UnitState> state;
  {
    common::MutexLock lock(shard.mu);
    ++shard.ops;
    auto cit = shard.collections.find(collection);
    if (cit == shard.collections.end() || cit->second.count(id) == 0) {
      throw common::NotFoundError("StateStore: no document " + collection +
                                  "/" + id);
    }
    Document& doc = cit->second.at(id);
    // Lifecycle gate: the store is the single path every unit state write
    // takes (agent write-back, Unit-Manager cancellation), so an illegal
    // edge is stopped here no matter which component attempts it. Watchers
    // are notified only after the gate passed — they never observe an
    // illegal write.
    if (collection == "unit") {
      auto state_field = fields.find("state");
      if (state_field != fields.end()) {
        const UnitState next =
            unit_state_from_string(state_field->second.as_string());
        if (doc.state.has_value()) validate_transition(*doc.state, next, id);
        doc.state = next;
      }
    }
    for (const auto& [k, v] : fields) doc.json[k] = v;
    ++shard.muts;
    state = doc.state;
  }
  notify(WatchEventType::kUpdate, collection, id, state);
}

std::vector<std::pair<std::string, common::Json>> StateStore::find_all(
    const std::string& collection) const {
  Shard& shard = shard_for(collection);
  common::MutexLock lock(shard.mu);
  ++shard.ops;
  std::vector<std::pair<std::string, common::Json>> out;
  auto cit = shard.collections.find(collection);
  if (cit == shard.collections.end()) return out;
  out.reserve(cit->second.size());
  for (const auto& [id, doc] : cit->second) out.emplace_back(id, doc.json);
  return out;
}

void StateStore::queue_push(const std::string& queue, const std::string& id) {
  Shard& shard = shard_for(queue);
  {
    common::MutexLock lock(shard.mu);
    ++shard.ops;
    ++shard.muts;
    shard.queues[queue].push_back(id);
  }
  notify(WatchEventType::kQueuePush, queue, id);
}

std::vector<std::string> StateStore::queue_pop_all(const std::string& queue) {
  Shard& shard = shard_for(queue);
  common::MutexLock lock(shard.mu);
  ++shard.ops;
  ++shard.muts;
  std::vector<std::string> out;
  auto it = shard.queues.find(queue);
  if (it == shard.queues.end()) return out;
  out.assign(it->second.begin(), it->second.end());
  it->second.clear();
  return out;
}

std::size_t StateStore::queue_depth(const std::string& queue) const {
  Shard& shard = shard_for(queue);
  common::MutexLock lock(shard.mu);
  auto it = shard.queues.find(queue);
  return it == shard.queues.end() ? 0 : it->second.size();
}

std::uint64_t StateStore::op_count() const {
  std::uint64_t total = 0;
  {
    common::MutexLock lock(id_mu_);
    total = ops_base_;
  }
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->ops;
  }
  return total;
}

std::uint64_t StateStore::mutation_count() const {
  std::uint64_t total = 0;
  {
    common::MutexLock lock(id_mu_);
    total = muts_base_;
  }
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    total += shard->muts;
  }
  return total;
}

WatchHandle StateStore::watch(const std::string& bucket,
                              const std::string& key_prefix,
                              WatchCallback callback) {
  const std::size_t shard_index = bucket_hash(bucket) % shards_.size();
  std::uint64_t id = 0;
  {
    common::MutexLock lock(id_mu_);
    id = (next_watch_seq_++ << 8) | shard_index;
  }
  Shard& shard = *shards_[shard_index];
  common::MutexLock lock(shard.mu);
  shard.watchers.emplace(id, Watcher{bucket, key_prefix, std::move(callback)});
  return WatchHandle(id);
}

bool StateStore::unwatch(WatchHandle handle) {
  if (!handle.valid()) return false;
  Shard& shard = *shards_[(handle.id_ & 0xff) % shards_.size()];
  common::MutexLock lock(shard.mu);
  return shard.watchers.erase(handle.id_) > 0;
}

std::size_t StateStore::watcher_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    n += shard->watchers.size();
  }
  return n;
}

void StateStore::notify(WatchEventType type, const std::string& bucket,
                        const std::string& key,
                        std::optional<UnitState> state) {
  // Snapshot the ids of matching watchers; resolve them again at delivery
  // time so an unwatch between mutation and delivery (or during delivery
  // of the same mutation to an earlier watcher) suppresses the callback.
  Shard& shard = shard_for(bucket);
  std::vector<std::uint64_t> targets;
  {
    common::MutexLock lock(shard.mu);
    for (const auto& [id, w] : shard.watchers) {
      if (w.bucket == bucket && key.rfind(w.prefix, 0) == 0) {
        targets.push_back(id);
      }
    }
  }
  if (targets.empty()) return;
  // Coalesced delivery: mutations join one global FIFO; only the first
  // one pending schedules the zero-delay drain tick. A burst of k
  // mutations at one instant costs one engine event instead of k.
  bool need_schedule = false;
  {
    common::MutexLock lock(delivery_mu_);
    pending_deliveries_.push_back(PendingDelivery{
        std::move(targets), WatchEvent{type, bucket, key, state}});
    if (!delivery_scheduled_) {
      delivery_scheduled_ = true;
      need_schedule = true;
    }
  }
  if (need_schedule) {
    engine_.schedule(0.0, [this] { deliver_pending(); });
  }
}

void StateStore::deliver_pending() {
  // Swap the batch out first: mutations made by the callbacks below go
  // to a fresh tick at the same timestamp, preserving FIFO order.
  std::vector<PendingDelivery> batch;
  {
    common::MutexLock lock(delivery_mu_);
    batch.swap(pending_deliveries_);
    delivery_scheduled_ = false;
  }
  for (PendingDelivery& delivery : batch) {
    if (transport_ == nullptr) {
      deliver(delivery.targets, delivery.event);
      continue;
    }
    // Message boundary (DESIGN.md §14): one WatchNotify per mutation
    // carries every target; the store.notify endpoint re-resolves each
    // watcher in order and runs its callback, so delivery semantics are
    // identical in both modes.
    const WatchEvent& event = delivery.event;
    net::send(*transport_, "store.notify",
              net::WatchNotify{std::move(delivery.targets),
                               static_cast<std::uint8_t>(event.type),
                               event.bucket, event.key,
                               event.state.has_value()
                                   ? static_cast<std::uint8_t>(*event.state)
                                   : net::WatchNotify::kNoState});
  }
}

void StateStore::deliver(const std::vector<std::uint64_t>& watcher_ids,
                         const WatchEvent& event) {
  for (const std::uint64_t watcher_id : watcher_ids) {
    Shard& shard = *shards_[(watcher_id & 0xff) % shards_.size()];
    WatchCallback fn;
    {
      common::MutexLock lock(shard.mu);
      auto it = shard.watchers.find(watcher_id);
      if (it == shard.watchers.end()) continue;
      fn = it->second.fn;
    }
    fn(event);
  }
}

void StateStore::set_transport(net::Transport* transport) {
  if (transport_ != nullptr) {
    transport_->unregister_endpoint("store.notify");
    transport_->unregister_endpoint("store.ingest");
  }
  transport_ = transport;
  if (transport_ == nullptr) return;
  transport_->register_endpoint(
      "store.notify", [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::WatchNotify>(env);
        std::optional<UnitState> state;
        if (msg.state != net::WatchNotify::kNoState) {
          if (msg.state > static_cast<std::uint8_t>(UnitState::kFailed)) {
            throw net::CodecError("WatchNotify: bad unit state " +
                                  std::to_string(msg.state));
          }
          state = static_cast<UnitState>(msg.state);
        }
        deliver(msg.watcher_ids,
                WatchEvent{static_cast<WatchEventType>(msg.event_type),
                           msg.bucket, msg.key, state});
        return net::make_envelope(net::Ack{});
      });
  transport_->register_endpoint(
      "store.ingest", [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::StoreIngest>(env);
        net::Unpacker u(msg.document);
        put(msg.collection, msg.unit_id, net::unpack_json(u));
        if (!msg.queue.empty()) queue_push(msg.queue, msg.unit_id);
        return net::make_envelope(net::Ack{});
      });
}

}  // namespace hoh::pilot

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "pilot/states.h"
#include "sim/engine.h"

/// \file state_store.h
/// The shared document store the Unit-Manager and the agents communicate
/// through — the paper's MongoDB instance ("The Unit-Manager queues new
/// Compute-Units using a shared MongoDB instance (step U.2). The
/// RADICAL-Pilot-Agent periodically checks for new Compute-Units (U.3)").
/// Documents are JSON; named queues provide the U.2/U.3 handoff. Every
/// operation pays a configurable round-trip latency, which is how the
/// store's share of Compute-Unit startup latency enters the simulation.
///
/// Sharding (DESIGN.md §13): the store is internally split into
/// set_shard_count() shards, each with its own annotated Mutex. A bucket
/// (collection or queue name) hashes to exactly one shard, so all
/// operations, watchers and notifications for one bucket stay on one
/// lock — per-bucket FIFO and per-shard registration order are preserved
/// by construction, and two shard locks are never held at once. The
/// default is one shard, which is byte-for-byte the old single-lock
/// store; web-scale plans raise it via the "store_shards" plan key.
///
/// Thread-safety: all operations lock the owning shard's Mutex, like
/// the real store's server-side concurrency control. The store is also
/// the single chokepoint every unit state write goes through, so
/// update() enforces the Fig. 3 lifecycle-transition table (see
/// pilot/transitions.h): merging an illegal "state" value into a "unit"
/// document throws StateError instead of corrupting the lifecycle. Each
/// "unit" document keeps its state as a typed side-field, set at
/// put/update, so the gate and every watch event read the enum instead
/// of re-parsing the stored string.
///
/// Watch/notify (etcd/ZooKeeper-style, DESIGN.md §10): watch() registers
/// a callback on a bucket and key prefix; every put/update/queue_push
/// under that bucket fires the matching watchers. Delivery goes through
/// the sim engine as a coalesced zero-delay tick: mutations enqueue onto
/// one global FIFO and a single drain event delivers every mutation
/// pending at that instant, so (a) callbacks never run under any store
/// mutex, (b) delivery is deterministic and independent of the shard
/// count — mutations in global FIFO order, watchers in registration
/// order — and (c) the transition gate in update() has already validated
/// the write by the time any watcher sees it. Mutations performed *by* a
/// watch callback go to a fresh tick at the same timestamp.

namespace hoh::pilot {

/// What kind of store mutation fired a watch.
enum class WatchEventType { kPut, kUpdate, kQueuePush };

/// Delivered to watch callbacks. `bucket` is the collection name for
/// kPut/kUpdate and the queue name for kQueuePush; `key` is the document
/// id resp. the pushed queue element. `state` is a "unit" document's
/// lifecycle state right after the mutation (nullopt for queue pushes
/// and other collections) — later writes may have moved the document
/// on by delivery time, so consumers needing the latest state read the
/// store.
struct WatchEvent {
  WatchEventType type;
  std::string bucket;
  std::string key;
  std::optional<UnitState> state;
};

/// Handle for a registered watch; usable to unwatch.
class WatchHandle {
 public:
  WatchHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class StateStore;
  explicit WatchHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// In-memory document store with named FIFO queues.
class StateStore {
 public:
  using WatchCallback = std::function<void(const WatchEvent&)>;

  /// Shard indices are packed into the low bits of watch ids.
  static constexpr std::size_t kMaxShards = 256;

  explicit StateStore(sim::Engine& engine, common::Seconds op_latency = 0.05);

  ~StateStore() { set_transport(nullptr); }  // drop transport endpoints

  common::Seconds op_latency() const { return op_latency_; }

  /// Re-partitions the (empty) store into \p count shards. Must be
  /// called before any document, queue element or watcher exists;
  /// throws StateError once the store is in use and ConfigError for
  /// count == 0 or count > kMaxShards.
  void set_shard_count(std::size_t count);

  std::size_t shard_count() const { return shards_.size(); }

  /// Inserts or replaces a document. A "unit" document's "state", if
  /// present, must name a UnitState (StateError otherwise).
  void put(const std::string& collection, const std::string& id,
           common::Json document);

  /// Reads a document; nullopt when absent.
  std::optional<common::Json> get(const std::string& collection,
                                  const std::string& id) const;

  /// Lifecycle state of a "unit" document (its typed side-field);
  /// nullopt when the document or its state is absent. One op, like get().
  std::optional<UnitState> unit_state(const std::string& id) const;

  /// Reads one top-level field of a document; nullopt when the document
  /// or the field is absent. Same op accounting as get(), but copies one
  /// value instead of the whole document.
  std::optional<common::Json> get_field(const std::string& collection,
                                        const std::string& id,
                                        const std::string& field) const;

  /// Merges \p fields into an existing document (top-level keys). A
  /// "state" merge into the "unit" collection is validated against the
  /// unit lifecycle-transition table and throws StateError on an illegal
  /// edge (e.g. Done -> Executing after a stale requeue).
  void update(const std::string& collection, const std::string& id,
              const common::JsonObject& fields);

  /// All documents of a collection (id order).
  std::vector<std::pair<std::string, common::Json>> find_all(
      const std::string& collection) const;

  /// Appends an id to a named queue.
  void queue_push(const std::string& queue, const std::string& id);

  /// Drains the queue (agent poll). Returns ids in FIFO order.
  std::vector<std::string> queue_pop_all(const std::string& queue);

  std::size_t queue_depth(const std::string& queue) const;

  /// Total simulated operations performed (for overhead accounting).
  std::uint64_t op_count() const;

  /// Total *mutations* (put/update/queue push/pop) — reads excluded.
  std::uint64_t mutation_count() const;

  /// Registers a watch on \p bucket (a collection or queue name) for keys
  /// starting with \p key_prefix (empty = every key). The callback fires
  /// once per matching mutation, delivered through the sim engine at the
  /// mutation's timestamp (coalesced zero-delay tick). Watchers
  /// registered earlier fire earlier for the same mutation.
  WatchHandle watch(const std::string& bucket, const std::string& key_prefix,
                    WatchCallback callback);

  /// Removes a watch. Pending deliveries for it are dropped (the watcher
  /// set is re-checked at delivery time). Returns false if the handle was
  /// invalid or already unwatched.
  bool unwatch(WatchHandle handle);

  /// Number of registered watchers (teardown hygiene checks).
  std::size_t watcher_count() const;

  /// Attaches the store to the session's message boundary (DESIGN.md
  /// §14): registers the "store.notify" endpoint (watch fan-out) and
  /// the "store.ingest" endpoint (the U.2 document put + queue push as
  /// one message), and routes every watch delivery through
  /// transport->send as a WatchNotify. A Session always wires this; a
  /// store constructed standalone (unit tests) keeps the direct
  /// delivery path. Passing nullptr detaches.
  void set_transport(net::Transport* transport);

  net::Transport* transport() const { return transport_; }

 private:
  struct Watcher {
    std::string bucket;
    std::string prefix;
    WatchCallback fn;
  };

  /// A stored document plus, for "unit" documents, its lifecycle state
  /// (the typed copy of the "state" field).
  struct Document {
    common::Json json;
    std::optional<UnitState> state;
  };

  /// One lock domain: the documents, queues and watchers of every bucket
  /// hashing here. Watch ids pack (registration counter << 8) | shard
  /// index, so map order inside a shard is registration order and
  /// unwatch/delivery recover the shard without a side table.
  struct Shard {
    mutable common::Mutex mu;
    mutable std::uint64_t ops HOH_GUARDED_BY(mu) = 0;
    std::uint64_t muts HOH_GUARDED_BY(mu) = 0;
    std::map<std::string, std::map<std::string, Document>> collections
        HOH_GUARDED_BY(mu);
    std::map<std::string, std::deque<std::string>> queues HOH_GUARDED_BY(mu);
    /// Keyed by watch id; std::map iteration = registration-order delivery.
    std::map<std::uint64_t, Watcher> watchers HOH_GUARDED_BY(mu);
  };

  /// One mutation awaiting watch delivery; targets were matched under
  /// the bucket's shard lock at mutation time and are re-resolved at
  /// delivery time.
  struct PendingDelivery {
    std::vector<std::uint64_t> targets;
    WatchEvent event;
  };

  Shard& shard_for(const std::string& bucket) const;

  /// Enqueues one mutation onto the global delivery FIFO and schedules
  /// the coalesced drain tick if none is pending. Called after the
  /// mutating critical section released its shard lock.
  void notify(WatchEventType type, const std::string& bucket,
              const std::string& key,
              std::optional<UnitState> state = std::nullopt);

  /// The drain tick: delivers every mutation queued at this instant.
  void deliver_pending();

  /// Resolves each watcher id in order and runs its callback (the
  /// delivery step shared by the transport endpoint and the standalone
  /// path).
  void deliver(const std::vector<std::uint64_t>& watcher_ids,
               const WatchEvent& event);

  bool in_use() const;

  sim::Engine& engine_;
  common::Seconds op_latency_;
  net::Transport* transport_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Watch-id allocation is global so registration order is total across
  /// shards; ops_base_ carries operation counts across re-sharding.
  mutable common::Mutex id_mu_;
  std::uint64_t next_watch_seq_ HOH_GUARDED_BY(id_mu_) = 1;
  std::uint64_t ops_base_ HOH_GUARDED_BY(id_mu_) = 0;
  std::uint64_t muts_base_ HOH_GUARDED_BY(id_mu_) = 0;

  /// Global mutation FIFO: delivery order is submission order no matter
  /// how many shards the buckets hash across.
  mutable common::Mutex delivery_mu_;
  std::vector<PendingDelivery> pending_deliveries_
      HOH_GUARDED_BY(delivery_mu_);
  bool delivery_scheduled_ HOH_GUARDED_BY(delivery_mu_) = false;
};

}  // namespace hoh::pilot

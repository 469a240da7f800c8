#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/error.h"
#include "yarn/application_master.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_cluster.h"

namespace hoh::yarn {
namespace {

/// Builds a 3-node allocation on a generic profile.
class YarnTest : public ::testing::Test {
 protected:
  YarnTest() : machine_(cluster::generic_profile(3, 8, 16 * 1024)) {
    std::vector<std::shared_ptr<cluster::Node>> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_shared<cluster::Node>(
          "n" + std::to_string(i), machine_.node));
    }
    allocation_ = cluster::Allocation(nodes);
  }

  sim::Engine engine_;
  cluster::MachineProfile machine_;
  cluster::Allocation allocation_;
};

TEST_F(YarnTest, NormalizeRoundsToMinimum) {
  YarnConfig cfg;
  cfg.minimum_allocation = {1024, 1};
  cfg.maximum_allocation = {8192, 8};
  EXPECT_EQ(cfg.normalize({100, 1}).memory_mb, 1024);
  EXPECT_EQ(cfg.normalize({1500, 1}).memory_mb, 2048);
  EXPECT_EQ(cfg.normalize({100000, 20}).memory_mb, 8192);
  EXPECT_EQ(cfg.normalize({100000, 20}).vcores, 8);
}

TEST_F(YarnTest, NodeManagerCapacityDefaults) {
  YarnConfig cfg;
  NodeManager nm(engine_, cfg, allocation_.nodes()[0]);
  EXPECT_EQ(nm.capacity().vcores, 8);
  EXPECT_EQ(nm.capacity().memory_mb, 16 * 1024 * 7 / 8);
}

TEST_F(YarnTest, AmLifecycleTwoStageAllocation) {
  ResourceManager rm(engine_, allocation_);
  double am_started_at = -1.0;
  AppDescriptor app;
  app.name = "radical-yarn-app";
  app.on_am_start = [&](ApplicationMaster& am) {
    am_started_at = engine_.now();
    am.unregister(true);
  };
  const auto app_id = rm.submit_application(std::move(app));
  EXPECT_EQ(rm.application(app_id).state, AppState::kSubmitted);
  engine_.run_until(60.0);
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
  // AM start pays: scheduler pass + AM launch + registration.
  EXPECT_GE(am_started_at, rm.config().am_launch_time +
                               rm.config().am_register_time);
  rm.shutdown();
}

TEST_F(YarnTest, FullTaskContainerFlow) {
  ResourceManager rm(engine_, allocation_);
  double task_running_at = -1.0;
  std::string task_node;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {2048, 1};
    am.request_containers(1, req, [&](const Container& c) {
      task_node = c.node;
      am.launch(c.id, [&, id = c.id] {
        task_running_at = engine_.now();
        am.complete_container(id);
        am.unregister(true);
      });
    });
  };
  const auto app_id = rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  EXPECT_EQ(rm.application(app_id).state, AppState::kFinished);
  EXPECT_GT(task_running_at, 0.0);
  EXPECT_FALSE(task_node.empty());
  // Everything released.
  EXPECT_EQ(rm.total_allocated().memory_mb, 0);
  EXPECT_EQ(rm.total_allocated().vcores, 0);
  rm.shutdown();
}

TEST_F(YarnTest, CuStartupOverheadIsTensOfSeconds) {
  // The Fig. 5 inset claim: a YARN-executed Compute-Unit pays the
  // two-stage AM + container allocation, far more than a fork.
  ResourceManager rm(engine_, allocation_);
  double payload_at = -1.0;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    am.request_containers(1, req, [&](const Container& c) {
      am.launch(c.id, [&] { payload_at = engine_.now(); });
    });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  ASSERT_GT(payload_at, 0.0);
  EXPECT_GE(payload_at, 8.0);   // well above an HPC fork
  EXPECT_LE(payload_at, 60.0);  // but bounded
  rm.shutdown();
}

TEST_F(YarnTest, PreferredNodePlacement) {
  ResourceManager rm(engine_, allocation_);
  std::string placed_node;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.preferred_nodes = {"n2"};
    am.request_containers(1, req, [&](const Container& c) {
      placed_node = c.node;
    });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  EXPECT_EQ(placed_node, "n2");
  rm.shutdown();
}

TEST_F(YarnTest, StrictLocalityWaitsForBusyNode) {
  YarnConfig cfg;
  cfg.nm_memory_mb = 4096;  // small NMs so we can fill one node
  ResourceManager rm(engine_, allocation_, cfg);
  std::string strict_node;
  AppDescriptor filler;
  filler.on_am_start = [&](ApplicationMaster& am) {
    // Occupy all of n0 (AM may land anywhere).
    ContainerRequest req;
    req.resource = {4096, 1};
    req.preferred_nodes = {"n0"};
    req.relax_locality = false;
    am.request_containers(1, req, [&](const Container& c) {
      am.launch(c.id, [] {});
    });
  };
  rm.submit_application(std::move(filler));
  engine_.run_until(60.0);

  AppDescriptor strict;
  strict.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {4096, 1};
    req.preferred_nodes = {"n0"};
    req.relax_locality = false;  // must wait: n0 is full
    am.request_containers(1, req, [&](const Container& c) {
      strict_node = c.node;
    });
  };
  rm.submit_application(std::move(strict));
  engine_.run_until(120.0);
  EXPECT_TRUE(strict_node.empty());  // still waiting, no fallback
  rm.shutdown();
}

TEST_F(YarnTest, MemoryAwareSchedulingRefusesOverCommit) {
  // 3 nodes x 14336 MB NM capacity: 5 x 8192 MB containers do not fit
  // (one per node + AM), even though plenty of cores remain — this is the
  // memory dimension the paper's scheduler extension adds.
  YarnConfig cfg;
  ResourceManager rm(engine_, allocation_, cfg);
  int granted = 0;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {8192, 1};
    am.request_containers(5, req,
                          [&](const Container&) { ++granted; });
  };
  rm.submit_application(std::move(app));
  engine_.run_until(120.0);
  EXPECT_LT(granted, 5);
  EXPECT_GE(granted, 3);
  rm.shutdown();
}

TEST_F(YarnTest, KillApplicationReleasesEverything) {
  ResourceManager rm(engine_, allocation_);
  std::string app_id;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    am.request_containers(2, req, [&am](const Container& c) {
      am.launch(c.id, [] {});
    });
  };
  app_id = rm.submit_application(std::move(app));
  engine_.run_until(60.0);
  ASSERT_EQ(rm.application(app_id).state, AppState::kRunning);
  rm.kill_application(app_id);
  EXPECT_EQ(rm.application(app_id).state, AppState::kKilled);
  EXPECT_EQ(rm.total_allocated().memory_mb, 0);
  rm.shutdown();
}

TEST_F(YarnTest, ClusterMetricsJson) {
  ResourceManager rm(engine_, allocation_);
  auto m = rm.cluster_metrics().at("clusterMetrics");
  EXPECT_EQ(m.at("activeNodes").as_int(), 3);
  EXPECT_EQ(m.at("totalVirtualCores").as_int(), 24);
  EXPECT_EQ(m.at("allocatedMB").as_int(), 0);
  const auto total = m.at("totalMB").as_int();
  EXPECT_EQ(m.at("availableMB").as_int(), total);
  rm.shutdown();
}

/// available() is the typed headroom behind cluster_metrics()'
/// available* fields and the agent's dispatch gate: capacity over live,
/// non-decommissioning NMs minus allocation over *all* NMs. A seeded walk
/// over the NM lifecycle checks it after every step against the REST
/// edge and against an independent sum over the NM ledgers.
void walk_node_lifecycle(std::uint32_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  sim::Engine engine;
  const auto machine = cluster::generic_profile(4, 8, 16 * 1024);
  std::vector<std::shared_ptr<cluster::Node>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_shared<cluster::Node>("n" + std::to_string(i),
                                                    machine.node));
  }
  YarnConfig cfg;
  cfg.nm_liveness_timeout = 30.0;
  ResourceManager rm(engine, cluster::Allocation(nodes), cfg);
  std::vector<std::string> registered = {"n0", "n1", "n2"};
  bool saw_asymmetry = false;
  const auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    const Resource a = rm.available();
    const auto m = rm.cluster_metrics().at("clusterMetrics");
    EXPECT_EQ(a.memory_mb, m.at("availableMB").as_int());
    EXPECT_EQ(a.vcores, m.at("availableVirtualCores").as_int());
    Resource cap{0, 0};
    Resource used{0, 0};
    common::MemoryMb placeable_free = 0;
    for (const auto& name : registered) {
      const NodeManager& nm = rm.node_manager(name);
      used.memory_mb += nm.allocated().memory_mb;
      used.vcores += nm.allocated().vcores;
      if (!nm.alive() || nm.decommissioning()) continue;
      cap.memory_mb += nm.capacity().memory_mb;
      cap.vcores += nm.capacity().vcores;
      placeable_free += nm.available().memory_mb;
    }
    EXPECT_EQ(a.memory_mb, cap.memory_mb - used.memory_mb);
    EXPECT_EQ(a.vcores, cap.vcores - used.vcores);
    if (a.memory_mb != placeable_free) saw_asymmetry = true;
  };
  double now = 0.0;
  const auto run = [&](double dt, const std::string& step) {
    now += dt;
    engine.run_until(now);
    check(step);
  };

  ApplicationMaster* am = nullptr;
  AppDescriptor app;
  app.on_am_start = [&](ApplicationMaster& m) { am = &m; };
  const std::string app_id = rm.submit_application(std::move(app));
  run(30.0, "am up");
  ASSERT_NE(am, nullptr);
  const std::string am_node = rm.application(app_id).am_node;
  std::vector<std::string> victims;
  for (const auto& name : registered) {
    if (name != am_node) victims.push_back(name);
  }
  std::shuffle(victims.begin(), victims.end(), rng);

  std::vector<std::string> tasks;  // task containers ever allocated
  const auto running_on = [&](const std::string& node) {
    std::vector<std::string> ids;
    for (const auto& id : tasks) {
      if (rm.container_state(id) == ContainerState::kRunning &&
          rm.node_manager(node).has_container(id)) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  const auto allocate = [&](const std::string& step) {
    ContainerRequest req;
    req.resource = {1024 * pick(1, 3), pick(1, 2)};
    am->request_containers(pick(3, 6), req, [&](const Container& c) {
      tasks.push_back(c.id);
      am->launch(c.id, [] {});
    });
    run(2.0, step + " (allocated)");
    run(10.0, step + " (launched)");
  };
  const auto release_some = [&](const std::string& step) {
    for (int n = pick(1, 2); n > 0; --n) {
      std::vector<std::string> live;
      for (const auto& name : registered) {
        if (!rm.node_manager(name).alive()) continue;
        for (const auto& id : running_on(name)) live.push_back(id);
      }
      if (live.empty()) return;
      am->complete_container(live[pick(0, static_cast<int>(live.size()) - 1)]);
      check(step);
    }
  };

  allocate("allocate");
  release_some("release");
  allocate("allocate again");

  // Silent crash: containers die at once, but the NM stays alive (its
  // capacity still counts) until the liveness monitor expires it.
  rm.node_manager(victims[0]).crash();
  check("crash");
  run(10.0, "crashed, not yet detected");
  run(30.0, "crash detected");
  EXPECT_FALSE(rm.node_manager(victims[0]).alive());
  rm.recover_node(victims[0]);
  check("recover crashed");
  allocate("allocate after recovery");

  rm.fail_node(victims[1]);
  check("fail_node");
  release_some("release after fail");
  rm.recover_node(victims[1]);
  check("recover failed");

  auto extra = std::make_shared<cluster::Node>("n3", machine.node);
  rm.add_node(extra);
  registered.push_back("n3");
  check("add_node");
  allocate("allocate after add");

  // Graceful shrink of the busiest non-AM node: capacity leaves at
  // once, allocation stays counted until each container is released.
  std::string busiest;
  std::size_t most = 0;
  for (const auto& name : {victims[0], victims[1], std::string("n3")}) {
    const std::size_t live = running_on(name).size();
    if (live > most) {
      most = live;
      busiest = name;
    }
  }
  ASSERT_FALSE(busiest.empty());
  rm.decommission_node(busiest);
  check("decommission with live containers");
  for (const auto& id : running_on(busiest)) {
    am->complete_container(id);
    check("drain " + id);
  }
  rm.remove_node(busiest);
  std::erase(registered, busiest);
  check("remove drained node");

  const std::string dead = busiest == "n3" ? victims[0] : "n3";
  rm.fail_node(dead);
  check("fail before removal");
  rm.remove_node(dead);
  std::erase(registered, dead);
  check("remove dead node");
  allocate("allocate after removals");

  EXPECT_TRUE(saw_asymmetry)
      << "the walk never decommissioned a node with live containers";
  rm.shutdown();
}

TEST(YarnAvailableTest, MatchesClusterMetricsAcrossNodeLifecycle) {
  for (const std::uint32_t seed : {1u, 7u, 42u}) walk_node_lifecycle(seed);
}

TEST_F(YarnTest, SchedulerInfoShowsQueues) {
  ResourceManager rm(engine_, allocation_, YarnConfig{},
                     {{"default", 0.7}, {"analytics", 0.3}});
  auto queues = rm.scheduler_info().at("scheduler").at("queues").as_array();
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0].at("queueName").as_string(), "default");
  rm.shutdown();
}

TEST_F(YarnTest, InvalidQueueRejected) {
  ResourceManager rm(engine_, allocation_);
  AppDescriptor app;
  app.queue = "nope";
  EXPECT_THROW(rm.submit_application(std::move(app)), common::ConfigError);
  rm.shutdown();
}

TEST_F(YarnTest, OverCapacityQueueConfigRejected) {
  EXPECT_THROW(ResourceManager(engine_, allocation_, YarnConfig{},
                               {{"a", 0.8}, {"b", 0.4}}),
               common::ConfigError);
}

TEST_F(YarnTest, PreemptionRebalancesQueues) {
  YarnConfig cfg;
  cfg.preemption_enabled = true;
  ResourceManager rm(engine_, allocation_, cfg,
                     {{"prod", 0.5}, {"ad-hoc", 0.5}});
  // The ad-hoc app grabs the whole cluster.
  int adhoc_granted = 0;
  bool preempted = false;
  AppDescriptor hog;
  hog.queue = "ad-hoc";
  hog.on_am_start = [&](ApplicationMaster& am) {
    am.on_preempted([&](const Container&) { preempted = true; });
    ContainerRequest req;
    req.resource = {8192, 2};
    am.request_containers(5, req, [&](const Container& c) {
      ++adhoc_granted;
      am.launch(c.id, [] {});
    });
  };
  rm.submit_application(std::move(hog));
  engine_.run_until(60.0);
  ASSERT_GE(adhoc_granted, 3);

  // A prod app arrives; preemption must free resources for it.
  int prod_granted = 0;
  AppDescriptor prod;
  prod.queue = "prod";
  prod.on_am_start = [&](ApplicationMaster& am) {
    ContainerRequest req;
    req.resource = {8192, 2};
    am.request_containers(2, req,
                          [&](const Container&) { ++prod_granted; });
  };
  rm.submit_application(std::move(prod));
  engine_.run_until(200.0);
  EXPECT_TRUE(preempted);
  EXPECT_GE(prod_granted, 1);
  rm.shutdown();
}

TEST_F(YarnTest, YarnClusterFacadeBringsUpHdfsAndRm) {
  YarnCluster cluster(engine_, machine_, allocation_);
  EXPECT_EQ(cluster.hdfs().datanodes().size(), 3u);
  EXPECT_EQ(cluster.resource_manager().node_count(), 3u);
  cluster.hdfs().create_file("/input", 64 * common::kMiB, "n0");
  EXPECT_TRUE(cluster.hdfs().exists("/input"));
  cluster.shutdown();
}

TEST_F(YarnTest, SubmitAfterShutdownThrows) {
  ResourceManager rm(engine_, allocation_);
  rm.shutdown();
  EXPECT_THROW(rm.submit_application(AppDescriptor{}), common::StateError);
}

}  // namespace
}  // namespace hoh::yarn

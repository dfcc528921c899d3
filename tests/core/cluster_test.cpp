#include "core/cluster.hpp"

#include <gtest/gtest.h>

namespace das::core {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  cfg.compute_nodes = 2;
  return cfg;
}

TEST(ClusterTest, NodeIdAssignment) {
  Cluster cluster(small_config());
  EXPECT_EQ(cluster.storage_node(0), 0U);
  EXPECT_EQ(cluster.storage_node(2), 2U);
  EXPECT_EQ(cluster.compute_node(0), 3U);
  EXPECT_EQ(cluster.compute_node(1), 4U);
}

TEST(ClusterTest, NetworkCoversAllNodes) {
  Cluster cluster(small_config());
  EXPECT_EQ(cluster.network().num_nodes(), 5U);
}

TEST(ClusterTest, PfsHasOneServerPerStorageNode) {
  Cluster cluster(small_config());
  EXPECT_EQ(cluster.pfs().num_servers(), 3U);
  EXPECT_EQ(cluster.pfs().server(1).node(), 1U);
}

TEST(ClusterTest, EveryNodeHasAComputeEngine) {
  Cluster cluster(small_config());
  for (net::NodeId n = 0; n < 5; ++n) {
    EXPECT_GT(cluster.engine(n).config().rate_bps, 0.0);
  }
}

TEST(ClusterTest, ClientsLiveOnComputeNodes) {
  Cluster cluster(small_config());
  EXPECT_EQ(cluster.client(0).node(), 3U);
  EXPECT_EQ(cluster.client(1).node(), 4U);
}

TEST(ClusterTest, ConfigPropagatesToComponents) {
  ClusterConfig cfg = small_config();
  cfg.nic_bandwidth_bps = 42.0 * 1024 * 1024;
  cfg.disk_bandwidth_bps = 77.0 * 1024 * 1024;
  Cluster cluster(cfg);
  EXPECT_DOUBLE_EQ(cluster.network().nic(0).bandwidth_bps(),
                   42.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(cluster.pfs().server(0).disk().config().bandwidth_bps,
                   77.0 * 1024 * 1024);
}

TEST(ClusterTest, PaperDefaultsAreOneToOne) {
  const ClusterConfig cfg;
  EXPECT_EQ(cfg.storage_nodes, cfg.compute_nodes);
  EXPECT_EQ(cfg.total_nodes(), 24U);
}

TEST(ClusterDeathTest, OutOfRangeLookupsAbort) {
  Cluster cluster(small_config());
  EXPECT_DEATH((void)cluster.storage_node(3), "DAS_REQUIRE");
  EXPECT_DEATH((void)cluster.compute_node(2), "DAS_REQUIRE");
  EXPECT_DEATH((void)cluster.engine(99), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::core

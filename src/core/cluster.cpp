#include "core/cluster.hpp"

#include <string>

#include "simkit/assert.hpp"
#include "simkit/trace.hpp"

namespace das::core {

void check_cluster(const ClusterConfig& config) {
  require_option(config.straggler_count <= config.storage_nodes,
                 "cluster.straggler_count", config.straggler_count,
                 "<= " + std::to_string(config.storage_nodes) +
                     ", the storage node count");
  require_option(config.straggler_slowdown >= 1.0,
                 "cluster.straggler_slowdown", config.straggler_slowdown,
                 ">= 1");
}

Cluster::Cluster(const ClusterConfig& config, sim::RunContext* context)
    : config_(config) {
  DAS_REQUIRE(config.storage_nodes > 0);
  DAS_REQUIRE(config.compute_nodes > 0);
  DAS_REQUIRE(config.straggler_count <= config.storage_nodes);
  DAS_REQUIRE(config.straggler_slowdown >= 1.0);

  // Attach the run context before any component captures &sim_.tracer().
  sim_.set_context(context);

  network_ = std::make_unique<net::Network>(sim_, config.network_config());

  std::vector<net::NodeId> server_nodes;
  std::vector<storage::DiskConfig> disk_configs;
  server_nodes.reserve(config.storage_nodes);
  disk_configs.reserve(config.storage_nodes);
  for (std::uint32_t i = 0; i < config.storage_nodes; ++i) {
    server_nodes.push_back(i);
    storage::DiskConfig disk = config.disk_config();
    if (i < config.straggler_count) {
      disk.bandwidth_bps /= config.straggler_slowdown;
    }
    disk.jitter = config.disk_jitter;
    disk.seed = config.seed + i;
    disk_configs.push_back(disk);
  }
  pfs_ = std::make_unique<pfs::Pfs>(sim_, *network_, std::move(server_nodes),
                                    std::move(disk_configs));
  pfs_->enable_strip_caches(config.server_cache);
  pfs_->enable_prefetch(config.prefetch);
  metadata_ = std::make_unique<pfs::MetadataService>(sim_, *network_, *pfs_,
                                                     storage_node(0));

  engines_.reserve(config.total_nodes());
  for (std::uint32_t i = 0; i < config.total_nodes(); ++i) {
    storage::ComputeConfig engine = config.compute_config();
    if (i < config.straggler_count && i < config.storage_nodes) {
      engine.rate_bps /= config.straggler_slowdown;
    }
    engines_.emplace_back(engine);
    engines_.back().set_trace_node(i);
    engines_.back().set_tracer(&sim_.tracer());
  }

  // Bind the run tracer's clock to this cluster's simulator and name every
  // node and track. The tracer belongs to the run context, so concurrent
  // clusters in one process each stamp against their own clock.
  sim::Tracer& tracer = sim_.tracer();
  tracer.set_clock([this]() { return sim_.now(); });
  if (tracer.enabled()) {
    for (std::uint32_t i = 0; i < config.total_nodes(); ++i) {
      const bool is_server = i < config.storage_nodes;
      tracer.set_process_name(
          i, is_server ? "server" + std::to_string(i)
                       : "client" + std::to_string(i - config.storage_nodes));
      for (std::uint32_t t = 0; t < sim::kNumTraceTracks; ++t) {
        tracer.set_track_name(i, static_cast<sim::TraceTrack>(t),
                              sim::to_string(static_cast<sim::TraceTrack>(t)));
      }
    }
  }

  clients_.reserve(config.compute_nodes);
  metadata_caches_.reserve(config.compute_nodes);
  for (std::uint32_t i = 0; i < config.compute_nodes; ++i) {
    clients_.push_back(std::make_unique<pfs::PfsClient>(
        sim_, *network_, *pfs_, compute_node(i)));
    metadata_caches_.push_back(std::make_unique<pfs::MetadataCache>(
        sim_, *metadata_, compute_node(i)));
  }
}

net::NodeId Cluster::storage_node(pfs::ServerIndex index) const {
  DAS_REQUIRE(index < config_.storage_nodes);
  return index;
}

net::NodeId Cluster::compute_node(std::uint32_t index) const {
  DAS_REQUIRE(index < config_.compute_nodes);
  return config_.storage_nodes + index;
}

storage::ComputeEngine& Cluster::engine(net::NodeId node) {
  DAS_REQUIRE(node < engines_.size());
  return engines_[node];
}

pfs::PfsClient& Cluster::client(std::uint32_t index) {
  DAS_REQUIRE(index < clients_.size());
  return *clients_[index];
}

pfs::MetadataService& Cluster::metadata() { return *metadata_; }

pfs::MetadataCache& Cluster::metadata_cache(std::uint32_t index) {
  DAS_REQUIRE(index < metadata_caches_.size());
  return *metadata_caches_[index];
}

}  // namespace das::core

// Simulated cluster assembly: storage nodes [0, S), compute nodes
// [S, S + C), one network, one parallel file system over the storage nodes,
// and a compute engine on every node (the paper's configuration gives NAS,
// DAS and TS "the same computation capability").
#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "net/network.hpp"
#include "pfs/client.hpp"
#include "pfs/metadata.hpp"
#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"
#include "storage/compute_engine.hpp"

namespace das::core {

/// Throw std::invalid_argument naming `field` and its value unless `ok`:
/// "invalid run option <field>=<value> (must be <rule>)". Run entry points
/// check their options this way before building anything, so a bad value
/// is reported by name instead of aborting deep inside the library.
template <typename T>
void require_option(bool ok, const char* field, const T& value,
                    std::string_view rule) {
  if (ok) return;
  std::ostringstream message;
  message << "invalid run option " << field << '=' << value << " (must be "
          << rule << ')';
  throw std::invalid_argument(message.str());
}

/// Reject, with require_option, the straggler settings the Cluster
/// constructor would abort on. The run driver and run_traffic both call it
/// before building a cluster.
void check_cluster(const ClusterConfig& config);

class Cluster {
 public:
  /// `context` is the run's logger/tracer/rng bundle; null gives the
  /// cluster's simulator its private default context. The context must
  /// outlive the cluster.
  explicit Cluster(const ClusterConfig& config,
                   sim::RunContext* context = nullptr);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] pfs::Pfs& pfs() { return *pfs_; }

  /// Node id of storage server index i (identity by construction).
  [[nodiscard]] net::NodeId storage_node(pfs::ServerIndex index) const;

  /// Node id of the i-th compute node.
  [[nodiscard]] net::NodeId compute_node(std::uint32_t index) const;

  /// The processing engine on any node (storage or compute).
  [[nodiscard]] storage::ComputeEngine& engine(net::NodeId node);

  /// The PFS client running on the i-th compute node.
  [[nodiscard]] pfs::PfsClient& client(std::uint32_t index);

  /// The metadata service (hosted on storage node 0).
  [[nodiscard]] pfs::MetadataService& metadata();

  /// The metadata cache of the i-th compute node.
  [[nodiscard]] pfs::MetadataCache& metadata_cache(std::uint32_t index);

 private:
  ClusterConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<pfs::Pfs> pfs_;
  std::vector<storage::ComputeEngine> engines_;
  std::vector<std::unique_ptr<pfs::PfsClient>> clients_;
  std::unique_ptr<pfs::MetadataService> metadata_;
  std::vector<std::unique_ptr<pfs::MetadataCache>> metadata_caches_;
};

}  // namespace das::core

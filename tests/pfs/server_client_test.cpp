#include <gtest/gtest.h>

#include "pfs/client.hpp"
#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"

namespace das::pfs {
namespace {

class PfsFixture : public ::testing::Test {
 protected:
  PfsFixture() {
    net::NetworkConfig ncfg;
    ncfg.num_nodes = 6;  // 4 servers + 2 clients
    ncfg.nic_bandwidth_bps = 1024.0 * 1024;
    ncfg.wire_latency = sim::microseconds(100);
    network_ = std::make_unique<net::Network>(sim_, ncfg);
    pfs_ = std::make_unique<Pfs>(sim_, *network_,
                                 std::vector<net::NodeId>{0, 1, 2, 3},
                                 storage::DiskConfig{});
    client_ = std::make_unique<PfsClient>(sim_, *network_, *pfs_, 4);
  }

  /// A file whose byte i == i % 251 (easy to validate).
  FileId make_file(std::uint64_t size, std::uint64_t strip,
                   std::unique_ptr<Layout> layout = nullptr) {
    FileMeta meta;
    meta.name = "test";
    meta.size_bytes = size;
    meta.strip_size = strip;
    data_.resize(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      data_[i] = static_cast<std::byte>(i % 251);
    }
    if (!layout) layout = std::make_unique<RoundRobinLayout>(4);
    return pfs_->create_file(meta, std::move(layout), &data_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Pfs> pfs_;
  std::unique_ptr<PfsClient> client_;
  std::vector<std::byte> data_;
};

TEST_F(PfsFixture, CreateFilePlacesStripsOnHolders) {
  const FileId f = make_file(1000, 100);
  for (std::uint64_t s = 0; s < 10; ++s) {
    const ServerIndex holder = pfs_->layout(f).primary(s);
    EXPECT_TRUE(pfs_->server(holder).store().has(f, s));
    for (ServerIndex other = 0; other < 4; ++other) {
      if (other != holder) {
        EXPECT_FALSE(pfs_->server(other).store().has(f, s));
      }
    }
  }
  EXPECT_EQ(pfs_->total_stored_bytes(), 1000U);
}

TEST_F(PfsFixture, GatherReassemblesFile) {
  const FileId f = make_file(1000, 128);
  EXPECT_EQ(pfs_->gather_bytes(f), data_);
}

TEST_F(PfsFixture, ReadRangeDeliversExactBytes) {
  const FileId f = make_file(1000, 100);
  std::vector<std::byte> got(350);
  bool complete = false;
  client_->read_range(
      f, 150, 350, [&] { complete = true; },
      [&](StripRef ref, const StripBuffer& payload) {
        ASSERT_EQ(payload.size(), ref.length);
        const auto bytes = payload.span();
        std::copy(bytes.begin(), bytes.end(),
                  got.begin() + static_cast<std::ptrdiff_t>(ref.offset - 150));
      });
  sim_.run();
  EXPECT_TRUE(complete);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), data_.begin() + 150));
}

TEST_F(PfsFixture, ReadAccountsClientServerTraffic) {
  const FileId f = make_file(1000, 100);
  client_->read_range(f, 0, 1000, nullptr);
  sim_.run();
  EXPECT_EQ(network_->bytes_delivered(net::TrafficClass::kClientServer),
            1000U);
  EXPECT_GT(network_->messages_delivered(net::TrafficClass::kControl), 0U);
}

TEST_F(PfsFixture, ReadTakesAtLeastDiskAndWireTime) {
  const FileId f = make_file(1000, 1000);
  sim::SimTime done = -1;
  client_->read_range(f, 0, 1000, [&] { done = sim_.now(); });
  sim_.run();
  // request wire latency + seek + disk + response latency + serialization.
  EXPECT_GT(done, sim::microseconds(200));
}

TEST_F(PfsFixture, WriteRangeUpdatesAllHolders) {
  const FileId f =
      make_file(800, 100, std::make_unique<DasReplicatedLayout>(4, 2, 1));
  std::vector<std::byte> fresh(200, std::byte{0xAB});
  bool complete = false;
  client_->write_range(f, 200, 200, fresh, [&] { complete = true; });
  sim_.run();
  EXPECT_TRUE(complete);
  const std::uint64_t n = pfs_->meta(f).num_strips();
  for (std::uint64_t s = 2; s <= 3; ++s) {
    for (const ServerIndex holder : pfs_->layout(f).holders(s, n)) {
      EXPECT_EQ(pfs_->server(holder).store().buffer(f, s).to_vector(),
                std::vector<std::byte>(100, std::byte{0xAB}));
    }
  }
}

TEST_F(PfsFixture, WriteThenGatherSeesNewData) {
  const FileId f = make_file(1000, 100);
  std::vector<std::byte> fresh(1000, std::byte{0x5C});
  client_->write_range(f, 0, 1000, fresh, nullptr);
  sim_.run();
  EXPECT_EQ(pfs_->gather_bytes(f), fresh);
}

TEST_F(PfsFixture, ServerCountsRemoteService) {
  const FileId f = make_file(400, 100);
  client_->read_range(f, 0, 400, nullptr);
  sim_.run();
  std::uint64_t reads = 0, bytes = 0;
  for (ServerIndex s = 0; s < 4; ++s) {
    reads += pfs_->server(s).remote_reads_served();
    bytes += pfs_->server(s).remote_bytes_served();
  }
  EXPECT_EQ(reads, 4U);
  EXPECT_EQ(bytes, 400U);
}

TEST_F(PfsFixture, ServerOfNodeMapping) {
  EXPECT_EQ(pfs_->server_of_node(2), 2U);
  EXPECT_EQ(pfs_->server_of_node(5), Pfs::kInvalidServer);
  EXPECT_EQ(pfs_->server_node(3), 3U);
}

TEST_F(PfsFixture, TimingOnlyFileReadsDeliverEmptyPayload) {
  FileMeta meta;
  meta.name = "timing";
  meta.size_bytes = 500;
  meta.strip_size = 100;
  const FileId f = pfs_->create_file(
      meta, std::make_unique<RoundRobinLayout>(4), nullptr);
  std::size_t strips = 0;
  client_->read_range(f, 0, 500, nullptr,
                      [&](StripRef, const StripBuffer& payload) {
                        EXPECT_TRUE(payload.empty());
                        ++strips;
                      });
  sim_.run();
  EXPECT_EQ(strips, 5U);
}

}  // namespace
}  // namespace das::pfs

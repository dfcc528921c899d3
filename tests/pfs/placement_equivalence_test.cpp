// Placement equivalence: a server store that derives create-time placement
// from the layout must answer every query exactly as a store that keeps a
// slot per placed strip. The slot store lives on here as the oracle: it
// appends a strip's disk offset on first put, keeps the offset across
// erase/re-put, and supports retire and reinstate. A real Pfs and one
// oracle per server go through the same steps — file creation in timing
// and data mode under every layout class, writes, redistribute, a
// migration out and back (retire, then reinstate), erase/re-put — and
// after every step each server must agree with its oracle on has,
// readable, disk_offset, length, the stored bytes, stored_bytes and
// strip_count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"

namespace das::pfs {
namespace {

class SlotStoreOracle {
 public:
  void put(FileId file, std::uint64_t strip, std::uint64_t length,
           StripBuffer payload) {
    ASSERT_TRUE(payload.empty() || payload.size() == length);
    Slot& slot = slots_[{file, strip}];
    if (!slot.present) {
      if (!slot.placed) {
        slot.disk_offset = next_disk_offset_;
        next_disk_offset_ += length;
        slot.placed = true;
      } else {
        ASSERT_EQ(slot.length, length);
      }
      slot.length = length;
      slot.present = true;
      stored_bytes_ += length;
      ++strip_count_;
    } else {
      ASSERT_EQ(slot.length, length);
      if (slot.retired) {
        slot.retired = false;
        stored_bytes_ += length;
        ++strip_count_;
      }
    }
    slot.payload = std::move(payload);
  }

  [[nodiscard]] bool has(FileId file, std::uint64_t strip) const {
    const Slot* slot = find(file, strip);
    return slot != nullptr && slot->present && !slot->retired;
  }

  [[nodiscard]] bool readable(FileId file, std::uint64_t strip) const {
    const Slot* slot = find(file, strip);
    return slot != nullptr && slot->present;
  }

  void retire(FileId file, std::uint64_t strip) {
    ASSERT_TRUE(has(file, strip));
    Slot& slot = slots_.at({file, strip});
    stored_bytes_ -= slot.length;
    --strip_count_;
    slot.retired = true;
  }

  void erase(FileId file, std::uint64_t strip) {
    ASSERT_TRUE(readable(file, strip));
    Slot& slot = slots_.at({file, strip});
    if (!slot.retired) {
      stored_bytes_ -= slot.length;
      --strip_count_;
    }
    slot.present = false;
    slot.retired = false;
    slot.payload.reset();
  }

  [[nodiscard]] const StripBuffer& buffer(FileId file,
                                          std::uint64_t strip) const {
    return find(file, strip)->payload;
  }
  [[nodiscard]] std::uint64_t disk_offset(FileId file,
                                          std::uint64_t strip) const {
    return find(file, strip)->disk_offset;
  }
  [[nodiscard]] std::uint64_t length(FileId file, std::uint64_t strip) const {
    return find(file, strip)->length;
  }
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_bytes_; }
  [[nodiscard]] std::size_t strip_count() const { return strip_count_; }

 private:
  struct Slot {
    std::uint64_t length = 0;
    std::uint64_t disk_offset = 0;
    StripBuffer payload;
    bool present = false;
    bool placed = false;
    bool retired = false;
  };

  [[nodiscard]] const Slot* find(FileId file, std::uint64_t strip) const {
    const auto it = slots_.find({file, strip});
    return it == slots_.end() ? nullptr : &it->second;
  }

  std::map<std::pair<FileId, std::uint64_t>, Slot> slots_;
  std::uint64_t next_disk_offset_ = 0;
  std::uint64_t stored_bytes_ = 0;
  std::size_t strip_count_ = 0;
};

constexpr std::uint64_t kStrip = 16;

std::vector<std::unique_ptr<Layout>> every_layout_class(std::uint32_t d) {
  std::vector<std::unique_ptr<Layout>> out;
  out.push_back(std::make_unique<RoundRobinLayout>(d));
  out.push_back(std::make_unique<GroupedLayout>(d, 3));
  out.push_back(std::make_unique<ReplicatedRoundRobinLayout>(d, 3));
  out.push_back(std::make_unique<DasReplicatedLayout>(d, 4, 1));
  out.push_back(std::make_unique<DasReplicatedLayout>(d, 6, 2));
  return out;
}

bool contains(const std::vector<ServerIndex>& set, ServerIndex server) {
  return std::find(set.begin(), set.end(), server) != set.end();
}

std::string where(ServerIndex server, FileId file, std::uint64_t strip) {
  std::ostringstream out;
  out << "server " << server << " file " << file << " strip " << strip;
  return out.str();
}

StripBuffer patterned(std::uint64_t length, std::uint64_t seed) {
  std::vector<std::byte> bytes(length);
  for (std::uint64_t i = 0; i < length; ++i) {
    bytes[i] = static_cast<std::byte>((seed * 31 + i * 7) % 253);
  }
  return StripBuffer::copy_of(bytes);
}

class PlacementEquivalenceTest
    : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  PlacementEquivalenceTest() : d_(GetParam()), oracles_(d_) {
    net::NetworkConfig config;
    config.num_nodes = d_;
    network_ = std::make_unique<net::Network>(sim_, config);
    std::vector<net::NodeId> nodes;
    for (std::uint32_t i = 0; i < d_; ++i) nodes.push_back(i);
    pfs_ = std::make_unique<Pfs>(sim_, *network_, nodes,
                                 storage::DiskConfig{});
  }

  /// Strip counts per file: a single strip, fewer strips than servers
  /// (when D > 1), and counts that are no multiple of D or of the groups.
  [[nodiscard]] std::vector<std::uint64_t> strip_counts() const {
    return {1, d_ > 1 ? d_ - 1 : 2, 2 * d_ + 1, 6 * d_ + 5};
  }

  /// Pfs::create_file, and the oracle fed the way the slot store was:
  /// every holder puts its strips in ascending order.
  FileId create(std::unique_ptr<Layout> layout, std::uint64_t strips,
                bool with_data) {
    FileMeta meta;
    meta.name = "f" + std::to_string(files_.size());
    meta.strip_size = kStrip;
    meta.size_bytes = strips * kStrip - 5;  // short last strip
    std::vector<std::byte> data(meta.size_bytes);
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>((files_.size() * 17 + i) % 251);
    }
    const StripBuffer contents = StripBuffer::copy_of(data);
    const auto file = static_cast<FileId>(files_.size());
    for (std::uint64_t s = 0; s < strips; ++s) {
      const StripRef ref = meta.strip(s);
      StripBuffer view;
      if (with_data) view = contents.view(ref.offset, ref.length);
      for (const ServerIndex holder : layout->holders(s, strips)) {
        oracles_[holder].put(file, s, ref.length, view);
      }
    }
    const std::vector<std::byte>* bytes = with_data ? &data : nullptr;
    const FileId created =
        pfs_->create_file(std::move(meta), std::move(layout), bytes);
    EXPECT_EQ(created, file);
    files_.push_back(file);
    data_files_.push_back(with_data);
    return file;
  }

  /// A write to every holder of `strip` under the file's layout.
  void write(FileId file, std::uint64_t strip) {
    const FileMeta& meta = pfs_->meta(file);
    const StripRef ref = meta.strip(strip);
    const auto holders = pfs_->layout(file).holders(strip, meta.num_strips());
    for (const ServerIndex holder : holders) {
      StripBuffer payload;
      if (data_files_[file]) payload = patterned(ref.length, strip + holder);
      pfs_->server(holder).write_local(file, ref, payload);
      oracles_[holder].put(file, strip, ref.length, payload);
    }
  }

  /// Pfs::redistribute. The oracle mirrors its synchronous erases, then
  /// each transfer's landing, in the order the simulator delivers them.
  void redistribute(FileId file, std::unique_ptr<Layout> target) {
    const std::uint64_t n = pfs_->meta(file).num_strips();
    const Layout& from = pfs_->layout(file);
    struct Transfer {
      ServerIndex target;
      std::uint64_t strip;
      std::uint64_t length;
      StripBuffer payload;
    };
    std::vector<Transfer> pending;
    for (std::uint64_t s = 0; s < n; ++s) {
      const auto old_holders = from.holders(s, n);
      const auto new_holders = target->holders(s, n);
      const ServerIndex source = old_holders.front();
      const std::uint64_t length = pfs_->meta(file).strip(s).length;
      for (const ServerIndex h : new_holders) {
        if (!contains(old_holders, h)) {
          pending.push_back({h, s, length, oracles_[source].buffer(file, s)});
        }
      }
      for (const ServerIndex h : old_holders) {
        if (!contains(new_holders, h)) oracles_[h].erase(file, s);
      }
    }
    bool done = false;
    pfs_->redistribute(file, std::move(target), [&done] { done = true; });
    while (!pending.empty()) {
      ASSERT_TRUE(sim_.step()) << pending.size() << " transfers never landed";
      std::erase_if(pending, [&](Transfer& t) {
        if (!pfs_->server(t.target).store().has(file, t.strip)) return false;
        oracles_[t.target].put(file, t.strip, t.length, std::move(t.payload));
        return true;
      });
    }
    sim_.run();
    EXPECT_TRUE(done);
  }

  /// An online migration driven through the Pfs protocol in rounds of three
  /// strips, copying the way LayoutMigrator does: a retired leftover is
  /// reinstated in place, any other missing copy is written from the
  /// strip's current primary. Checks equivalence after every commit.
  void migrate(FileId file, std::unique_ptr<Layout> target_owned) {
    const Layout& target = *target_owned;
    const FileMeta& meta = pfs_->meta(file);
    const std::uint64_t n = meta.num_strips();
    pfs_->begin_migration(file, std::move(target_owned));
    for (std::uint64_t lo = 0; lo < n; lo += 3) {
      const std::uint64_t hi = std::min(lo + 3, n);
      std::vector<std::vector<ServerIndex>> prior;
      for (std::uint64_t s = lo; s < hi; ++s) {
        prior.push_back(pfs_->read_holders(file, s));
        const StripRef ref = meta.strip(s);
        for (const ServerIndex h : target.holders(s, n)) {
          ServerStore& store = pfs_->server(h).store();
          SlotStoreOracle& oracle = oracles_[h];
          if (store.has(file, s)) continue;
          if (store.readable(file, s)) {
            ASSERT_TRUE(oracle.readable(file, s));
            store.put(file, s, ref.length, store.buffer(file, s));
            oracle.put(file, s, ref.length, oracle.buffer(file, s));
            ++reinstated_;
            continue;
          }
          const ServerIndex source = pfs_->read_primary(file, s);
          const PfsServer& from = pfs_->server(source);
          pfs_->server(h).write_local(file, ref, from.store().buffer(file, s));
          oracle.put(file, s, ref.length, oracles_[source].buffer(file, s));
        }
      }
      for (std::uint64_t s = lo; s < hi; ++s) {
        const auto new_holders = target.holders(s, n);
        for (const ServerIndex h : prior[s - lo]) {
          if (!contains(new_holders, h) && oracles_[h].has(file, s)) {
            oracles_[h].retire(file, s);
            ++retired_;
          }
        }
      }
      pfs_->commit_migrated(file, hi);
      ASSERT_NO_FATAL_FAILURE(expect_equivalent("migration round"));
    }
    pfs_->end_migration(file);
  }

  /// Erase every copy server `server` can read of the odd strips of `file`.
  std::vector<std::uint64_t> erase_odd(ServerIndex server, FileId file) {
    std::vector<std::uint64_t> erased;
    ServerStore& store = pfs_->server(server).store();
    for (std::uint64_t s = 1; s < pfs_->meta(file).num_strips(); s += 2) {
      if (!store.readable(file, s)) continue;
      store.erase(file, s);
      oracles_[server].erase(file, s);
      erased.push_back(s);
    }
    return erased;
  }

  void expect_equivalent(const std::string& step) {
    SCOPED_TRACE(step);
    for (ServerIndex i = 0; i < d_; ++i) {
      const ServerStore& store = pfs_->server(i).store();
      const SlotStoreOracle& oracle = oracles_[i];
      ASSERT_EQ(store.stored_bytes(), oracle.stored_bytes()) << "server " << i;
      ASSERT_EQ(store.strip_count(), oracle.strip_count()) << "server " << i;
      for (const FileId f : files_) {
        const std::uint64_t n = pfs_->meta(f).num_strips();
        for (std::uint64_t s = 0; s <= n; ++s) {  // one past the end too
          const auto at = [&] { return where(i, f, s); };
          ASSERT_EQ(store.has(f, s), oracle.has(f, s)) << at();
          ASSERT_EQ(store.readable(f, s), oracle.readable(f, s)) << at();
          if (!oracle.readable(f, s)) continue;
          ASSERT_EQ(store.disk_offset(f, s), oracle.disk_offset(f, s)) << at();
          ASSERT_EQ(store.length(f, s), oracle.length(f, s)) << at();
          const auto got = store.bytes(f, s);
          const auto want = oracle.buffer(f, s).span();
          ASSERT_TRUE(std::ranges::equal(got, want)) << at();
          ASSERT_EQ(store.buffer(f, s), oracle.buffer(f, s)) << at();
        }
      }
    }
  }

  std::uint32_t d_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Pfs> pfs_;
  std::vector<SlotStoreOracle> oracles_;
  std::vector<FileId> files_;
  std::vector<bool> data_files_;
  std::uint64_t retired_ = 0;
  std::uint64_t reinstated_ = 0;
};

TEST_P(PlacementEquivalenceTest, DerivedStoreMatchesTheSlotStore) {
  // Files under every layout class and strip count, alternating timing and
  // data mode.
  for (auto& layout : every_layout_class(d_)) {
    for (const std::uint64_t strips : strip_counts()) {
      create(layout->clone(), strips, files_.size() % 2 == 0);
      ASSERT_NO_FATAL_FAILURE(expect_equivalent("create " + layout->name()));
    }
  }

  // Writes over create-time holdings, in both modes.
  for (const FileId f : files_) {
    for (std::uint64_t s = 0; s < pfs_->meta(f).num_strips(); s += 3) {
      write(f, s);
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("writes"));

  // Redistribute a data file (round-robin, 2D+1 strips) and a timing file
  // (grouped, 6D+5 strips); the moved copies are appended on their new
  // servers.
  const FileId data_rr = files_[2];
  const FileId timing_grouped = files_[7];
  ASSERT_TRUE(data_files_[data_rr]);
  ASSERT_FALSE(data_files_[timing_grouped]);
  ASSERT_NO_FATAL_FAILURE(
      redistribute(data_rr, std::make_unique<DasReplicatedLayout>(d_, 4, 1)));
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("redistribute data file"));
  ASSERT_NO_FATAL_FAILURE(
      redistribute(timing_grouped, std::make_unique<RoundRobinLayout>(d_)));
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("redistribute timing file"));
  // Written after the layout changed: lands on the new holders.
  write(data_rr, 0);
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("write after redistribute"));

  // Migrate a timing file (das(4,1), 6D+5 strips) and a data file
  // (replicated round-robin, 2D+1 strips) out and back: the way out retires
  // the old copies, the way back reinstates them.
  const FileId timing_das = files_[15];
  const FileId data_rrr = files_[10];
  ASSERT_FALSE(data_files_[timing_das]);
  ASSERT_TRUE(data_files_[data_rrr]);
  ASSERT_NO_FATAL_FAILURE(
      migrate(timing_das, std::make_unique<GroupedLayout>(d_, 2)));
  ASSERT_NO_FATAL_FAILURE(
      migrate(timing_das, std::make_unique<DasReplicatedLayout>(d_, 4, 1)));
  ASSERT_NO_FATAL_FAILURE(
      migrate(data_rrr, std::make_unique<RoundRobinLayout>(d_)));
  ASSERT_NO_FATAL_FAILURE(
      migrate(data_rrr, std::make_unique<ReplicatedRoundRobinLayout>(d_, 3)));
  if (d_ > 1) {
    EXPECT_GT(retired_, 0U);
    EXPECT_GT(reinstated_, 0U);
  }
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("migrations"));

  // Erase and re-put: created, redistributed and migrated copies all get
  // their old disk offsets back, while a strip new to the server is
  // appended past everything else.
  const ServerIndex last = d_ - 1;
  std::vector<std::pair<FileId, std::vector<std::uint64_t>>> erased;
  for (const FileId f : {files_[3], data_rr, timing_grouped, timing_das}) {
    erased.emplace_back(f, erase_odd(last, f));
  }
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("erase"));
  const FileId big = files_[3];  // round-robin, 6D+5 strips, timing
  for (std::uint64_t s = 0; s < pfs_->meta(big).num_strips(); ++s) {
    if (!pfs_->server(0).store().readable(big, s)) {
      const std::uint64_t length = pfs_->meta(big).strip(s).length;
      pfs_->server(0).store().put(big, s, length, {});
      oracles_[0].put(big, s, length, {});
      break;
    }
  }
  for (const auto& [f, strips] : erased) {
    for (const std::uint64_t s : strips) {
      const std::uint64_t length = pfs_->meta(f).strip(s).length;
      StripBuffer payload;
      if (data_files_[f]) payload = patterned(length, s);
      pfs_->server(last).store().put(f, s, length, payload);
      oracles_[last].put(f, s, length, payload);
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_equivalent("re-put"));
}

INSTANTIATE_TEST_SUITE_P(Servers, PlacementEquivalenceTest,
                         ::testing::Values(1U, 2U, 3U, 12U),
                         [](const auto& test) {
                           return "D" + std::to_string(test.param);
                         });

}  // namespace
}  // namespace das::pfs

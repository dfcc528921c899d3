// Per-server strip storage.
//
// Holds the actual bytes of each strip a server stores (correctness mode)
// and assigns each strip a position on the server's disk (timing mode).
// Strips are placed on disk in the order they are created, so a server
// scanning its strips in ascending order streams sequentially — matching how
// a PFS server lays out stripe data in practice.
//
// Placement is derived, not stored. place_file() records the file's
// creation layout and the disk cursor at that moment (`base`); a strip the
// layout puts on this server then sits at
//   base + local_ordinal(server, strip) * strip_size
// (create-time strips go to disk in ascending order and only the file's
// last strip can be short), and its payload is a view sliced on demand from
// the file's one payload block. A timing-only file therefore costs O(1) per
// server however many strips it has. Per-strip slots exist only where the
// state differs from that placement: a replaced payload, a retired or
// erased copy, or a copy put after creation (migration and redistribute
// targets), which is appended at the disk cursor and keeps that offset
// across erase/re-put. With no slots the hot lookups do no hashing and no
// allocation. Payloads are shared StripBuffer handles: put() publishes a
// buffer, readers refcount it, and a replacement put() swaps the handle
// without copying bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "pfs/file.hpp"
#include "pfs/layout.hpp"
#include "pfs/strip_buffer.hpp"

namespace das::pfs {

class ServerStore {
 public:
  /// Store every strip of `file` that `layout` places on server `self`, at
  /// derived disk offsets starting from the current disk cursor (which then
  /// advances past them). `contents` is the whole file's payload (empty in
  /// timing-only mode); each holding serves a view of it. `layout` must
  /// outlive the store. Requires `file` to be unknown to this store.
  void place_file(FileId file, const Layout& layout, ServerIndex self,
                  const FileMeta& meta, StripBuffer contents);

  /// Create-or-replace strip data. Assigns a disk position on first insert;
  /// an erased strip that is re-put with its original length gets its old
  /// disk position back (offsets are stable across erase/re-put, so a
  /// re-layout round trip cannot silently defragment the disk model).
  /// `payload` may be empty in timing-only simulations; `length` is the
  /// strip's logical length either way.
  void put(FileId file, std::uint64_t strip, std::uint64_t length,
           StripBuffer payload);

  /// True if this server authoritatively stores the strip (retired copies
  /// excluded — this is the post-migration truth planners and executors
  /// place work against).
  [[nodiscard]] bool has(FileId file, std::uint64_t strip) const;

  /// True if this server can still serve the strip's bytes: authoritative
  /// OR retired by a layout migration. In-flight reads that resolved their
  /// holder under the old layout land here after the frontier has passed,
  /// so retired copies stay readable until the slot is erased or re-put.
  [[nodiscard]] bool readable(FileId file, std::uint64_t strip) const;

  /// Demote an authoritative copy to a read-only leftover of a migration:
  /// drops it from stored_bytes()/strip_count() (and from has()) but keeps
  /// the payload readable. A later put() with the same length reinstates
  /// it. Requires has(). The payload stays a shared StripBuffer view.
  void retire(FileId file, std::uint64_t strip);

  /// Shared handle onto the stored payload (empty in timing-only mode).
  /// The handle stays valid — and immutable — even if the strip is later
  /// replaced or erased. Requires readable().
  [[nodiscard]] StripBuffer buffer(FileId file, std::uint64_t strip) const;

  /// The stored bytes as a view (empty in timing-only mode). Requires
  /// readable(). Valid until the strip is replaced or erased.
  [[nodiscard]] std::span<const std::byte> bytes(FileId file,
                                                 std::uint64_t strip) const;

  /// Disk byte position of the strip on this server. Requires readable().
  [[nodiscard]] std::uint64_t disk_offset(FileId file,
                                          std::uint64_t strip) const;

  /// Logical length of the stored strip. Requires readable().
  [[nodiscard]] std::uint64_t length(FileId file, std::uint64_t strip) const;

  /// Remove a strip (used when re-laying out a file). Requires readable().
  void erase(FileId file, std::uint64_t strip);

  /// Total logical bytes stored (capacity accounting).
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_bytes_; }

  /// Number of strips stored.
  [[nodiscard]] std::size_t strip_count() const { return strip_count_; }

 private:
  enum class SlotState : std::uint8_t { kPresent, kRetired, kErased };

  /// A strip whose state differs from its creation-time placement.
  struct Slot {
    std::uint64_t length = 0;
    std::uint64_t disk_offset = 0;
    StripBuffer payload;
    SlotState state = SlotState::kPresent;
    bool derived = false;  // a creation-time holding (derived offset)
  };

  struct FileRecord {
    /// Creation layout; null for a file only ever put() strip by strip.
    const Layout* layout = nullptr;
    ServerIndex self = 0;
    std::uint64_t num_strips = 0;
    std::uint64_t strip_size = 0;
    std::uint64_t size_bytes = 0;
    std::uint64_t base = 0;  // disk cursor when the file was placed
    StripBuffer contents;    // whole-file payload (data mode)
    std::unordered_map<std::uint64_t, Slot> slots;

    /// The strip's slot, or null when it has none (no hashing when the
    /// file has no slots at all).
    [[nodiscard]] const Slot* find(std::uint64_t strip) const {
      if (slots.empty()) return nullptr;
      const auto it = slots.find(strip);
      return it == slots.end() ? nullptr : &it->second;
    }

    // The creation-time placement of a strip.
    [[nodiscard]] bool derived_holds(std::uint64_t strip) const {
      return layout != nullptr && strip < num_strips &&
             layout->holds(self, strip, num_strips);
    }
    [[nodiscard]] std::uint64_t derived_length(std::uint64_t strip) const {
      return strip + 1 < num_strips ? strip_size
                                    : size_bytes - strip * strip_size;
    }
    [[nodiscard]] std::uint64_t derived_offset(std::uint64_t strip) const {
      return base + layout->local_ordinal(self, strip, num_strips) * strip_size;
    }
    [[nodiscard]] StripBuffer derived_payload(std::uint64_t strip) const;
    [[nodiscard]] std::span<const std::byte> derived_bytes(
        std::uint64_t strip) const;
    /// True if `payload` is exactly the derived view (empty in timing mode).
    [[nodiscard]] bool is_derived_payload(std::uint64_t strip,
                                          const StripBuffer& payload) const;
  };

  /// A readable strip's file record and slot (null slot: derived).
  struct Located {
    const FileRecord& record;
    const Slot* slot;
  };
  [[nodiscard]] Located locate(FileId file, std::uint64_t strip) const;

  /// The readable strip's slot, materialized from its derived placement if
  /// it has none yet.
  [[nodiscard]] Slot& slot_for_update(FileId file, std::uint64_t strip);

  std::vector<FileRecord> files_;
  std::uint64_t next_disk_offset_ = 0;
  std::uint64_t stored_bytes_ = 0;
  std::size_t strip_count_ = 0;
};

}  // namespace das::pfs

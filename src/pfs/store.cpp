#include "pfs/store.hpp"

#include <utility>

#include "simkit/assert.hpp"

namespace das::pfs {

StripBuffer ServerStore::FileRecord::derived_payload(
    std::uint64_t strip) const {
  if (contents.empty()) return {};
  return contents.view(strip * strip_size, derived_length(strip));
}

std::span<const std::byte> ServerStore::FileRecord::derived_bytes(
    std::uint64_t strip) const {
  if (contents.empty()) return {};
  return {contents.data() + strip * strip_size, derived_length(strip)};
}

bool ServerStore::FileRecord::is_derived_payload(
    std::uint64_t strip, const StripBuffer& payload) const {
  if (contents.empty() || payload.empty()) {
    return contents.empty() && payload.empty();
  }
  return payload.data() == contents.data() + strip * strip_size &&
         payload.size() == derived_length(strip);
}

void ServerStore::place_file(FileId file, const Layout& layout,
                             ServerIndex self, const FileMeta& meta,
                             StripBuffer contents) {
  DAS_REQUIRE(self < layout.num_servers());
  DAS_REQUIRE(contents.empty() || contents.size() == meta.size_bytes);
  if (file >= files_.size()) files_.resize(file + 1);
  FileRecord& record = files_[file];
  DAS_REQUIRE(record.layout == nullptr && record.slots.empty());
  record.layout = &layout;
  record.self = self;
  record.num_strips = meta.num_strips();
  record.strip_size = meta.strip_size;
  record.size_bytes = meta.size_bytes;
  record.base = next_disk_offset_;
  const std::uint64_t bytes = layout.stored_bytes(self, meta);
  if (bytes > 0) record.contents = std::move(contents);
  next_disk_offset_ += bytes;
  stored_bytes_ += bytes;
  strip_count_ += layout.local_count(self, record.num_strips);
}

void ServerStore::put(FileId file, std::uint64_t strip, std::uint64_t length,
                      StripBuffer payload) {
  DAS_REQUIRE(payload.empty() || payload.size() == length);
  if (file >= files_.size()) files_.resize(file + 1);
  FileRecord& record = files_[file];
  const auto it = record.slots.find(strip);
  if (it == record.slots.end()) {
    const bool derived = record.derived_holds(strip);
    if (derived) {
      DAS_REQUIRE(record.derived_length(strip) == length);
      if (record.is_derived_payload(strip, payload)) return;
    }
    Slot& slot = record.slots[strip];
    slot.length = length;
    slot.payload = std::move(payload);
    slot.derived = derived;
    if (derived) {
      // A creation-time holding replaced in place: only its payload is new.
      slot.disk_offset = record.derived_offset(strip);
      return;
    }
    // A strip new to this server is appended to the disk.
    slot.disk_offset = next_disk_offset_;
    next_disk_offset_ += length;
    stored_bytes_ += length;
    ++strip_count_;
    return;
  }
  Slot& slot = it->second;
  DAS_REQUIRE(slot.length == length);
  if (slot.state != SlotState::kPresent) {
    // An erased strip re-put, or a retired migration leftover written again
    // (the strip migrated back): authoritative once more, at its old disk
    // position.
    slot.state = SlotState::kPresent;
    stored_bytes_ += length;
    ++strip_count_;
  }
  slot.payload = std::move(payload);
  // Back to exactly its creation-time placement: the slot is redundant.
  if (slot.derived && record.is_derived_payload(strip, slot.payload)) {
    record.slots.erase(it);
  }
}

bool ServerStore::has(FileId file, std::uint64_t strip) const {
  if (file >= files_.size()) return false;
  const FileRecord& record = files_[file];
  if (const Slot* slot = record.find(strip)) {
    return slot->state == SlotState::kPresent;
  }
  return record.derived_holds(strip);
}

bool ServerStore::readable(FileId file, std::uint64_t strip) const {
  if (file >= files_.size()) return false;
  const FileRecord& record = files_[file];
  if (const Slot* slot = record.find(strip)) {
    return slot->state != SlotState::kErased;
  }
  return record.derived_holds(strip);
}

ServerStore::Located ServerStore::locate(FileId file,
                                         std::uint64_t strip) const {
  DAS_REQUIRE(file < files_.size());
  const FileRecord& record = files_[file];
  const Slot* slot = record.find(strip);
  const bool found = slot != nullptr ? slot->state != SlotState::kErased
                                     : record.derived_holds(strip);
  DAS_REQUIRE(found);
  return {record, slot};
}

ServerStore::Slot& ServerStore::slot_for_update(FileId file,
                                                std::uint64_t strip) {
  FileRecord& record = files_[file];
  const auto [it, inserted] = record.slots.try_emplace(strip);
  if (inserted) {
    // First departure from the creation-time placement: materialize it.
    Slot& slot = it->second;
    slot.length = record.derived_length(strip);
    slot.disk_offset = record.derived_offset(strip);
    slot.payload = record.derived_payload(strip);
    slot.derived = true;
  }
  return it->second;
}

void ServerStore::retire(FileId file, std::uint64_t strip) {
  DAS_REQUIRE(has(file, strip));
  Slot& slot = slot_for_update(file, strip);
  DAS_REQUIRE(stored_bytes_ >= slot.length);
  stored_bytes_ -= slot.length;
  --strip_count_;
  slot.state = SlotState::kRetired;
  // payload stays: in-flight reads that resolved here under the old layout
  // must still find the bytes.
}

StripBuffer ServerStore::buffer(FileId file, std::uint64_t strip) const {
  const auto [record, slot] = locate(file, strip);
  return slot != nullptr ? slot->payload : record.derived_payload(strip);
}

std::span<const std::byte> ServerStore::bytes(FileId file,
                                              std::uint64_t strip) const {
  const auto [record, slot] = locate(file, strip);
  return slot != nullptr ? slot->payload.span() : record.derived_bytes(strip);
}

std::uint64_t ServerStore::disk_offset(FileId file,
                                       std::uint64_t strip) const {
  const auto [record, slot] = locate(file, strip);
  return slot != nullptr ? slot->disk_offset : record.derived_offset(strip);
}

std::uint64_t ServerStore::length(FileId file, std::uint64_t strip) const {
  const auto [record, slot] = locate(file, strip);
  return slot != nullptr ? slot->length : record.derived_length(strip);
}

void ServerStore::erase(FileId file, std::uint64_t strip) {
  DAS_REQUIRE(readable(file, strip));
  Slot& slot = slot_for_update(file, strip);
  if (slot.state == SlotState::kPresent) {
    DAS_REQUIRE(stored_bytes_ >= slot.length);
    stored_bytes_ -= slot.length;
    --strip_count_;
  }
  slot.state = SlotState::kErased;
  slot.payload.reset();
  // length/disk_offset stay: a re-put of the same strip reuses them.
}

}  // namespace das::pfs

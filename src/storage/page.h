#ifndef AQV_STORAGE_PAGE_H_
#define AQV_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#include "base/result.h"

namespace aqv {

/// A fixed-size slotted heap page, the on-disk unit of the storage
/// subsystem. Variable-length records (encoded rows, directory-blob chunks)
/// are appended from the tail of the page downward while the slot directory
/// grows from the header upward; a slot is a (offset, length) pair, so
/// records are addressed stably by slot number.
///
/// Layout (all fields little-endian):
///   [0..8)    u64 checksum — Checksum64 over bytes [8, kPageSize)
///   [8..12)   u32 page id
///   [12..14)  u16 slot count
///   [14..16)  u16 record start (lowest record offset; kPageSize when empty)
///   [16..)    slot directory: slot i at 16 + 4*i = {u16 offset, u16 length}
///   ...free space...
///   [record start..kPageSize) record bytes, newest lowest
///
/// The checksum is stamped by UpdateChecksum() (the storage engine does this
/// before every page write) and verified by VerifyChecksum() on read, so a torn page
/// write or bit rot is detected instead of silently decoded.
class Page {
 public:
  static constexpr size_t kPageSize = 8192;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kSlotSize = 4;
  /// Largest record a single (empty) page can hold.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotSize;

  /// Zeroes the page and stamps `page_id`; the page holds no records.
  void Init(uint32_t page_id);

  uint32_t page_id() const { return GetU32(8); }
  uint16_t slot_count() const { return GetU16(12); }

  /// Bytes available for one more record (its slot included); a record of
  /// size <= FreeSpace() - kSlotSize fits.
  size_t FreeSpace() const;

  /// Appends `record`, returning its slot number, or nullopt when it does
  /// not fit (callers move on to a fresh page).
  std::optional<uint16_t> InsertRecord(std::string_view record);

  /// The record at `slot` (a view into the page buffer — valid only while
  /// the page stays pinned and unmodified).
  Result<std::string_view> GetRecord(uint16_t slot) const;

  /// Recomputes and stores the header checksum; call before writing the
  /// page to disk.
  void UpdateChecksum();

  /// True if the stored checksum matches the page contents.
  bool VerifyChecksum() const;

  char* data() { return data_; }
  const char* data() const { return data_; }

 private:
  uint16_t record_start() const { return GetU16(14); }

  uint16_t GetU16(size_t off) const;
  uint32_t GetU32(size_t off) const;
  uint64_t GetU64(size_t off) const;
  void PutU16(size_t off, uint16_t v);
  void PutU32(size_t off, uint32_t v);
  void PutU64(size_t off, uint64_t v);

  char data_[kPageSize];
};

}  // namespace aqv

#endif  // AQV_STORAGE_PAGE_H_

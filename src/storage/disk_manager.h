#ifndef AQV_STORAGE_DISK_MANAGER_H_
#define AQV_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "base/metrics.h"
#include "base/result.h"
#include "storage/page.h"

namespace aqv {

/// Page-granular I/O over the single database file. Pages are addressed by
/// id (byte offset = id * Page::kPageSize); WritePage extends the file as
/// needed, Sync() is the durability barrier the checkpoint protocol builds
/// on. The `page.flush` failpoint is evaluated on every WritePage, so the
/// chaos suite can kill a checkpoint between any two page writes.
///
/// Thread-compatibility: the caller (the storage engine) serializes access
/// externally — the engine holds its own mutex across any
/// checkpoint or recovery, and pread/pwrite keep independent offsets anyway.
class DiskManager {
 public:
  /// Opens (creating if absent) the db file at `path`.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Reads the page at `page_id` into `*page`. Reading past EOF fails with
  /// kNotFound (the caller decides whether that is corruption).
  Status ReadPage(uint32_t page_id, Page* page);

  /// Writes `page` at `page_id`, extending the file if needed. The page's
  /// checksum must already be stamped (Page::UpdateChecksum).
  Status WritePage(uint32_t page_id, const Page& page);

  /// fsyncs the file: every completed WritePage is durable after this.
  Status Sync();

  /// Number of whole pages the file currently holds.
  uint32_t page_count() const { return page_count_; }

  const std::string& path() const { return path_; }

  /// Attaches counters bumped on each page read/write (may be null).
  void SetMetrics(Counter* pages_read, Counter* pages_written) {
    pages_read_ = pages_read;
    pages_written_ = pages_written;
  }

 private:
  DiskManager(std::string path, int fd, uint32_t page_count)
      : path_(std::move(path)), fd_(fd), page_count_(page_count) {}

  std::string path_;
  int fd_ = -1;
  uint32_t page_count_ = 0;
  Counter* pages_read_ = nullptr;
  Counter* pages_written_ = nullptr;
};

}  // namespace aqv

#endif  // AQV_STORAGE_DISK_MANAGER_H_

#ifndef MSQL_STORAGE_HEAP_FILE_H_
#define MSQL_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace msql::storage {

/// Maximum record payload a heap page can hold (page minus the page
/// and record headers).
inline constexpr uint32_t kMaxHeapRecordBytes = kPageSize - 2 - 10;

/// Paged row store addressed by caller-assigned 64-bit row ids.
///
/// Layout (all pages kPageSize):
///   page 0            header: magic, tail data page/used, directory
///                     page-id array (dir index → page id)
///   directory pages   fixed 20-byte entries, entry i of dir page d is
///                     row id d*kEntriesPerDirPage + i:
///                       [lsn u64][page u32][offset u16][len u16][flags u16]
///                     flags: 0 absent, 1 live, 2 dead (tombstone)
///   data pages        append-only record heap: [rowid u64][len u16][bytes]
///                     updates append a fresh record and repoint the
///                     directory; dead space is never compacted (the
///                     paper workloads are small; growth is bounded by
///                     write volume, not live size).
///
/// Every directory entry carries the LSN of the WAL record that made
/// it, so recovery can replay the log idempotently: RedoPut/RedoDelete
/// apply a record only when it is newer than what the entry shows (and
/// for live entries, only when the pointed-at data actually reached
/// disk — directory and data pages hit disk independently).
class HeapFile {
 public:
  HeapFile(BufferManager* pool, uint32_t file_id) noexcept
      : pool_(pool), file_id_(file_id) {}

  /// Initializes a brand-new file (writes the header page).
  Status Create();

  /// Validates the header of an existing file.
  Status Open();

  /// Inserts or replaces the record for `rowid`, stamping `lsn` and
  /// attributing the dirtied pages to `txn` for the no-steal policy
  /// (txn 0 = system writes, always flushable).
  Status Put(uint64_t rowid, uint64_t lsn, uint64_t txn,
             std::string_view bytes);

  /// Tombstones `rowid` (kNotFound when absent or already dead).
  Status Delete(uint64_t rowid, uint64_t lsn, uint64_t txn);

  /// Reads the live record for `rowid` (kNotFound when absent/dead).
  Result<std::string> Get(uint64_t rowid) const;

  /// 0 = absent, 1 = live, 2 = dead.
  Result<uint16_t> EntryFlags(uint64_t rowid) const;

  /// LSN stamped on the entry (0 when absent).
  Result<uint64_t> EntryLsn(uint64_t rowid) const;

  // -- Recovery -----------------------------------------------------------

  /// LSN-guarded idempotent redo of a put/delete (see class comment).
  Status RedoPut(uint64_t rowid, uint64_t lsn, std::string_view bytes);
  Status RedoDelete(uint64_t rowid, uint64_t lsn);

  /// Forgets the append tail so the next Put starts a fresh data page.
  /// Recovery calls this: the durable tail pointer may lag data pages
  /// that committed records already live in, and appending over them
  /// would corrupt rows the directory still references.
  Status ResetTail();

  // -- Scans --------------------------------------------------------------

  /// Calls `fn(rowid, flags)` for every directory entry (live or dead)
  /// in rowid order.
  Status ScanEntries(
      const std::function<Status(uint64_t, uint16_t)>& fn) const;

  /// Calls `fn(rowid, bytes)` for every live row in rowid order.
  Status ScanLive(
      const std::function<Status(uint64_t, std::string_view)>& fn) const;

 private:
  static constexpr uint32_t kMagic = 0x4d514831;  // "MQH1"
  static constexpr uint32_t kEntryBytes = 20;
  static constexpr uint32_t kEntriesPerDirPage = kPageSize / kEntryBytes;
  // Header: [magic u32][tail_page u32][tail_used u16][dir_count u32],
  // then dir_count u32 directory page ids.
  static constexpr uint32_t kHeaderFixed = 4 + 4 + 2 + 4;
  static constexpr uint32_t kMaxDirPages = (kPageSize - kHeaderFixed) / 4;
  static constexpr uint32_t kDataHeader = 2;        // used u16
  static constexpr uint32_t kRecordHeader = 8 + 2;  // rowid u64, len u16

  /// Pins the directory page holding `rowid`, creating it (and its
  /// header slot) when `create` is set. Returns the entry offset too.
  Result<Frame*> PinDirPage(uint64_t rowid, bool create, uint64_t txn,
                            uint32_t* entry_offset) const;

  /// ScanEntries' walk, handing `fn` the entry on its pinned page.
  Status ScanDirectory(
      const std::function<Status(uint64_t, const char*)>& fn) const;
  /// Copies the record at (page, offset) after checking it is `rowid`'s.
  Result<std::string> ReadRecord(uint64_t rowid, PageId page, uint16_t offset,
                                 uint16_t len) const;

  /// True when the heap record at (page, offset) matches the entry —
  /// i.e. the data page version the directory points at reached disk.
  bool DataValid(PageId page, uint16_t offset, uint16_t len,
                 uint64_t rowid) const;

  BufferManager* pool_;
  uint32_t file_id_;
};

}  // namespace msql::storage

#endif  // MSQL_STORAGE_HEAP_FILE_H_

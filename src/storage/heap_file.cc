#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace msql::storage {

namespace {
// Directory entry field offsets (within a kEntryBytes slot).
constexpr uint32_t kEntryLsn = 0;      // u64
constexpr uint32_t kEntryPage = 8;     // u32
constexpr uint32_t kEntryOffset = 12;  // u16
constexpr uint32_t kEntryLen = 14;     // u16
constexpr uint32_t kEntryFlagsOff = 16;  // u16

// Header field offsets (page 0).
constexpr uint32_t kHdrMagic = 0;      // u32
constexpr uint32_t kHdrTailPage = 4;   // u32 (0 = no tail data page yet)
constexpr uint32_t kHdrTailUsed = 8;   // u16
constexpr uint32_t kHdrDirCount = 10;  // u32
constexpr uint32_t kHdrDirArray = 14;  // u32 each
}  // namespace

Status HeapFile::Create() {
  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->NewPage(file_id_));
  if (hdr->page_id != 0) {
    pool_->Unpin(hdr);
    return Status::Internal("heap Create on a non-empty file");
  }
  StoreU32(hdr->data + kHdrMagic, kMagic);
  StoreU32(hdr->data + kHdrTailPage, 0);
  StoreU16(hdr->data + kHdrTailUsed, 0);
  StoreU32(hdr->data + kHdrDirCount, 0);
  pool_->MarkDirty(hdr, 0);
  pool_->Unpin(hdr);
  return Status::OK();
}

Status HeapFile::Open() {
  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->Pin(file_id_, 0));
  uint32_t magic = LoadU32(hdr->data + kHdrMagic);
  if (magic == 0) {
    // A crash can leave the file extended (allocation zero-fills pages
    // eagerly) before the header write ever became durable. A zeroed
    // header means no page of this heap carries data the WAL does not
    // also carry, so reformatting in place and letting LSN-guarded
    // replay refill it is safe.
    StoreU32(hdr->data + kHdrMagic, kMagic);
    StoreU32(hdr->data + kHdrTailPage, 0);
    StoreU16(hdr->data + kHdrTailUsed, 0);
    StoreU32(hdr->data + kHdrDirCount, 0);
    pool_->MarkDirty(hdr, 0);
    pool_->Unpin(hdr);
    return Status::OK();
  }
  pool_->Unpin(hdr);
  if (magic != kMagic) {
    return Status::Corrupted("heap file has a bad magic number");
  }
  return Status::OK();
}

Result<Frame*> HeapFile::PinDirPage(uint64_t rowid, bool create,
                                    uint64_t txn,
                                    uint32_t* entry_offset) const {
  uint64_t dir_index = rowid / kEntriesPerDirPage;
  if (dir_index >= kMaxDirPages) {
    return Status::InvalidArgument("rowid " + std::to_string(rowid) +
                                   " exceeds heap directory capacity");
  }
  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->Pin(file_id_, 0));
  uint32_t dir_count = LoadU32(hdr->data + kHdrDirCount);
  if (dir_index >= dir_count) {
    if (!create) {
      pool_->Unpin(hdr);
      return Status::NotFound("rowid " + std::to_string(rowid) +
                              " has no directory entry");
    }
    while (dir_count <= dir_index) {
      auto fresh = pool_->NewPage(file_id_);
      if (!fresh.ok()) {
        pool_->Unpin(hdr);
        return fresh.status();
      }
      PageId id = (*fresh)->page_id;
      pool_->MarkDirty(*fresh, txn);
      pool_->Unpin(*fresh);
      StoreU32(hdr->data + kHdrDirArray + 4 * dir_count, id);
      ++dir_count;
    }
    StoreU32(hdr->data + kHdrDirCount, dir_count);
    pool_->MarkDirty(hdr, txn);
  }
  PageId dir_page = LoadU32(hdr->data + kHdrDirArray + 4 * dir_index);
  pool_->Unpin(hdr);
  MSQL_ASSIGN_OR_RETURN(Frame * dir, pool_->Pin(file_id_, dir_page));
  *entry_offset =
      static_cast<uint32_t>(rowid % kEntriesPerDirPage) * kEntryBytes;
  return dir;
}

Status HeapFile::Put(uint64_t rowid, uint64_t lsn, uint64_t txn,
                     std::string_view bytes) {
  if (bytes.size() > kMaxHeapRecordBytes) {
    return Status::InvalidArgument(
        "row of " + std::to_string(bytes.size()) +
        " bytes exceeds the heap page capacity of " +
        std::to_string(kMaxHeapRecordBytes));
  }
  uint32_t needed = kRecordHeader + static_cast<uint32_t>(bytes.size());

  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->Pin(file_id_, 0));
  PageId tail_page = LoadU32(hdr->data + kHdrTailPage);
  uint16_t tail_used = LoadU16(hdr->data + kHdrTailUsed);

  Frame* data = nullptr;
  if (tail_page == 0 || tail_used + needed > kPageSize) {
    auto fresh = pool_->NewPage(file_id_);
    if (!fresh.ok()) {
      pool_->Unpin(hdr);
      return fresh.status();
    }
    data = *fresh;
    tail_page = data->page_id;
    tail_used = kDataHeader;
  } else {
    auto pinned = pool_->Pin(file_id_, tail_page);
    if (!pinned.ok()) {
      pool_->Unpin(hdr);
      return pinned.status();
    }
    data = *pinned;
  }
  uint16_t offset = tail_used;
  StoreU64(data->data + offset, rowid);
  StoreU16(data->data + offset + 8,
           static_cast<uint16_t>(bytes.size()));
  std::memcpy(data->data + offset + kRecordHeader, bytes.data(),
              bytes.size());
  tail_used = static_cast<uint16_t>(tail_used + needed);
  StoreU16(data->data, tail_used);  // page-local used, for diagnostics
  pool_->MarkDirty(data, txn);
  pool_->Unpin(data);

  StoreU32(hdr->data + kHdrTailPage, tail_page);
  StoreU16(hdr->data + kHdrTailUsed, tail_used);
  pool_->MarkDirty(hdr, txn);
  pool_->Unpin(hdr);

  uint32_t entry_off = 0;
  MSQL_ASSIGN_OR_RETURN(Frame * dir,
                        PinDirPage(rowid, /*create=*/true, txn, &entry_off));
  StoreU64(dir->data + entry_off + kEntryLsn, lsn);
  StoreU32(dir->data + entry_off + kEntryPage, tail_page);
  StoreU16(dir->data + entry_off + kEntryOffset, offset);
  StoreU16(dir->data + entry_off + kEntryLen,
           static_cast<uint16_t>(bytes.size()));
  StoreU16(dir->data + entry_off + kEntryFlagsOff, 1);
  pool_->MarkDirty(dir, txn);
  pool_->Unpin(dir);
  return Status::OK();
}

Status HeapFile::Delete(uint64_t rowid, uint64_t lsn, uint64_t txn) {
  uint32_t entry_off = 0;
  MSQL_ASSIGN_OR_RETURN(Frame * dir,
                        PinDirPage(rowid, /*create=*/false, txn, &entry_off));
  uint16_t flags = LoadU16(dir->data + entry_off + kEntryFlagsOff);
  if (flags != 1) {
    pool_->Unpin(dir);
    return Status::NotFound("rowid " + std::to_string(rowid) +
                            " is not live in the heap");
  }
  StoreU64(dir->data + entry_off + kEntryLsn, lsn);
  StoreU16(dir->data + entry_off + kEntryFlagsOff, 2);
  pool_->MarkDirty(dir, txn);
  pool_->Unpin(dir);
  return Status::OK();
}

Result<std::string> HeapFile::Get(uint64_t rowid) const {
  uint32_t entry_off = 0;
  MSQL_ASSIGN_OR_RETURN(Frame * dir,
                        PinDirPage(rowid, /*create=*/false, 0, &entry_off));
  uint16_t flags = LoadU16(dir->data + entry_off + kEntryFlagsOff);
  PageId page = LoadU32(dir->data + entry_off + kEntryPage);
  uint16_t offset = LoadU16(dir->data + entry_off + kEntryOffset);
  uint16_t len = LoadU16(dir->data + entry_off + kEntryLen);
  pool_->Unpin(dir);
  if (flags != 1) {
    return Status::NotFound("rowid " + std::to_string(rowid) +
                            " is not live in the heap");
  }
  return ReadRecord(rowid, page, offset, len);
}

Result<std::string> HeapFile::ReadRecord(uint64_t rowid, PageId page,
                                         uint16_t offset,
                                         uint16_t len) const {
  MSQL_ASSIGN_OR_RETURN(Frame * data, pool_->Pin(file_id_, page));
  if (static_cast<uint32_t>(offset) + kRecordHeader + len > kPageSize ||
      LoadU64(data->data + offset) != rowid) {
    pool_->Unpin(data);
    return Status::Corrupted("heap record for rowid " +
                             std::to_string(rowid) +
                             " fails validation");
  }
  std::string out(data->data + offset + kRecordHeader, len);
  pool_->Unpin(data);
  return out;
}

Result<uint16_t> HeapFile::EntryFlags(uint64_t rowid) const {
  uint32_t entry_off = 0;
  auto dir = PinDirPage(rowid, /*create=*/false, 0, &entry_off);
  if (!dir.ok()) {
    if (dir.status().code() == StatusCode::kNotFound) return uint16_t{0};
    return dir.status();
  }
  uint16_t flags = LoadU16((*dir)->data + entry_off + kEntryFlagsOff);
  pool_->Unpin(*dir);
  return flags;
}

Result<uint64_t> HeapFile::EntryLsn(uint64_t rowid) const {
  uint32_t entry_off = 0;
  auto dir = PinDirPage(rowid, /*create=*/false, 0, &entry_off);
  if (!dir.ok()) {
    if (dir.status().code() == StatusCode::kNotFound) return uint64_t{0};
    return dir.status();
  }
  uint64_t lsn = LoadU64((*dir)->data + entry_off + kEntryLsn);
  pool_->Unpin(*dir);
  return lsn;
}

bool HeapFile::DataValid(PageId page, uint16_t offset, uint16_t len,
                         uint64_t rowid) const {
  if (static_cast<uint32_t>(offset) + kRecordHeader + len > kPageSize) {
    return false;
  }
  auto data = pool_->Pin(file_id_, page);
  if (!data.ok()) return false;
  bool ok = LoadU64((*data)->data + offset) == rowid &&
            LoadU16((*data)->data + offset + 8) == len;
  pool_->Unpin(*data);
  return ok;
}

Status HeapFile::RedoPut(uint64_t rowid, uint64_t lsn,
                         std::string_view bytes) {
  uint32_t entry_off = 0;
  auto dir = PinDirPage(rowid, /*create=*/false, 0, &entry_off);
  if (dir.ok()) {
    uint64_t cur_lsn = LoadU64((*dir)->data + entry_off + kEntryLsn);
    uint16_t flags = LoadU16((*dir)->data + entry_off + kEntryFlagsOff);
    PageId page = LoadU32((*dir)->data + entry_off + kEntryPage);
    uint16_t offset = LoadU16((*dir)->data + entry_off + kEntryOffset);
    uint16_t len = LoadU16((*dir)->data + entry_off + kEntryLen);
    pool_->Unpin(*dir);
    if (flags == 2 && cur_lsn >= lsn) return Status::OK();
    // A live entry at or past this LSN only counts if the record it
    // points at actually reached disk (the directory page can outrun
    // its data page to disk).
    if (flags == 1 && cur_lsn >= lsn && DataValid(page, offset, len, rowid)) {
      return Status::OK();
    }
  } else if (dir.status().code() != StatusCode::kNotFound) {
    return dir.status();
  }
  return Put(rowid, lsn, /*txn=*/0, bytes);
}

Status HeapFile::RedoDelete(uint64_t rowid, uint64_t lsn) {
  uint32_t entry_off = 0;
  MSQL_ASSIGN_OR_RETURN(Frame * dir,
                        PinDirPage(rowid, /*create=*/true, 0, &entry_off));
  uint64_t cur_lsn = LoadU64(dir->data + entry_off + kEntryLsn);
  if (cur_lsn >= lsn) {
    pool_->Unpin(dir);
    return Status::OK();
  }
  StoreU64(dir->data + entry_off + kEntryLsn, lsn);
  StoreU16(dir->data + entry_off + kEntryFlagsOff, 2);
  pool_->MarkDirty(dir, 0);
  pool_->Unpin(dir);
  return Status::OK();
}

Status HeapFile::ResetTail() {
  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->Pin(file_id_, 0));
  StoreU32(hdr->data + kHdrTailPage, 0);
  StoreU16(hdr->data + kHdrTailUsed, 0);
  pool_->MarkDirty(hdr, 0);
  pool_->Unpin(hdr);
  return Status::OK();
}

Status HeapFile::ScanDirectory(
    const std::function<Status(uint64_t, const char*)>& fn) const {
  MSQL_ASSIGN_OR_RETURN(Frame * hdr, pool_->Pin(file_id_, 0));
  uint32_t dir_count = LoadU32(hdr->data + kHdrDirCount);
  std::vector<PageId> dir_pages(dir_count);
  for (uint32_t i = 0; i < dir_count; ++i) {
    dir_pages[i] = LoadU32(hdr->data + kHdrDirArray + 4 * i);
  }
  pool_->Unpin(hdr);
  for (uint32_t d = 0; d < dir_count; ++d) {
    MSQL_ASSIGN_OR_RETURN(Frame * dir, pool_->Pin(file_id_, dir_pages[d]));
    for (uint32_t i = 0; i < kEntriesPerDirPage; ++i) {
      const char* entry = dir->data + i * kEntryBytes;
      if (LoadU16(entry + kEntryFlagsOff) == 0) continue;
      uint64_t rowid =
          static_cast<uint64_t>(d) * kEntriesPerDirPage + i;
      Status st = fn(rowid, entry);
      if (!st.ok()) {
        pool_->Unpin(dir);
        return st;
      }
    }
    pool_->Unpin(dir);
  }
  return Status::OK();
}

Status HeapFile::ScanEntries(
    const std::function<Status(uint64_t, uint16_t)>& fn) const {
  return ScanDirectory([&](uint64_t rowid, const char* entry) {
    return fn(rowid, LoadU16(entry + kEntryFlagsOff));
  });
}

Status HeapFile::ScanLive(
    const std::function<Status(uint64_t, std::string_view)>& fn) const {
  // The entry is read off the pinned directory page, so each live row
  // costs one data-page pin rather than Get's header/directory/data.
  return ScanDirectory([&](uint64_t rowid, const char* entry) -> Status {
    if (LoadU16(entry + kEntryFlagsOff) != 1) return Status::OK();
    MSQL_ASSIGN_OR_RETURN(
        std::string bytes,
        ReadRecord(rowid, LoadU32(entry + kEntryPage),
                   LoadU16(entry + kEntryOffset), LoadU16(entry + kEntryLen)));
    return fn(rowid, bytes);
  });
}

}  // namespace msql::storage

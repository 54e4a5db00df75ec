#ifndef TREEBENCH_STORAGE_DISK_MANAGER_H_
#define TREEBENCH_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/page.h"
#include "src/storage/rid.h"

namespace treebench {

/// The simulated disk: a set of named files, each an append-only sequence of
/// 4 KiB pages held in process memory.
///
/// DiskManager itself charges no cost — it is the ground truth below the
/// cache hierarchy. All timed access goes through TwoLevelCache, which
/// charges disk reads/writes and RPCs; direct RawPage() access is reserved
/// for the cache layer and for tests.
///
/// The store keeps a single copy of every page: cache levels hold keys, and
/// writers mutate these bytes in place. The DiskManager alone decides when a
/// page's checksum trailer is brought up to date. The cache reports every
/// write access (NoteWrite), which marks the trailer stale; a disk write
/// stamps it (StampPage); a cache fill stamps a stale trailer before
/// verifying (PageForFill), because the in-place bytes are the newest image
/// and a stale trailer is no evidence of corruption. A page whose trailer
/// is not marked stale is coherent, so any change made behind the cache's
/// back (injected corruption) fails verification at its next fill.
///
/// For crash recovery the DiskManager keeps an optional undo journal: while
/// an epoch is open, the first noted write to each page captures that
/// page's pre-image. A rollback restores every pre-image and truncates
/// files back to their page counts at epoch begin, taking the disk to its
/// exact state at the last checkpoint.
class DiskManager {
 public:
  DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Creates an empty file and returns its id.
  uint16_t CreateFile(std::string name);

  Result<uint16_t> FindFile(const std::string& name) const;

  Result<std::string_view> FileName(uint16_t file_id) const;

  uint16_t file_count() const { return static_cast<uint16_t>(files_.size()); }

  /// Appends a fresh zeroed page (already Page::Init'ed, with a valid
  /// checksum trailer); returns its id.
  uint32_t AllocatePage(uint16_t file_id);

  uint32_t NumPages(uint16_t file_id) const;

  /// Direct access to page bytes — bypasses all cost accounting. Returns
  /// OutOfRange for an unknown file or page.
  Result<uint8_t*> RawPage(uint16_t file_id, uint32_t page_id);
  Result<const uint8_t*> RawPage(uint16_t file_id, uint32_t page_id) const;

  /// Total bytes across all files (what the paper's "buy big" disk holds).
  uint64_t TotalBytes() const;

  // ---- Checksum trailers ----

  /// Notes a write access to a page: marks its trailer stale and, while an
  /// undo epoch is open, captures the pre-image if WouldJournal. No-op for
  /// an unknown file or page.
  void NoteWrite(uint16_t file_id, uint32_t page_id);

  /// A disk write: stamps the trailer and clears the stale mark; returns
  /// the page bytes.
  Result<uint8_t*> StampPage(uint16_t file_id, uint32_t page_id);

  /// The page as a cache fill reads it: a trailer marked stale is stamped
  /// first, so the caller's VerifyPageChecksum fails only on a change that
  /// no noted write covers.
  Result<const uint8_t*> PageForFill(uint16_t file_id, uint32_t page_id);

  /// True while the page's trailer awaits a stamp (noted write since the
  /// last stamp). False for an unknown file or page.
  bool TrailerStale(uint16_t file_id, uint32_t page_id) const;

  // ---- Undo journal ----

  /// Opens a new undo epoch, discarding any previous one. Records current
  /// per-file page counts as the truncation point for rollback.
  void BeginUndoEpoch();

  /// True while an epoch is open.
  bool UndoEpochOpen() const { return undo_open_; }

  /// True if a write to this page would capture a fresh pre-image now: an
  /// epoch is open, the page existed at epoch begin, and no pre-image is
  /// held yet. The TxnManager uses this to charge undo-log volume exactly
  /// when the journal grows (docs/transaction_model.md).
  bool WouldJournal(uint16_t file_id, uint32_t page_id) const;

  /// Pre-images currently held by the open epoch.
  size_t UndoImageCount() const { return undo_images_.size(); }

  /// Declares the epoch's work durable; pre-images are discarded.
  void CommitUndoEpoch();

  /// Restores all journaled pre-images, each with a fresh trailer (the
  /// restore is a disk write), and truncates every file to its page
  /// count at epoch begin (files created after begin shrink to zero pages
  /// but keep their ids). Closes the epoch. Returns every affected page key
  /// ((file_id << 32) | page_id, sorted) — restored pre-images plus
  /// truncated pages — so the caller can discard stale cached copies.
  std::vector<uint64_t> RollbackUndoEpoch();

 private:
  struct FileInfo {
    std::string name;
    std::vector<std::unique_ptr<uint8_t[]>> pages;
    std::vector<uint8_t> stale;  // per page: 1 while the trailer awaits a stamp
  };

  std::vector<FileInfo> files_;

  bool undo_open_ = false;
  std::vector<uint32_t> undo_base_pages_;  // per-file page count at begin
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> undo_images_;
};

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_DISK_MANAGER_H_

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
/// page's checksum trailer is brought up to date and when it must be checked
/// again. It keeps one trailer state per page:
///  - stale: a write was noted (NoteWrite). The in-place bytes are the
///    newest image, so a stale trailer is no evidence of corruption; the
///    next cache fill stamps it (VerifyForFill).
///  - unverified: the trailer was stamped, but a writable pointer to the
///    bytes has been handed out since the last check, so the next fill
///    hashes the page and fails on a mismatch.
///  - verified: the trailer matched the bytes, and no writable pointer was
///    handed out since, so the next fill skips the hash.
/// Whatever hands out writable bytes ends the memo: NoteWrite marks the
/// page stale, the mutable RawPage (the path test flips take) and StampPage
/// (the disk write, after which kPageWriteCorruption may flip a byte) leave
/// it unverified. A fill that stamps or verifies, a fresh AllocatePage and
/// a rollback's restore, none of which hands out a pointer, leave it
/// verified. So any change made behind the cache's back (injected
/// corruption) fails its next fill, and an unchanged page is hashed once.
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
  /// OutOfRange for an unknown file or page. The mutable overload hands out
  /// writable bytes, so it drops a verified page to unverified; reads take
  /// the const one.
  Result<uint8_t*> RawPage(uint16_t file_id, uint32_t page_id);
  Result<const uint8_t*> RawPage(uint16_t file_id, uint32_t page_id) const;

  /// Total bytes across all files (what the paper's "buy big" disk holds).
  uint64_t TotalBytes() const;

  // ---- Checksum trailers ----

  /// Notes a write access to a page: marks its trailer stale and, while an
  /// undo epoch is open, captures the pre-image if WouldJournal. No-op for
  /// an unknown file or page.
  void NoteWrite(uint16_t file_id, uint32_t page_id);

  /// A disk write: stamps the trailer and returns the page bytes, leaving
  /// the page unverified (the caller holds a writable pointer).
  Result<uint8_t*> StampPage(uint16_t file_id, uint32_t page_id);

  /// A cache fill: true if the stored image is coherent with its trailer.
  /// A stale trailer is stamped; an unverified one is hashed; a verified
  /// one is trusted. A page that passes is verified; one that fails stays
  /// unverified.
  Result<bool> VerifyForFill(uint16_t file_id, uint32_t page_id);

  /// True while the page's trailer awaits a stamp (noted write since the
  /// last stamp). False for an unknown file or page.
  bool TrailerStale(uint16_t file_id, uint32_t page_id) const;

  /// True while the next fill of the page may skip the hash (see the class
  /// comment). False for an unknown file or page.
  bool TrailerVerified(uint16_t file_id, uint32_t page_id) const;

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
  /// restore is a disk write) and left verified, and truncates every file
  /// to its page count at epoch begin (files created after begin shrink to
  /// zero pages but keep their ids). Closes the epoch. Returns every affected page key
  /// ((file_id << 32) | page_id, sorted) — restored pre-images plus
  /// truncated pages — so the caller can discard stale cached copies.
  std::vector<uint64_t> RollbackUndoEpoch();

 private:
  enum class Trailer : uint8_t { kStale, kUnverified, kVerified };

  struct FileInfo {
    std::string name;
    std::vector<std::unique_ptr<uint8_t[]>> pages;
    std::vector<Trailer> trailer;  // per page (see the class comment)
  };

  /// OutOfRange unless the file and page exist.
  Status CheckPage(uint16_t file_id, uint32_t page_id) const;

  std::vector<FileInfo> files_;

  bool undo_open_ = false;
  std::vector<uint32_t> undo_base_pages_;  // per-file page count at begin
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> undo_images_;
};

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_DISK_MANAGER_H_

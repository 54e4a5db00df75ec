#include "src/storage/disk_manager.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace treebench {

namespace {

uint64_t PageKey(uint16_t file_id, uint32_t page_id) {
  return (static_cast<uint64_t>(file_id) << 32) | page_id;
}

}  // namespace

uint16_t DiskManager::CreateFile(std::string name) {
  TB_CHECK(files_.size() < 0xFFFF);
  files_.push_back(FileInfo{std::move(name), {}, {}});
  return static_cast<uint16_t>(files_.size() - 1);
}

Result<uint16_t> DiskManager::FindFile(const std::string& name) const {
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) return static_cast<uint16_t>(i);
  }
  return Status::NotFound("no file named " + name);
}

Result<std::string_view> DiskManager::FileName(uint16_t file_id) const {
  if (file_id >= files_.size()) {
    return Status::OutOfRange("no such file id");
  }
  return std::string_view(files_[file_id].name);
}

uint32_t DiskManager::AllocatePage(uint16_t file_id) {
  TB_CHECK(file_id < files_.size());
  auto& pages = files_[file_id].pages;
  auto buf = std::make_unique<uint8_t[]>(kPageSize);
  std::memset(buf.get(), 0, kPageSize);
  Page(buf.get()).Init();
  StampPageChecksum(buf.get());
  pages.push_back(std::move(buf));
  files_[file_id].trailer.push_back(Trailer::kVerified);
  return static_cast<uint32_t>(pages.size() - 1);
}

uint32_t DiskManager::NumPages(uint16_t file_id) const {
  TB_CHECK(file_id < files_.size());
  return static_cast<uint32_t>(files_[file_id].pages.size());
}

Status DiskManager::CheckPage(uint16_t file_id, uint32_t page_id) const {
  if (file_id >= files_.size()) {
    return Status::OutOfRange("no such file id");
  }
  if (page_id >= files_[file_id].pages.size()) {
    return Status::OutOfRange("page id past end of file");
  }
  return Status::OK();
}

Result<uint8_t*> DiskManager::RawPage(uint16_t file_id, uint32_t page_id) {
  TB_RETURN_IF_ERROR(CheckPage(file_id, page_id));
  Trailer& trailer = files_[file_id].trailer[page_id];
  if (trailer == Trailer::kVerified) trailer = Trailer::kUnverified;
  return files_[file_id].pages[page_id].get();
}

Result<const uint8_t*> DiskManager::RawPage(uint16_t file_id,
                                            uint32_t page_id) const {
  TB_RETURN_IF_ERROR(CheckPage(file_id, page_id));
  return files_[file_id].pages[page_id].get();
}

uint64_t DiskManager::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& f : files_) {
    total += static_cast<uint64_t>(f.pages.size()) * kPageSize;
  }
  return total;
}

void DiskManager::NoteWrite(uint16_t file_id, uint32_t page_id) {
  if (file_id >= files_.size() || page_id >= files_[file_id].pages.size()) {
    return;
  }
  files_[file_id].trailer[page_id] = Trailer::kStale;
  if (!WouldJournal(file_id, page_id)) return;
  auto img = std::make_unique<uint8_t[]>(kPageSize);
  std::memcpy(img.get(), files_[file_id].pages[page_id].get(), kPageSize);
  undo_images_.emplace(PageKey(file_id, page_id), std::move(img));
}

Result<uint8_t*> DiskManager::StampPage(uint16_t file_id, uint32_t page_id) {
  TB_RETURN_IF_ERROR(CheckPage(file_id, page_id));
  uint8_t* raw = files_[file_id].pages[page_id].get();
  StampPageChecksum(raw);
  files_[file_id].trailer[page_id] = Trailer::kUnverified;
  return raw;
}

Result<bool> DiskManager::VerifyForFill(uint16_t file_id, uint32_t page_id) {
  TB_RETURN_IF_ERROR(CheckPage(file_id, page_id));
  uint8_t* raw = files_[file_id].pages[page_id].get();
  Trailer& trailer = files_[file_id].trailer[page_id];
  if (trailer == Trailer::kStale) {
    StampPageChecksum(raw);
  } else if (trailer == Trailer::kUnverified && !VerifyPageChecksum(raw)) {
    return false;
  }
  trailer = Trailer::kVerified;
  return true;
}

bool DiskManager::TrailerStale(uint16_t file_id, uint32_t page_id) const {
  return CheckPage(file_id, page_id).ok() &&
         files_[file_id].trailer[page_id] == Trailer::kStale;
}

bool DiskManager::TrailerVerified(uint16_t file_id, uint32_t page_id) const {
  return CheckPage(file_id, page_id).ok() &&
         files_[file_id].trailer[page_id] == Trailer::kVerified;
}

void DiskManager::BeginUndoEpoch() {
  undo_open_ = true;
  undo_images_.clear();
  undo_base_pages_.clear();
  undo_base_pages_.reserve(files_.size());
  for (const auto& f : files_) {
    undo_base_pages_.push_back(static_cast<uint32_t>(f.pages.size()));
  }
}

bool DiskManager::WouldJournal(uint16_t file_id, uint32_t page_id) const {
  if (!undo_open_) return false;
  if (file_id >= undo_base_pages_.size()) return false;
  if (page_id >= undo_base_pages_[file_id]) return false;
  return undo_images_.count(PageKey(file_id, page_id)) == 0;
}

void DiskManager::CommitUndoEpoch() {
  undo_open_ = false;
  undo_images_.clear();
  undo_base_pages_.clear();
}

std::vector<uint64_t> DiskManager::RollbackUndoEpoch() {
  TB_CHECK(undo_open_);
  std::vector<uint64_t> affected;
  affected.reserve(undo_images_.size());
  for (auto& [key, img] : undo_images_) {
    uint16_t file_id = static_cast<uint16_t>(key >> 32);
    uint32_t page_id = static_cast<uint32_t>(key);
    uint8_t* page = files_[file_id].pages[page_id].get();
    std::memcpy(page, img.get(), kPageSize);
    StampPageChecksum(page);
    files_[file_id].trailer[page_id] = Trailer::kVerified;
    affected.push_back(key);
  }
  for (size_t i = 0; i < files_.size(); ++i) {
    uint32_t base =
        i < undo_base_pages_.size() ? undo_base_pages_[i] : 0;
    for (size_t p = base; p < files_[i].pages.size(); ++p) {
      affected.push_back(PageKey(static_cast<uint16_t>(i),
                                 static_cast<uint32_t>(p)));
    }
    if (files_[i].pages.size() > base) {
      files_[i].pages.resize(base);
      files_[i].trailer.resize(base);
    }
  }
  // Files born inside the epoch disappear entirely — an aborted insert must
  // not leave an empty zombie file behind, or the rolled-back image would
  // differ from the pre-transaction one. Their page keys were pushed above
  // (base == 0), so the caller still discards any cached copies.
  if (files_.size() > undo_base_pages_.size()) {
    files_.resize(undo_base_pages_.size());
  }
  undo_open_ = false;
  undo_images_.clear();
  undo_base_pages_.clear();
  std::sort(affected.begin(), affected.end());
  return affected;
}

}  // namespace treebench

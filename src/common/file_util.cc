#include "src/common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace treebench {

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    return Status::Internal("cannot write " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace treebench

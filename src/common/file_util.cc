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

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Internal("cannot read " + path + ": " +
                            std::strerror(errno));
  }
  return content;
}

}  // namespace treebench

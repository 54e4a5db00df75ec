#ifndef TREEBENCH_COMMON_FILE_UTIL_H_
#define TREEBENCH_COMMON_FILE_UTIL_H_

#include <string>

#include "src/common/status.h"

namespace treebench {

/// Writes `content` to `path`, replacing any existing file. Checks the
/// open, the write and the close, so a full disk or a missing directory is
/// an error rather than a silently truncated artifact.
Status WriteFile(const std::string& path, const std::string& content);

/// Reads the whole file at `path`. A file that cannot be opened or read is
/// an error, never an empty string.
Result<std::string> ReadFile(const std::string& path);

}  // namespace treebench

#endif  // TREEBENCH_COMMON_FILE_UTIL_H_

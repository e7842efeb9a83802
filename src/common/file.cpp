#include "common/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace clear {

namespace {

namespace fs = std::filesystem;

void guard(const char* site, const char* step) {
  if (site) fault::maybe_fail_io((std::string(site) + " " + step).c_str());
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  CLEAR_CHECK_MSG(fd >= 0, "cannot open " << path << " for fsync: "
                                          << std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  CLEAR_CHECK_MSG(rc == 0, "fsync " << path << ": " << std::strerror(errno));
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view bytes,
                       const char* site, bool durable) {
  const std::string tmp = path + ".tmp";
  guard(site, "write");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CLEAR_CHECK_MSG(fd >= 0, "cannot write " << tmp << ": "
                                           << std::strerror(errno));
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      const int err = errno;
      ::close(fd);
      CLEAR_CHECK_MSG(false, "IO error writing " << tmp << ": "
                                                 << std::strerror(err));
    }
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
  if (durable) {
    guard(site, "fsync");
    fsync_path(tmp);
  }
  guard(site, "rename");
  std::error_code ec;
  fs::rename(tmp, path, ec);
  CLEAR_CHECK_MSG(!ec, "cannot commit " << path << ": " << ec.message());
  if (durable) {
    // The rename only survives a machine crash once the directory entry
    // itself is on disk.
    const std::string parent = fs::path(path).parent_path().string();
    fsync_path(parent.empty() ? "." : parent);
  }
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) return std::nullopt;
    CLEAR_CHECK_MSG(false, "cannot open " << path << ": "
                                          << std::strerror(err));
  }
  struct stat st {};
  std::string bytes;
  if (::fstat(fd, &st) == 0 && st.st_size > 0)
    bytes.reserve(static_cast<std::size_t>(st.st_size));
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      CLEAR_CHECK_MSG(false, "IO error reading " << path << ": "
                                                 << std::strerror(err));
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return bytes;
}

}  // namespace clear

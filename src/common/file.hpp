// The one atomic file writer and the one whole-file reader behind every
// on-disk format (checkpoints, pipeline artifacts, snapshots, the dataset
// cache). docs/FORMATS.md lists which files each caller fsyncs.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace clear {

/// Write `bytes` to `path` atomically: `<path>.tmp` first, then rename —
/// the rename is the commit point, so a crashed writer never leaves a
/// half-written file at `path`. With `durable` the temp file is fsynced
/// before the rename and the parent directory after it, so the commit
/// survives a machine crash, not only a killed process.
///
/// `site` names the writer in its fault::maybe_fail_io guards, checked in
/// this order: "<site> write", "<site> fsync" (durable only),
/// "<site> rename". A null `site` writes unguarded.
void write_file_atomic(const std::string& path, std::string_view bytes,
                       const char* site, bool durable = false);

/// The whole file, or nullopt when it does not exist (ENOENT, or ENOTDIR
/// for a missing parent). Any other failure to open or read it — EACCES,
/// EMFILE, ELOOP, a directory at `path` — throws clear::Error naming the
/// path and the errno, so an unreadable file is never mistaken for an
/// absent one.
std::optional<std::string> read_file(const std::string& path);

}  // namespace clear

#include "persist/journal.h"

#include <filesystem>
#include <system_error>

namespace bigmap::persist {

Journal::Journal(std::string path, FaultCtx fault, Seed seed)
    : path_(std::move(path)), fault_(fault), seed_(std::move(seed)) {}

JournalReplay Journal::open() const {
  JournalReplay out;
  std::string err;
  if (!read_file(path_, &out.bytes, fault_, &err) || out.bytes.empty()) {
    out.bytes.clear();
    out.created = true;
    if (!reset(&err)) out.error = err;
    return out;
  }
  static_cast<ParsedFile&>(out) = parse_records(out.bytes);
  if (out.status == LoadStatus::kBadMagic ||
      out.status == LoadStatus::kBadVersion) {
    out.error = load_status_name(out.status);
    return out;
  }
  if (out.valid_bytes < out.bytes.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path_, out.valid_bytes, ec);
    if (ec) {
      out.error = "truncate " + path_ + ": " + ec.message();
      return out;
    }
    out.truncated_bytes = out.bytes.size() - out.valid_bytes;
  }
  return out;
}

bool Journal::reset(std::string* err) const {
  RecordWriter rw;
  if (seed_) seed_(rw);
  return write_file_atomic(path_, rw.finish(), fault_, err);
}

}  // namespace bigmap::persist

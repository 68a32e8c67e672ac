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
    // The damage may be on disk or only in the buffer a faulty read
    // returned. Read again: cut the file only when both reads agree on
    // where the valid prefix ends; otherwise replay the read that got
    // further and leave the file alone.
    std::vector<u8> again;
    if (!read_file(path_, &again, fault_, &err)) {
      out.error = err;
      return out;
    }
    const ParsedFile second = parse_records(again);
    if (second.valid_bytes != out.valid_bytes ||
        again.size() != out.bytes.size()) {
      if (second.valid_bytes > out.valid_bytes) {
        out.bytes = std::move(again);
        static_cast<ParsedFile&>(out) = parse_records(out.bytes);
      }
      return out;
    }
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

// Journal: the one append-only BMSP record log. The fleet journal
// (persist/fleet.h), the corpus WAL (corpus/store.h) and the federation
// WAL (fuzzer/netfleet/gateway.h) are all Journals:
//
//   file := [u32 magic "BMSP"][u32 format_version] seed-record* record*
//
// open() reads the file and returns the records of its valid prefix
// (persist/record.h). A torn or checksum-damaged tail is physically
// truncated to that prefix, so later appends continue from a clean record
// boundary instead of landing behind bytes no reader gets past. The cut
// is made only when a second read finds the same valid prefix, so damage
// that a read fault put into the buffer alone never costs a durable
// record. A missing or empty file is created atomically as the header
// plus the seed records.
// A file with a bad magic or another format version is refused without
// writing a byte. append() frames one record and hands it to exactly one
// append_file; reset() atomically rewrites the file to the header plus the
// seed records (compaction, fresh fleets).
//
// Journals are not fsync'd: a commit survives process death, not power
// loss. Every journal byte passes through this class and persist/io.h.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "persist/io.h"
#include "persist/record.h"
#include "util/types.h"

namespace bigmap::persist {

// What Journal::open found: the parse of the file's valid prefix
// (ParsedFile; kOk when the file was created) plus what open did about
// it. `records` are views into `bytes`, so keep the replay alive while
// reading them.
struct JournalReplay : ParsedFile {
  // Non-empty when the journal is unusable: a bad magic or version (the
  // file was left untouched), or a failed create, re-read or truncate.
  std::string error;
  bool created = false;        // missing or empty: header + seed written
  usize truncated_bytes = 0;   // torn or bad-CRC tail cut off the file
  std::vector<u8> bytes;

  bool ok() const noexcept { return error.empty(); }
};

class Journal {
 public:
  // Appends the records a created or reset journal starts with.
  using Seed = std::function<void(RecordWriter&)>;

  Journal(std::string path, FaultCtx fault, Seed seed = {});

  JournalReplay open() const;

  // Appends one record; `fill` receives a PayloadWriter positioned at the
  // payload. `size` (optional) receives the framed record's byte count.
  template <class Fill>
  bool append(RecordType type, Fill&& fill, std::string* err,
              usize* size = nullptr) const {
    std::vector<u8> frame;
    bmsp::append_frame(frame, static_cast<u32>(type), fill);
    if (size != nullptr) *size = frame.size();
    return append_file(path_, frame, fault_, err);
  }

  // Atomically rewrites the file to the header plus the seed records.
  bool reset(std::string* err) const;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  FaultCtx fault_;
  Seed seed_;
};

}  // namespace bigmap::persist

// statecheck: fsck-style validator/dumper for BigMap persistence files.
//
//   statecheck [--dump] <snapshot.bms>...   validate snapshot files
//   statecheck [--dump] --fleet <dir>       validate a fleet directory
//                                           (journal + every instance
//                                           snapshot)
//   statecheck [--dump] --corpus <dir>      fsck a corpus store (WAL +
//                                           pack CRC/payload/content-hash
//                                           integrity, torn tail),
//                                           cross-check every snap-*.bms
//                                           store ref under <dir> against
//                                           the live entry set, and audit
//                                           every federation.wal for epoch
//                                           monotonicity and delta
//                                           well-formedness
//
// --corpus accepts either the store directory itself (corpus.wal /
// corpus.pack) or a fleet directory with a corpus/ subdirectory. The check
// is read-only: a torn WAL tail is reported as a warning (open() truncates
// it by design), structural pack damage and dangling refs are failures.
//
// Exit status 0 when everything checked is valid, 1 otherwise. --dump
// additionally lists every record and the decoded campaign identity, which
// is how a human inspects what a crashed fleet left behind.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "persist/statecheck.h"

using namespace bigmap::persist;

int main(int argc, char** argv) {
  bool dump = false;
  std::string fleet_dir;
  std::string corpus_dir;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
      fleet_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (fleet_dir.empty() && corpus_dir.empty() && files.empty()) {
    std::fprintf(stderr,
                 "usage: statecheck [--dump] <snapshot.bms>...\n"
                 "       statecheck [--dump] --fleet <dir>\n"
                 "       statecheck [--dump] --corpus <dir>\n");
    return 2;
  }

  bool ok = true;
  if (!fleet_dir.empty()) ok = check_fleet_dir(fleet_dir, dump) && ok;
  if (!corpus_dir.empty()) ok = check_corpus_dir(corpus_dir, dump) && ok;
  for (const std::string& path : files) {
    ok = check_snapshot_file(path, dump) && ok;
  }
  return ok ? 0 : 1;
}

// fsck-style checks behind the statecheck CLI (statecheck_main.cpp has
// the full description); the drill binary runs them in process on the
// wreckage a killed run leaves behind. Each check prints one line per
// file it inspects to stdout and returns true when everything it checked
// is valid; `dump` also lists every record and the decoded identity.
#pragma once

#include <string>

#include "util/types.h"

namespace bigmap::persist {

// One snapshot file.
bool check_snapshot_file(const std::string& path, bool dump);

// A fleet directory: the journal, every instance snapshot, and the
// journal's checkpoint references against the snapshots on disk.
bool check_fleet_dir(const std::string& dir, bool dump);

// A corpus store (`root` or `root`/corpus), every snapshot store ref
// under `root`, and every federation.wal under `root`; the number of WALs
// audited goes to `federation_wals` when given.
bool check_corpus_dir(const std::string& root, bool dump,
                      usize* federation_wals = nullptr);

}  // namespace bigmap::persist

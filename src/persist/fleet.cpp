#include "persist/fleet.h"

#include <filesystem>

namespace bigmap::persist {

namespace fs = std::filesystem;

namespace {

void put_fingerprint(PayloadWriter& w, const FleetFingerprint& fp) {
  w.put_u32(fp.num_instances);
  w.put_u64(fp.base_seed);
  w.put_u64(fp.seed_stride);
  w.put_u64(fp.max_execs);
  w.put_u32(fp.scheme);
  w.put_u32(fp.metric);
  w.put_u64(fp.map_size);
}

void put_event(PayloadWriter& w, const InstanceEvent& ev) {
  w.put_u32(ev.instance);
  w.put_u32(ev.final_state);
  w.put_u32(ev.attempts);
  w.put_u32(ev.restarts);
  w.put_u32(ev.stalls);
  w.put_u32(ev.kills);
  w.put_u32(ev.alloc_failures);
  w.put_u32(ev.warm_restarts);
  w.put_u64(ev.execs);
  w.put_u64(ev.interesting);
  w.put_u64(ev.crashes_total);
  w.put_u64(ev.faulted_execs);
  w.put_u64(ev.injected_hangs);
  w.put_u64(ev.base_execs);
  w.put_u64(ev.base_interesting);
  w.put_u64(ev.base_crashes);
  w.put_u64(ev.base_faulted_execs);
  w.put_u64(ev.base_injected_hangs);
  w.put_u64(ev.segment_max_execs);
  w.put_u64(ev.checkpoint_seq);
}

}  // namespace

bool decode_fleet_fingerprint(std::span<const u8> payload,
                              FleetFingerprint* fp) {
  PayloadReader r(payload);
  return r.get_u32(&fp->num_instances) && r.get_u64(&fp->base_seed) &&
         r.get_u64(&fp->seed_stride) && r.get_u64(&fp->max_execs) &&
         r.get_u32(&fp->scheme) && r.get_u32(&fp->metric) &&
         r.get_u64(&fp->map_size);
}

bool decode_instance_event(std::span<const u8> payload, InstanceEvent* ev) {
  PayloadReader r(payload);
  if (!(r.get_u32(&ev->instance) && r.get_u32(&ev->final_state) &&
        r.get_u32(&ev->attempts) && r.get_u32(&ev->restarts) &&
        r.get_u32(&ev->stalls) && r.get_u32(&ev->kills) &&
        r.get_u32(&ev->alloc_failures) && r.get_u32(&ev->warm_restarts) &&
        r.get_u64(&ev->execs) && r.get_u64(&ev->interesting) &&
        r.get_u64(&ev->crashes_total) && r.get_u64(&ev->faulted_execs) &&
        r.get_u64(&ev->injected_hangs) &&
        r.get_u64(&ev->base_execs) && r.get_u64(&ev->base_interesting) &&
        r.get_u64(&ev->base_crashes) &&
        r.get_u64(&ev->base_faulted_execs) &&
        r.get_u64(&ev->base_injected_hangs) &&
        r.get_u64(&ev->segment_max_execs))) {
    return false;
  }
  // Journals written before the checkpoint_seq field lack it; 0 = unknown.
  if (!r.get_u64(&ev->checkpoint_seq)) ev->checkpoint_seq = 0;
  return true;
}

FleetStore::FleetStore(std::string dir, FleetFingerprint fp, FaultCtx fault,
                       bool resume)
    : dir_(std::move(dir)),
      fp_(fp),
      fault_(fault),
      journal_(dir_ + "/fleet.journal", fault, [fp](RecordWriter& rw) {
        rw.append(RecordType::kFleetHeader,
                  [&](PayloadWriter& w) { put_fingerprint(w, fp); });
      }) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (resume) {
    open_resume();
  } else {
    open_fresh();
  }
}

// Removes everything a previous fleet left behind except the journal.
void FleetStore::wipe_instances() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path() == fs::path(journal_.path())) continue;
    fs::remove_all(entry.path(), ec);
  }
}

void FleetStore::open_fresh() {
  // Wipe everything a previous fleet left behind, then lay down the
  // journal header + fingerprint as one atomic commit.
  wipe_instances();
  fresh_stores_ = true;
  std::string err;
  if (!journal_.reset(&err)) {
    error_ = "fleet journal init: " + err;
  }
}

void FleetStore::open_resume() {
  fresh_stores_ = false;
  const JournalReplay replay = journal_.open();
  if (!replay.ok()) {
    error_ = "fleet journal: " + replay.error;
    return;
  }
  if (replay.truncated_bytes > 0) ++journal_tail_dropped_;
  if (replay.created) {
    // Nothing to resume from: the journal was started afresh. The
    // per-instance directories may still hold snapshots, but without
    // budget accounting they cannot be trusted — wipe them too.
    ++journal_cold_starts_;
    wipe_instances();
    fresh_stores_ = true;
    return;
  }
  if (replay.records.empty() ||
      replay.records.front().type != RecordType::kFleetHeader) {
    ++journal_cold_starts_;
    open_fresh();
    return;
  }

  FleetFingerprint on_disk;
  if (!decode_fleet_fingerprint(replay.records.front().payload, &on_disk)) {
    error_ = "fleet journal: bad fingerprint payload";
    return;
  }
  if (!(on_disk == fp_)) {
    error_ =
        "fleet journal: configuration fingerprint mismatch (directory "
        "belongs to a differently configured fleet)";
    return;
  }

  for (usize i = 1; i < replay.records.size(); ++i) {
    if (replay.records[i].type != RecordType::kFleetEvent) continue;
    InstanceEvent ev;
    if (!decode_instance_event(replay.records[i].payload, &ev)) continue;
    last_events_[ev.instance] = ev;
    ++journal_events_;
  }
  resumed_ = true;
}

std::optional<InstanceEvent> FleetStore::last_event(u32 instance) const {
  const auto it = last_events_.find(instance);
  if (it == last_events_.end()) return std::nullopt;
  return it->second;
}

bool FleetStore::append_event(const InstanceEvent& ev, std::string* err) {
  return journal_.append(RecordType::kFleetEvent,
                         [&](PayloadWriter& w) { put_event(w, ev); }, err);
}

CheckpointStore& FleetStore::instance_store(u32 instance) {
  auto it = stores_.find(instance);
  if (it == stores_.end()) {
    FaultCtx bound = fault_;
    bound.instance = instance;
    it = stores_
             .emplace(instance, std::make_unique<CheckpointStore>(
                                    dir_ + "/instance-" +
                                        std::to_string(instance),
                                    bound, fresh_stores_))
             .first;
  }
  return *it->second;
}

PersistStats FleetStore::stats() const {
  PersistStats s;
  s.journal_events = journal_events_;
  s.journal_tail_dropped = journal_tail_dropped_;
  s.cold_starts = journal_cold_starts_;
  for (const auto& [id, store] : stores_) {
    s.add(store->stats());
  }
  return s;
}

}  // namespace bigmap::persist

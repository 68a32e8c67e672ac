#include "fuzzer/netfleet/federate.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <exception>
#include <set>
#include <sstream>
#include <utility>

#include "fuzzer/netfleet/transport.h"
#include "util/syscall.h"
#include "util/timing.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;

// The report codec's key walk: calls f(key, field) for every scalar field
// of a NodeReport, for encode (const) and decode alike — the gateway
// accounting through the stats structs' own field tables. ok, error and
// the two find lists are handled separately.
template <class Report, class F>
void for_each_report_field(Report& r, F&& f) {
  f("total_execs", r.total_execs);
  f("total_interesting", r.total_interesting);
  f("total_crashes", r.total_crashes);
  f("all_completed", r.all_completed);
  for_each_prefixed_field(r.failover, {"fo_", "net_", "oracle_"}, f);
}

// One forked coordinator: runs the fleet, reports over `pipe_wr`, never
// returns.
[[noreturn]] void child_main(const Program& program,
                             const std::vector<Input>& seeds,
                             const procfleet::ProcFleetConfig& config,
                             int pipe_wr) {
  std::string report;
  try {
    const procfleet::ProcFleetResult r =
        run_process_fleet(program, seeds, config);
    report = encode_node_report(r, true, "");
  } catch (const std::exception& e) {
    report = encode_node_report(procfleet::ProcFleetResult{}, false,
                                e.what());
  } catch (...) {
    report = encode_node_report(procfleet::ProcFleetResult{}, false,
                                "unknown exception");
  }
  (void)write_full(pipe_wr, reinterpret_cast<const u8*>(report.data()),
                   report.size());
  xclose(pipe_wr);
  ::_exit(0);
}

}  // namespace

std::string encode_node_report(const procfleet::ProcFleetResult& r, bool ok,
                               const std::string& error) {
  NodeReport n;
  n.total_execs = r.total_execs;
  n.total_interesting = r.total_interesting;
  n.total_crashes = r.total_crashes;
  n.all_completed = r.all_completed();
  n.failover = r.failover;

  std::ostringstream os;
  os << "ok " << (ok ? 1 : 0) << "\n";
  if (!error.empty()) os << "error " << error << "\n";
  os << "bug_ids";
  for (u32 b : r.found_bug_ids) os << ' ' << b;
  os << "\nstack_hashes";
  for (u64 h : r.found_stack_hashes) os << ' ' << h;
  os << "\n";
  for_each_report_field(std::as_const(n),
                        [&](const std::string& key, const auto& v) {
                          os << key << ' ' << v << "\n";
                        });
  return os.str();
}

bool decode_node_report(const std::string& text, NodeReport* out) {
  NodeReport r;
  bool saw_ok = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "ok") {
      ls >> r.ok;
      saw_ok = true;
    } else if (key == "error") {
      std::getline(ls, r.error);
      if (!r.error.empty() && r.error.front() == ' ') r.error.erase(0, 1);
    } else if (key == "bug_ids") {
      u32 v;
      while (ls >> v) r.bug_ids.push_back(v);
    } else if (key == "stack_hashes") {
      u64 v;
      while (ls >> v) r.stack_hashes.push_back(v);
    } else {
      for_each_report_field(r, [&](const std::string& k, auto& v) {
        if (key == k) ls >> v;
      });
    }
  }
  if (!saw_ok) return false;
  *out = r;
  return true;
}

FederationResult run_federation(const Program& program,
                                const std::vector<Input>& seeds,
                                std::vector<procfleet::ProcFleetConfig> nodes,
                                const FederationPlan& plan) {
  FederationResult out;
  const usize n = nodes.size();
  if (n < 2) {
    out.error = "federation: need at least two ranks";
    return out;
  }
  const u32 kill_rank = plan.kill_rank;
  if (kill_rank != FederationPlan::kNoKill && kill_rank >= n) {
    out.error = "federation: kill_rank out of range";
    return out;
  }
  const bool failover = nodes[0].federation.failover;
  for (const procfleet::ProcFleetConfig& c : nodes) {
    if (c.federation.failover != failover) {
      out.error = "federation: ranks disagree on federation.failover";
      return out;
    }
  }
  ignore_sigpipe();

  // Shared session identity, derived from config the ranks genuinely have
  // in common — seeds and worker counts legitimately differ per rank, so
  // the coordinator's per-fleet auto-fingerprint would spuriously
  // mismatch.
  bool any_fp = false;
  for (const procfleet::ProcFleetConfig& c : nodes) {
    any_fp = any_fp || c.federation.link.session_fingerprint != 0;
  }
  if (!any_fp) {
    u64 h = 0x66656465ull;  // "fede"
    for (u64 v :
         {nodes[0].base.max_execs, static_cast<u64>(nodes[0].base.scheme),
          static_cast<u64>(nodes[0].base.metric),
          static_cast<u64>(nodes[0].base.map.map_size)}) {
      h = (h ^ v) * 0x100000001b3ull;
    }
    for (procfleet::ProcFleetConfig& c : nodes) {
      c.federation.link.session_fingerprint = h;
    }
  }

  // The listener matrix: fds[h][s] is the socket rank s dials when rank h
  // leads, bound in the parent so every leadership already has its wiring
  // (without failover only rank 0 ever leads). The parent keeps every fd
  // open for the whole run — a resurrected rank re-inherits its row on
  // re-fork.
  std::vector<std::vector<int>> fds(n, std::vector<int>(n, -1));
  std::vector<std::vector<u16>> ports(n, std::vector<u16>(n, 0));
  auto close_matrix = [&] {
    for (auto& row : fds) {
      for (int& fd : row) {
        if (fd >= 0) xclose(fd);
        fd = -1;
      }
    }
  };
  for (usize h = 0; h < n && (failover || h == 0); ++h) {
    for (usize s = 0; s < n; ++s) {
      if (h == s) continue;
      std::string err;
      fds[h][s] = tcp_listen("127.0.0.1", &ports[h][s], &err);
      if (fds[h][s] < 0) {
        out.error = "federation: " + err;
        close_matrix();
        return out;
      }
    }
  }

  for (usize i = 0; i < n; ++i) {
    FederationConfig& f = nodes[i].federation;
    f.rank = static_cast<u32>(i);
    f.num_nodes = static_cast<u32>(n);
    f.initial_leader = 0;
    if (f.initial_epoch == 0) f.initial_epoch = 1;
    f.link.node_id = i;
    f.listen_fds.assign(n, -1);
    f.dial_ports.assign(n, 0);
    for (usize j = 0; j < n; ++j) {
      if (j == i) continue;
      f.listen_fds[j] = fds[i][j];
      f.dial_ports[j] = ports[j][i];
    }
  }

  // Report pipes: read ends stay in the parent, drained while ranks run
  // (a report can outgrow the pipe buffer, and a child blocked on its
  // write would never exit).
  std::vector<int> pipe_rd(n, -1);
  std::vector<std::string> texts(n);
  auto close_pipes = [&] {
    for (int& fd : pipe_rd) {
      if (fd >= 0) xclose(fd);
      fd = -1;
    }
  };

  // Forks rank i into its OWN process group, so one SIGKILL(-pgid) later
  // takes the coordinator AND every worker it forked — exactly how a host
  // dies. The child drops every matrix fd outside its own row (two
  // processes accepting one listening socket would steal each other's
  // connections) and every pipe but its own write end.
  auto spawn = [&](usize i) -> pid_t {
    int p[2] = {-1, -1};
    if (::pipe(p) != 0) return -1;
    const pid_t pid = ::fork();
    if (pid == 0) {
      (void)::setpgid(0, 0);
      xclose(p[0]);
      for (int fd : pipe_rd) {
        if (fd >= 0) xclose(fd);
      }
      for (usize h = 0; h < n; ++h) {
        if (h == i) continue;
        for (int fd : fds[h]) {
          if (fd >= 0) xclose(fd);
        }
      }
      child_main(program, seeds, nodes[i], p[1]);
    }
    xclose(p[1]);
    if (pid < 0) {
      xclose(p[0]);
      return -1;
    }
    (void)::setpgid(pid, pid);
    pipe_rd[i] = p[0];
    texts[i].clear();
    return pid;
  };

  std::vector<pid_t> pids(n, -1);
  std::vector<bool> alive(n, false);
  auto kill_all = [&] {
    for (usize i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      ::kill(-pids[i], SIGKILL);
      int st = 0;
      (void)xwaitpid(pids[i], &st, 0);
      alive[i] = false;
    }
  };
  for (usize i = 0; i < n; ++i) {
    pids[i] = spawn(i);
    alive[i] = pids[i] > 0;
    if (!alive[i]) {
      out.error = "federation: fork failed";
      kill_all();
      close_pipes();
      close_matrix();
      return out;
    }
  }

  // Event loop: drain report pipes (the bounded poll is the loop's tick),
  // reap naturally-exiting ranks, fire the kill at its deadline, re-fork
  // the victim at the resurrection deadline.
  bool kill_pending = kill_rank != FederationPlan::kNoKill;
  bool resurrect_pending =
      kill_pending && plan.resurrect != FederationPlan::Resurrect::kNone;
  bool was_killed = false;
  const u64 start_ns = monotonic_ns();
  const u64 resurrect_at_ms =
      static_cast<u64>(plan.kill_after_ms) + plan.resurrect_after_ms;
  std::vector<pollfd> pfds;
  std::vector<usize> pfd_rank;
  for (;;) {
    pfds.clear();
    pfd_rank.clear();
    for (usize i = 0; i < n; ++i) {
      if (pipe_rd[i] < 0) continue;
      pfds.push_back(pollfd{pipe_rd[i], POLLIN, 0});
      pfd_rank.push_back(i);
    }
    (void)::poll(pfds.data(), pfds.size(), 5);
    for (usize k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      const usize i = pfd_rank[k];
      char buf[4096];
      const ssize_t r = xread(pipe_rd[i], buf, sizeof(buf));
      if (r > 0) {
        texts[i].append(buf, static_cast<usize>(r));
      } else {
        xclose(pipe_rd[i]);  // EOF: the rank and all its workers are gone
        pipe_rd[i] = -1;
      }
    }
    bool any_open = false;
    for (usize i = 0; i < n; ++i) {
      if (alive[i]) {
        int st = 0;
        if (::waitpid(pids[i], &st, WNOHANG) == pids[i]) alive[i] = false;
      }
      any_open = any_open || alive[i] || pipe_rd[i] >= 0;
    }
    const u64 elapsed_ms = (monotonic_ns() - start_ns) / kMsNs;
    if (kill_pending && elapsed_ms >= plan.kill_after_ms) {
      kill_pending = false;
      if (alive[kill_rank]) {
        ::kill(-pids[kill_rank], SIGKILL);
        int st = 0;
        (void)xwaitpid(pids[kill_rank], &st, 0);
        alive[kill_rank] = false;
        was_killed = true;
      }
      resurrect_pending = resurrect_pending && was_killed;
    }
    if (resurrect_pending && !kill_pending && elapsed_ms >= resurrect_at_ms) {
      resurrect_pending = false;
      // The dead generation's (empty or partial) report is discarded; the
      // resurrection gets a fresh pipe.
      if (pipe_rd[kill_rank] >= 0) xclose(pipe_rd[kill_rank]);
      pipe_rd[kill_rank] = -1;
      procfleet::ProcFleetConfig& c = nodes[kill_rank];
      c.resume = true;
      c.federation.resume_probe = true;
      c.federation.stale_fatal =
          plan.resurrect == FederationPlan::Resurrect::kStale;
      pids[kill_rank] = spawn(kill_rank);
      if (pids[kill_rank] < 0) {
        out.error = "federation: resurrection fork failed";
        break;
      }
      alive[kill_rank] = true;
      any_open = true;
    }
    if (!any_open && !kill_pending && !resurrect_pending) break;
  }
  kill_all();
  close_pipes();
  close_matrix();
  if (!out.error.empty()) return out;

  out.nodes.resize(n);
  std::set<u32> bugs;
  std::set<u64> hashes;
  out.all_completed = true;
  for (usize i = 0; i < n; ++i) {
    NodeReport& r = out.nodes[i];
    const std::string who = "federation: rank " + std::to_string(i);
    if (i == kill_rank && was_killed &&
        plan.resurrect == FederationPlan::Resurrect::kNone) {
      r.error = "killed (no resurrection)";
      continue;  // dead forever by design; not a run failure
    }
    if (!decode_node_report(texts[i], &r)) {
      out.error = who + " produced no report";
      return out;
    }
    if (!r.ok) {
      out.error = who + " failed: " + r.error;
      return out;
    }
    bugs.insert(r.bug_ids.begin(), r.bug_ids.end());
    hashes.insert(r.stack_hashes.begin(), r.stack_hashes.end());
    out.total_execs += r.total_execs;
    out.total_interesting += r.total_interesting;
    out.total_crashes += r.total_crashes;
    out.all_completed = out.all_completed && r.all_completed;
  }
  out.found_bug_ids.assign(bugs.begin(), bugs.end());
  out.found_stack_hashes.assign(hashes.begin(), hashes.end());
  out.ok = true;
  return out;
}

}  // namespace bigmap::netfleet

// Service workload: the real venn_coordinatord daemon on a Unix socket,
// driven by one closed-loop client on one connection.
//
// One round (all files live in the run's work directory):
//   1. set-up probes: spawn a fresh daemon, time spawn -> first ack; the
//      last probe's daemon serves the traffic.
//   2. traffic: the seeded command stream, each command timed send -> reply.
//   3. teardown: `shutdown`; whether its reply arrived and the daemon's
//      exit status are reported, never timed (see README: teardown race).
//   4. recovery: `serve --resume` on the same journal, timed until `seq`
//      reports every acked command.
//   5. `drain`, whose result dump must equal `run-script` on the same
//      command stream.
// An untraced run plays kRounds rounds of the same stream, each on the next
// CPU; each command's latency is its fastest round, since only host
// interference makes one round slower than another. A traced run plays one round, then replays the
// stream in-process through the steps the daemon runs per command (parse,
// validate, append_external, apply), once plain and once timed, and replays
// the daemon's journal with Experiment::replay.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/live.h"
#include "api/observers.h"
#include "api/registry.h"
#include "common.h"
#include "service/client.h"
#include "service/dump.h"
#include "venn/venn.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using venn::api::TrafficCommand;

constexpr std::size_t kDevices = 2000;
// Commands per second of run time: sizes the stream so the traffic phase
// takes a few seconds on a 4-core host. Fixed per (seed, seconds), so the
// journal and every work counter repeat exactly.
constexpr double kCommandsPerSecond = 3000.0;
constexpr int kRounds = 4;       // untraced rounds of the stream, one per CPU
constexpr int kSetupProbes = 2;  // daemon spawns per round
constexpr const char* kSocket = "d.sock";
constexpr const char* kJournal = "d.vjl";

std::vector<std::string> scenario_kv(std::uint64_t seed) {
  return {"seed=" + std::to_string(seed), "devices=" + std::to_string(kDevices),
          "jobs=0"};
}

// The seeded traffic mix: ~40% checkin, 15% checkout, 15% respond,
// 2% submit, 28% advance. Advances spread 80% of the 28-day horizon over
// the stream, so the run never reaches the horizon before `drain`.
std::vector<std::string> make_commands(std::uint64_t seed, std::size_t n) {
  SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e41ce);
  const double horizon = 28.0 * venn::kDay;
  const double mean_dt = 0.8 * horizon / (0.28 * static_cast<double>(n));
  double cursor = 0.0;
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rng.unit();
    const std::string dev = std::to_string(rng.below(kDevices));
    if (r < 0.40) {
      out.push_back("checkin " + dev + " " + std::to_string(300 + rng.below(6901)));
    } else if (r < 0.55) {
      out.push_back("checkout " + dev);
    } else if (r < 0.70) {
      out.push_back("respond " + dev);
    } else if (r < 0.72) {
      out.push_back("submit " + std::to_string(1 + rng.below(5)) + " " +
                    std::to_string(1 + rng.below(20)) + " " +
                    std::to_string(rng.below(4)) + " " +
                    std::to_string(60 + rng.below(241)) + " 0.3 3600");
    } else {
      cursor += std::floor(mean_dt * (0.5 + rng.unit()));
      out.push_back("advance " + std::to_string(static_cast<long long>(cursor)));
    }
  }
  return out;
}

std::string verb_of(const std::string& line) {
  return line.substr(0, line.find(' '));
}

// A child process: a daemon (stdout piped for its READY line) or a
// run-script reference. The destructor kills and reaps whatever is left,
// so no child outlives the run on any path.
class Child {
 public:
  Child(const std::string& bin, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    std::vector<std::string> argv_s{bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The benchmark ignores SIGPIPE; the daemon must not inherit that,
      // or the teardown race it reports would be hidden.
      signal(SIGPIPE, SIG_DFL);
      dup2(fds[1], STDOUT_FILENO);
      const int log = open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      execv(bin.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
  }
  ~Child() {
    if (pid_ > 0 && !status_) {
      kill(pid_, SIGKILL);
      wait(60.0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Blocks until the daemon prints its READY line.
  void wait_ready(double timeout_s) {
    std::string buf;
    const auto t0 = Clock::now();
    while (buf.find('\n') == std::string::npos) {
      const double left = timeout_s - seconds_since(t0);
      pollfd p{out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) {
        throw std::runtime_error("daemon did not become ready");
      }
      char chunk[256];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) throw std::runtime_error("daemon exited before READY");
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (buf.rfind("READY", 0) != 0) {
      throw std::runtime_error("unexpected daemon banner: " + buf);
    }
  }

  // Reaps the child (SIGKILL after `timeout_s`). Returns the shell-style
  // status: the exit code, or 128 + signal number.
  int wait(double timeout_s) {
    if (status_) return *status_;
    const auto t0 = Clock::now();
    int st = 0;
    for (;;) {
      const pid_t r = wait4(pid_, &st, WNOHANG, &ru_);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) {
        status_ = -1;
        return -1;
      }
      if (seconds_since(t0) > timeout_s) kill(pid_, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    status_ = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
    return *status_;
  }
  void kill_now() {
    if (!status_) kill(pid_, SIGKILL);
    wait(60.0);
  }
  [[nodiscard]] double peak_rss_bytes() const {
    return static_cast<double>(ru_.ru_maxrss) * 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::optional<int> status_;
  rusage ru_{};
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<Child> start_daemon(const Options& opt,
                                    std::vector<std::string> args) {
  args.insert(args.begin(), "serve");
  for (const char* a : {"--socket", kSocket, "--journal", kJournal, "--quiet"}) {
    args.push_back(a);
  }
  auto d = std::make_unique<Child>(opt.daemon_path, args);
  d->wait_ready(60.0);
  return d;
}

// In-process replay of the command stream through the daemon's
// per-command steps. `timed` adds the decorators and per-step clocks.
struct InProcess {
  double wall_s = 0.0;  // command loop only
  double build_s = 0.0, start_s = 0.0;
  double parse_s = 0.0, validate_s = 0.0, append_s = 0.0, apply_s = 0.0;
  double encode_s = 0.0;
  double encode_in_sweep_s = 0.0;  // part of encode_s inside sweeps
  std::vector<double> cmd_us;  // per command: parse + validate + append + apply
  std::map<std::string, std::vector<double>> verb_us;
  TimedScheduler::Stats sched;
  double sweep_s = 0.0;
  Counters counters;
  std::string dump;
};

InProcess replay_in_process(const Options& opt,
                            const std::vector<std::string>& cmds, bool timed) {
  InProcess r;
  venn::api::ScenarioSpec sc;
  for (const std::string& kv : scenario_kv(opt.seed)) {
    const auto eq = kv.find('=');
    sc.try_set(kv.substr(0, eq), kv.substr(eq + 1));
  }
  const venn::api::PolicySpec policy;
  venn::api::TimeSeriesRecorder recorder;
  auto t0 = Clock::now();
  const venn::api::Experiment ex(sc, venn::api::build_inputs(sc),
                                 std::vector<venn::RunObserver*>{&recorder});
  r.build_s = seconds_since(t0);
  std::unique_ptr<venn::Scheduler> sched =
      venn::api::PolicyRegistry::instance().create(
          policy.name, policy.params, ex.stream_seed("scheduler"));
  const std::string label = sched->name();
  TimedScheduler* ts = nullptr;
  if (timed) {
    auto t = std::make_unique<TimedScheduler>(std::move(sched), &r.sched);
    ts = t.get();
    sched = std::move(t);
  }
  venn::journal::JournalHeader header;
  header.seed = sc.seed;
  header.scenario_kv = sc.to_kv();
  header.policy_kv = policy.to_kv();
  header.label = label;
  header.inputs_digest = venn::api::inputs_digest(ex.inputs());
  const std::string path = "inproc.vjl";
  fs::remove(path);
  venn::journal::JournalWriter writer(path, header);
  std::optional<TimedSink> timed_sink;
  if (ts != nullptr) timed_sink.emplace(writer, *ts, &r.encode_s, &r.encode_in_sweep_s);
  venn::journal::JournalSink* sink =
      timed_sink ? static_cast<venn::journal::JournalSink*>(&*timed_sink) : &writer;
  venn::api::LiveSession live(ex, std::move(sched), label, sink);
  if (ts != nullptr) ts->watch(&live.coordinator());
  t0 = Clock::now();
  live.start();
  live.advance_to(0.0);
  r.start_s = seconds_since(t0);

  std::uint64_t seq = 0;
  const auto t_loop = Clock::now();
  for (const std::string& line : cmds) {
    if (!timed) {
      const TrafficCommand cmd = TrafficCommand::parse(line);
      if (const auto err = live.validate(cmd)) throw std::runtime_error(*err);
      writer.append_external(live.cursor(), ++seq, cmd.canonical());
      live.apply(cmd);
      continue;
    }
    const auto a = Clock::now();
    const TrafficCommand cmd = TrafficCommand::parse(line);
    const auto b = Clock::now();
    const auto err = live.validate(cmd);
    const auto c = Clock::now();
    if (err) throw std::runtime_error(*err);
    writer.append_external(live.cursor(), ++seq, cmd.canonical());
    const auto d = Clock::now();
    live.apply(cmd);
    const auto e = Clock::now();
    using D = std::chrono::duration<double>;
    r.parse_s += D(b - a).count();
    r.validate_s += D(c - b).count();
    r.append_s += D(d - c).count();
    r.apply_s += D(e - d).count();
    const double us = D(e - a).count() * 1e6;
    r.cmd_us.push_back(us);
    r.verb_us[verb_of(line)].push_back(us);
  }
  r.wall_s = seconds_since(t_loop);
  const venn::Coordinator& coord = live.coordinator();
  add_work_counters(r.counters, coord, live.engine().events_executed());
  r.counters["core.resident_sessions"] = coord.resident_session_count();
  r.sweep_s = coord.shard_stats().sweep_wall_s;
  r.dump = venn::service::dump_run(live.finish(), &recorder);
  r.counters["journal.records"] = writer.records_written();
  r.counters["journal.bytes"] = fs::file_size(path);
  if (timed) add_scheduler_counters(r.counters, r.sched);
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One round: a fresh daemon serves the whole stream, is shut down, resumed
// on its journal and drained.
struct Round {
  std::vector<double> lat_us;  // per command, send to reply; +inf if missing
  std::uint64_t acked = 0;
  double traffic_s = 0.0;
  double recovery_s = 0.0;
  bool recovery_ok = false;
  int teardown_ack_lost = 0;
  int shutdown_status = -1;
  int drain_ack_lost = 0;
  int drain_status = -1;
  double peak_rss = 0.0;  // the larger of the two daemons'
  std::string dump;       // the drained daemon's result dump
};

Round run_round(const Options& opt, const std::vector<std::string>& cmds,
                const std::vector<std::string>& kv, std::vector<double>& setups,
                Outcome& out) {
  Round rd;
  // 1. Set-up probes: spawn -> first ack; the last daemon serves.
  std::unique_ptr<Child> daemon;
  std::unique_ptr<venn::service::SocketClient> client;
  for (int i = 0; i < kSetupProbes; ++i) {
    if (daemon) daemon->kill_now();
    client.reset();
    fs::remove(kJournal);
    const auto t0 = Clock::now();
    daemon = start_daemon(opt, kv);
    client = std::make_unique<venn::service::SocketClient>(
        venn::service::SocketClient::connect_unix(kSocket));
    const std::string pong = client->request("ping");
    setups.push_back(seconds_since(t0));
    if (pong != "ok pong") throw std::runtime_error("ping answered " + pong);
  }

  // 2. Traffic. A failed or refused command counts as missing: its latency
  // is +inf, so it lands above every percentile.
  const std::size_t n = cmds.size();
  rd.lat_us.reserve(n);
  bool alive = true;
  const auto t_traffic = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string expect = "ok " + std::to_string(i + 1);
    std::string reply;
    const auto t0 = Clock::now();
    if (alive) {
      try {
        reply = client->request(cmds[i]);
      } catch (const std::exception& e) {
        alive = false;
        out.errors.push_back("traffic command " + std::to_string(i + 1) +
                             ": " + e.what());
      }
    }
    const double us = seconds_since(t0) * 1e6;
    if (reply == expect || reply == expect + " noop") {
      ++rd.acked;
      rd.lat_us.push_back(us);
    } else {
      ++out.failed;
      rd.lat_us.push_back(std::numeric_limits<double>::infinity());
      if (alive && out.errors.size() < 5) {
        out.errors.push_back("command " + std::to_string(i + 1) + " \"" +
                             cmds[i] + "\" answered \"" + reply + "\"");
      }
    }
  }
  rd.traffic_s = seconds_since(t_traffic);

  // 3. Teardown (untimed): the shutdown reply may be lost to the server's
  // teardown race, which then kills the daemon with SIGPIPE.
  try {
    if (client->request("shutdown") != "ok shutting down") rd.teardown_ack_lost = 1;
  } catch (const std::exception&) {
    rd.teardown_ack_lost = 1;
  }
  client.reset();
  rd.shutdown_status = daemon->wait(30.0);
  rd.peak_rss = daemon->peak_rss_bytes();
  daemon.reset();

  // 4. Recovery, then 5. drain.
  try {
    const auto t0 = Clock::now();
    daemon = start_daemon(opt, {"--resume"});
    client = std::make_unique<venn::service::SocketClient>(
        venn::service::SocketClient::connect_unix(kSocket));
    const std::string seq = client->request("seq");
    rd.recovery_s = seconds_since(t0);
    if (seq != "ok " + std::to_string(rd.acked)) {
      throw std::runtime_error("resumed seq reply \"" + seq + "\", expected " +
                               std::to_string(rd.acked));
    }
    try {
      (void)client->request("drain");
    } catch (const std::exception&) {
      rd.drain_ack_lost = 1;
    }
    client.reset();
    rd.drain_status = daemon->wait(60.0);
    rd.peak_rss = std::max(rd.peak_rss, daemon->peak_rss_bytes());
    daemon.reset();
    rd.dump = read_file(std::string(kJournal) + ".result");
    rd.recovery_ok = true;
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("recovery: ") + e.what());
  }
  return rd;
}

}  // namespace

Outcome run_service(const Options& opt) {
  Outcome out;
  const std::string dir = opt.work_dir + "/service";
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (chdir(dir.c_str()) != 0) throw std::runtime_error("cannot enter " + dir);

  const auto n = static_cast<std::size_t>(kCommandsPerSecond * opt.seconds);
  const std::vector<std::string> cmds = make_commands(opt.seed, n);
  {
    std::ofstream script("cmds.txt");
    for (const std::string& c : cmds) script << c << '\n';
  }
  const std::vector<std::string> kv = scenario_kv(opt.seed);

  // Untraced, the stream runs kRounds times, each on a fresh daemon, so each
  // command's latency can be its fastest; traced, once.
  // Each round runs the client and its daemons on the next CPU.
  const int rounds = opt.trace ? 1 : kRounds;
  const CpuRotation cpus;
  std::vector<double> setups;
  std::vector<Round> rds;
  for (int r = 0; r < rounds; ++r) {
    cpus.pin(static_cast<std::size_t>(r));
    rds.push_back(run_round(opt, cmds, kv, setups, out));
  }
  out.attempted = static_cast<std::uint64_t>(rounds) * (n + 1);  // + the recovery

  // Checks: every round's drain dump equals run-script on the same stream.
  std::string ref;
  try {
    std::vector<std::string> ref_args{"run-script"};
    ref_args.insert(ref_args.end(), kv.begin(), kv.end());
    for (const char* a : {"--script", "cmds.txt", "--out", "ref.result"}) {
      ref_args.push_back(a);
    }
    Child child(opt.daemon_path, ref_args);
    if (child.wait(120.0) != 0) throw std::runtime_error("run-script failed");
    ref = read_file("ref.result");
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("reference: ") + e.what());
  }
  for (std::size_t r = 0; r < rds.size(); ++r) {
    if (!rds[r].recovery_ok) {
      ++out.failed;
    } else if (ref.empty() || rds[r].dump != ref) {
      ++out.failed;
      out.errors.push_back("round " + std::to_string(r) +
                           ": drain dump differs from run-script reference");
    }
  }
  const Round& first = rds.front();
  out.digests["service/drain"] = hex64(fnv1a(first.dump));
  out.counters["service.acked"] = first.acked;
  out.counters["service.daemon_journal_bytes"] =
      fs::exists(kJournal) ? fs::file_size(kJournal) : 0;

  // Each command's fastest round; a command missing in any round stays
  // missing. Likewise the traffic phase and the recovery at their fastest.
  std::vector<double> sorted = first.lat_us;
  double traffic_s = first.traffic_s, recovery_s = first.recovery_s;
  double peak_rss = 0.0;
  int teardown_ack_lost = 0;
  std::string statuses;
  for (const Round& rd : rds) {
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = std::isinf(rd.lat_us[i]) ? rd.lat_us[i] : std::min(sorted[i], rd.lat_us[i]);
    }
    traffic_s = std::min(traffic_s, rd.traffic_s);
    recovery_s = std::min(recovery_s, rd.recovery_s);
    peak_rss = std::max(peak_rss, rd.peak_rss);
    teardown_ack_lost += rd.teardown_ack_lost + rd.drain_ack_lost;
    if (!statuses.empty()) statuses += ',';
    statuses += "{\"shutdown_ack_lost\":" + std::to_string(rd.teardown_ack_lost) +
                ",\"shutdown_exit_status\":" + std::to_string(rd.shutdown_status) +
                ",\"drain_ack_lost\":" + std::to_string(rd.drain_ack_lost) +
                ",\"drain_exit_status\":" + std::to_string(rd.drain_status) +
                ",\"traffic_s\":" + Report::num(rd.traffic_s) +
                ",\"recovery_s\":" + Report::num(rd.recovery_s) + "}";
  }
  std::sort(sorted.begin(), sorted.end());
  // The first round that lost a teardown reply, else the first round.
  const Round* exit_of = &first;
  for (const Round& rd : rds) {
    if (rd.teardown_ack_lost + rd.drain_ack_lost > 0) {
      exit_of = &rd;
      break;
    }
  }
  const int daemon_exit_status =
      exit_of->shutdown_status != 0 ? exit_of->shutdown_status : exit_of->drain_status;
  statuses = "\"service.teardown_ack_lost\":" + std::to_string(teardown_ack_lost) +
             ",\"service.daemon_exit_status\":" + std::to_string(daemon_exit_status) +
             ",\"rounds\":[" + statuses + "]";

  if (!opt.trace) {
    const Tail tail = tail_of(sorted);
    Report& e = out.end_to_end;
    // Traffic at each command's fastest, plus the fastest recovery.
    double traffic_fastest_s = 0.0;
    for (double us : sorted) traffic_fastest_s += us / 1e6;
    e.add("wall_s", traffic_fastest_s + recovery_s, "s");
    e.add("setup_s", median(setups), "s");
    e.add("peak_rss_mb", peak_rss / (1024.0 * 1024.0), "MB");
    e.add("op_p50_us", percentile_sorted(sorted, 50.0), "us");
    e.add("op_p99_us", percentile_sorted(sorted, 99.0), "us");
    // The service's own names for the figures above, with their units.
    Report svc;
    svc.add("acked_per_s", ratio(static_cast<double>(first.acked), traffic_s), "1/s");
    svc.add("ack_p50_us", percentile_sorted(sorted, 50.0), "us");
    svc.add("ack_p99_us", percentile_sorted(sorted, 99.0), "us");
    svc.add("traffic_s", traffic_s, "s");
    svc.add("recovery_s", recovery_s, "s");
    out.detail = statuses + ",\"commands\":" + std::to_string(n) +
                 ",\"cpus\":" + cpus.json() +
                 ",\"service\":" + svc.json() +
                 ",\"op\":\"one acked traffic command, send to reply, fastest of " +
                 std::to_string(rounds) + " rounds\"" +
                 ",\"op_tail\":{\"pct\":" + Report::num(tail.pct) +
                 ",\"us\":" + Report::num(tail.value) +
                 ",\"samples\":" + std::to_string(tail.samples) + "}";
    return out;
  }

  // Traced: in-process replays (plain, then timed) and journal replay.
  InProcess plain, timed;
  try {
    plain = replay_in_process(opt, cmds, false);
    timed = replay_in_process(opt, cmds, true);
    if (plain.dump != first.dump || timed.dump != first.dump) {
      throw std::runtime_error("dump differs from the daemon's");
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.errors.push_back(std::string("in-process replay: ") + e.what());
  }
  venn::api::ReplayReport replay;
  double replay_s = 0.0;
  try {
    const auto t0 = Clock::now();
    replay = venn::api::Experiment::replay(kJournal);
    replay_s = seconds_since(t0);
  } catch (const std::exception& e) {
    ++out.failed;
    out.errors.push_back(std::string("journal replay: ") + e.what());
  }
  for (const auto& [k, v] : timed.counters) out.counters[k] = v;
  out.counters["replay.events_verified"] = replay.events_verified;

  const auto c = [&](const char* k) {
    const auto it = out.counters.find(k);
    return it == out.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<double> inproc = timed.cmd_us;
  std::sort(inproc.begin(), inproc.end());
  const double client_p50 = percentile_sorted(sorted, 50.0);
  Report& p = out.per_layer;
  p.add("api.build_s", timed.build_s, "s");
  p.add("api.start_s", timed.start_s, "s");
  p.add("sim.events", c("sim.events"), "count");
  p.add("sim.events_per_s", ratio(c("sim.events"), timed.wall_s), "1/s");
  p.add("scheduler.order_calls", c("scheduler.order_calls"), "count");
  p.add("scheduler.order_s", timed.sched.order_s, "s");
  p.add("scheduler.assign_calls", c("scheduler.assign_calls"), "count");
  p.add("scheduler.assign_s", timed.sched.assign_s, "s");
  p.add("scheduler.assign_idle_ratio",
        ratio(c("scheduler.assign_idle"), c("scheduler.assign_calls")), "ratio");
  p.add("scheduler.checkin_s", timed.sched.checkin_s, "s");
  p.add("scheduler.feedback_s", timed.sched.feedback_s, "s");
  p.add("core.sweeps", c("core.sweeps"), "count");
  p.add("core.sweep_visits", c("core.sweep_visits"), "count");
  p.add("core.sweep_offer_ratio", ratio(c("core.sweep_offers"), c("core.sweep_visits")),
        "ratio");
  p.add("core.sweep_s", timed.sweep_s, "s");
  p.add("core.resweeps", c("core.resweeps"), "count");
  p.add("core.supply_queries", c("core.supply_queries"), "count");
  // Residual of apply: minus the sweeps, and minus the scheduler and journal
  // calls made outside them (calls inside a sweep are part of its time).
  p.add("core.other_s",
        timed.apply_s - timed.sweep_s -
            (timed.sched.total_s() - timed.sched.in_sweep_s) -
            (timed.encode_s - timed.encode_in_sweep_s),
        "s");
  p.add("core.sessions_streamed", c("core.sessions_streamed"), "count");
  p.add("core.resident_sessions", c("core.resident_sessions"), "count");
  p.add("fleet.rss_bytes_per_device", peak_rss / static_cast<double>(kDevices), "B");
  p.add("protocol.commits", c("protocol.commits"), "count");
  p.add("protocol.useful_response_ratio",
        ratio(c("protocol.responses"),
              c("protocol.responses") + c("protocol.wasted_responses")),
        "ratio");
  p.add("journal.records", c("journal.records"), "count");
  p.add("journal.bytes", c("journal.bytes"), "B");
  p.add("journal.encode_s", timed.encode_s, "s");
  p.add("journal.append_s", timed.append_s, "s");
  p.add("service.parse_s", timed.parse_s, "s");
  p.add("service.validate_s", timed.validate_s, "s");
  p.add("service.apply_s", timed.apply_s, "s");
  p.add("service.transport_us", client_p50 - percentile_sorted(inproc, 50.0), "us");
  for (const char* verb : {"checkin", "checkout", "respond", "submit", "advance"}) {
    const auto it = timed.verb_us.find(verb);
    std::vector<double> v = it == timed.verb_us.end() ? std::vector<double>{} : it->second;
    std::sort(v.begin(), v.end());
    p.add(std::string("service.") + verb + ".p50_us", percentile_sorted(v, 50.0), "us");
  }
  p.add("service.recovery_s", recovery_s, "s");
  p.add("service.teardown_ack_lost", teardown_ack_lost, "count");
  p.add("service.daemon_exit_status", daemon_exit_status, "code");
  p.add("replay.events_verified", c("replay.events_verified"), "count");
  p.add("replay.events_per_s", ratio(c("replay.events_verified"), replay_s), "1/s");
  p.add("trace.overhead_s", timed.wall_s - plain.wall_s, "s");
  p.add("trace.overhead_pct", ratio(timed.wall_s - plain.wall_s, plain.wall_s) * 100.0,
        "%");
  out.detail = statuses + ",\"commands\":" + std::to_string(n);
  return out;
}

}  // namespace perfbench

// venn_coordinatord — the coordinator as a long-lived service.
//
// Wraps the simulation coordinator (api::LiveSession) in a daemon fed by a
// newline-framed local socket. Every accepted traffic command is journaled
// before it is acknowledged, so a daemon killed with SIGKILL at any moment
// restarts with --resume and loses nothing past the last flushed record.
//
//   serve  [key=value...] [--socket PATH | --tcp PORT] [--journal PATH]
//          [--resume] [--quiet]
//       Fresh start: key=value overrides describe the scenario/policy
//       exactly like venn_sim_cli flags (journal defaults to the canonical
//       <scenario>-<label>.vjl path). --resume: recover the journal at
//       --journal PATH (overrides are rejected; the header is the source
//       of truth). Prints "READY <endpoint>" on stdout once accepting.
//
//       Traffic verbs (journaled): advance <t>, checkin <dev> <dur>,
//       checkout <dev>, submit <rounds> <demand> <cat> <task_s> <cv>
//       <dl_s>, admit, respond <dev>, snapshot-now.
//       Admin verbs (not journaled): ping, version, status (JSON), seq,
//       drain (finish + result dump + clean exit), shutdown.
//
//   send   (--socket PATH | --tcp PORT) <command words...>
//       One-shot client: sends the command, prints the reply line.
//
//   run-script [key=value...] [--script FILE] [--out FILE]
//       In-process serial reference: applies the same traffic lines (from
//       FILE or stdin) without a daemon or journal and writes the same
//       deterministic result dump `drain` produces — the byte-identity
//       baseline of the crash-recovery differential test.
//
//   --version
//       Print the build identification line.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/live.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/dump.h"
#include "service/server.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "venn/venn.h"

using namespace venn;

namespace {

struct Endpoint {
  std::string socket_path;
  int tcp_port = -1;
  [[nodiscard]] bool configured() const {
    return !socket_path.empty() || tcp_port >= 0;
  }
};

service::SocketClient connect(const Endpoint& ep) {
  return ep.socket_path.empty()
             ? service::SocketClient::connect_tcp(ep.tcp_port)
             : service::SocketClient::connect_unix(ep.socket_path);
}

int usage() {
  std::fprintf(stderr,
               "usage: venn_coordinatord serve [key=value...] "
               "[--socket PATH | --tcp PORT] [--journal PATH] [--resume]\n"
               "       venn_coordinatord send (--socket PATH | --tcp PORT) "
               "<command...>\n"
               "       venn_coordinatord run-script [key=value...] "
               "[--script FILE] [--out FILE]\n"
               "       venn_coordinatord --version\n");
  return 2;
}

int run_serve(int argc, char** argv) {
  ExperimentBuilder builder;
  Endpoint ep;
  std::string journal_path;
  bool resume = false;
  bool quiet = false;
  bool overrides = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--resume") { resume = true; continue; }
    if (arg == "--quiet") { quiet = true; continue; }
    if (arg == "--socket" && i + 1 < argc) { ep.socket_path = argv[++i]; continue; }
    if (arg == "--tcp" && i + 1 < argc) { ep.tcp_port = std::atoi(argv[++i]); continue; }
    if (arg == "--journal" && i + 1 < argc) { journal_path = argv[++i]; continue; }
    const std::string kv = arg.rfind("--", 0) == 0 ? arg.substr(2) : arg;
    try {
      builder.override_kv(kv);
      overrides = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: %s\n", e.what());
      return 2;
    }
  }
  if (!ep.configured()) {
    std::fprintf(stderr, "serve: need --socket PATH or --tcp PORT\n");
    return 2;
  }
  if (resume && journal_path.empty()) {
    std::fprintf(stderr, "serve: --resume requires --journal PATH\n");
    return 2;
  }
  if (resume && overrides) {
    // The journal header is the single source of truth for a resumed run;
    // silently merging overrides would fork the replayed world.
    std::fprintf(stderr,
                 "serve: key=value overrides cannot be combined with "
                 "--resume (the journal header defines the scenario)\n");
    return 2;
  }
  if (!quiet) set_log_level(LogLevel::kInfo);

  try {
    service::DaemonOptions opts;
    opts.scenario = builder.current_scenario();
    opts.policy = builder.current_policy();
    opts.journal_path = journal_path;
    opts.resume = resume;
    service::CoordinatorDaemon daemon(std::move(opts));

    service::LineServer server({ep.socket_path, ep.tcp_port});
    std::printf("READY %s\n", server.endpoint().c_str());
    std::fflush(stdout);

    server.serve(
        [&daemon](const std::string& line) { return daemon.dispatch(line); },
        [&daemon] { return daemon.done(); });
    VENN_INFO << "coordinatord exiting; journal " << daemon.journal_path();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_send(int argc, char** argv) {
  Endpoint ep;
  std::vector<std::string> words;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) { ep.socket_path = argv[++i]; continue; }
    if (arg == "--tcp" && i + 1 < argc) { ep.tcp_port = std::atoi(argv[++i]); continue; }
    words.push_back(arg);
  }
  if (!ep.configured() || words.empty()) return usage();
  std::string line;
  for (const std::string& w : words) {
    if (!line.empty()) line += ' ';
    line += w;
  }
  try {
    auto client = connect(ep);
    const std::string reply = client.request(line);
    std::printf("%s\n", reply.c_str());
    return reply.rfind("ok", 0) == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "send error: %s\n", e.what());
    return 1;
  }
}

int run_script(int argc, char** argv) {
  ExperimentBuilder builder;
  std::string script_path;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--script" && i + 1 < argc) { script_path = argv[++i]; continue; }
    if (arg == "--out" && i + 1 < argc) { out_path = argv[++i]; continue; }
    const std::string kv = arg.rfind("--", 0) == 0 ? arg.substr(2) : arg;
    try {
      builder.override_kv(kv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run-script: %s\n", e.what());
      return 2;
    }
  }
  try {
    TimeSeriesRecorder recorder;
    builder.observe(recorder);
    const Experiment ex = builder.build();
    const PolicySpec& policy = builder.current_policy();
    auto scheduler = PolicyRegistry::instance().create(
        policy.name, policy.params, ex.stream_seed("scheduler"));
    api::LiveSession live(ex, std::move(scheduler), {}, nullptr);
    live.start();
    live.advance_to(0.0);

    std::ifstream file;
    if (!script_path.empty()) {
      file.open(script_path);
      if (!file) {
        std::fprintf(stderr, "run-script: cannot open %s\n",
                     script_path.c_str());
        return 2;
      }
    }
    std::istream& in = script_path.empty() ? std::cin : file;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      const api::TrafficCommand cmd = api::TrafficCommand::parse(line);
      if (const auto err = live.validate(cmd)) {
        std::fprintf(stderr, "run-script: %s: %s\n", line.c_str(),
                     err->c_str());
        return 1;
      }
      live.apply(cmd);
    }
    const std::string dump = service::dump_run(live.finish(), &recorder);
    if (out_path.empty()) {
      std::fwrite(dump.data(), 1, dump.size(), stdout);
    } else {
      service::write_text_file(out_path, dump);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run-script error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--version") == 0 ||
                   std::strcmp(argv[1], "version") == 0)) {
    std::printf("%s\n", build_info_line().c_str());
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "send") == 0) {
    return run_send(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "run-script") == 0) {
    return run_script(argc, argv);
  }
  return usage();
}

// qatk_cluster: launch an N-shard QUEST serving cluster (DESIGN.md §14).
//
// Spawns N qatk_serve shard workers (--shard-index=I --shards=N), each
// training only its hash-sharded slice of the demo corpus, waits for their
// port files, connects the scatter-gather Coordinator to all of them
// (verifying every shard reports the expected index / shard count /
// sharder), and serves the public protocol on the front-end port. Results
// are bit-identical to a single qatk_serve over the same corpus, for every
// N >= 1.
//
// Usage:
//   qatk_cluster [--host=127.0.0.1] [--port=0] [--threads=4] [--shards=3]
//                [--port-file=PATH] [--data-dir=DIR]
//                [--serve-bin=PATH] [--shard-threads=1]
//                [--drain-timeout-ms=10000]
//
// A numeric flag whose value is not a whole decimal number in range for
// its field exits 2 ("invalid value for --<flag>"), as an unknown flag
// does.
//
// --port-file works like qatk_serve's (tmp + rename once accepting).
// --data-dir=DIR makes every shard durable under DIR/shard-I (mutations
// fsynced before ack; kill -9 a shard, restart the cluster, and every
// acknowledged mutation is still served). Without it the shard port files
// live in a scratch dir under /tmp that the launcher removes on exit; a
// --data-dir is never removed. --serve-bin overrides the shard worker
// binary (default: the qatk_serve next to this binary's build tree).
//
// SIGTERM/SIGINT drains the whole cluster front-to-back: the front end
// stops accepting and flushes every response, then each shard is drained
// with SIGTERM and reaped. Exit status is 0 only when the front end
// dropped nothing in flight and every shard exited cleanly. Every exit
// after the first shard is spawned, a failed start or a signal during
// start-up included, drains the shards it spawned the same way.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/sharder.h"
#include "server/flags.h"
#include "server/server.h"

namespace {

/// Set by SIGTERM/SIGINT. Before the front end serves, start-up polls it
/// and gives up; afterwards the handler drains the front end directly.
std::atomic<bool> g_stop{false};
std::atomic<qatk::server::Server*> g_server{nullptr};

void HandleSignal(int) {
  g_stop.store(true);
  qatk::server::Server* server = g_server.load();
  if (server != nullptr) server->RequestDrain();
}

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Polls `path` until it holds a port number (written tmp+rename by the
/// shard, so a read never sees a torn write). Fails fast when the shard
/// process died before publishing, or when a signal stops the launcher.
int WaitForPort(const std::string& path, pid_t pid, int timeout_ms) {
  const int step_ms = 50;
  for (int waited = 0; waited <= timeout_ms; waited += step_ms) {
    if (g_stop.load()) {
      std::fprintf(stderr, "stopped by a signal while waiting for %s\n",
                   path.c_str());
      return -1;
    }
    FILE* f = std::fopen(path.c_str(), "r");
    if (f != nullptr) {
      int port = 0;
      const int fields = std::fscanf(f, "%d", &port);
      std::fclose(f);
      if (fields == 1 && port > 0) return port;
    }
    int wait_status = 0;
    if (::waitpid(pid, &wait_status, WNOHANG) == pid) {
      std::fprintf(stderr, "shard process %d exited before publishing %s\n",
                   static_cast<int>(pid), path.c_str());
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
  std::fprintf(stderr, "timed out waiting for %s\n", path.c_str());
  return -1;
}

pid_t SpawnShard(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s failed: %s\n", argv[0],
                 std::strerror(errno));
    std::_Exit(127);
  }
  return pid;
}

/// SIGTERM + reap; returns true when the shard drained cleanly (exit 0).
bool DrainShard(pid_t pid, uint32_t index) {
  ::kill(pid, SIGTERM);
  int wait_status = 0;
  if (::waitpid(pid, &wait_status, 0) != pid) {
    std::fprintf(stderr, "cannot reap shard %u (pid %d)\n", index,
                 static_cast<int>(pid));
    return false;
  }
  const bool clean =
      WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
  if (!clean) {
    std::fprintf(stderr, "shard %u (pid %d) exited uncleanly (status %d)\n",
                 index, static_cast<int>(pid), wait_status);
  }
  return clean;
}

struct ClusterFlags {
  qatk::server::Server::Options server_options;
  uint32_t num_shards = 3;
  std::string port_file;
  std::string data_dir;
  std::string serve_bin;
  size_t shard_threads = 1;
};

/// Spawns the shards into `work_dir`, appending each pid to `*shard_pids`,
/// then connects the coordinator and serves until drained. Returns the
/// exit status of the front end alone: the caller drains the shards and
/// removes the scratch dir on every path, so no return here leaks them.
int Serve(const ClusterFlags& flags, const std::string& work_dir,
          std::vector<pid_t>* shard_pids) {
  const qatk::server::Server::Options& server_options = flags.server_options;
  const uint32_t num_shards = flags.num_shards;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string shard_port_file =
        work_dir + "/shard-" + std::to_string(i) + ".port";
    std::remove(shard_port_file.c_str());
    std::vector<std::string> args = {
        flags.serve_bin,
        "--host=" + server_options.host,
        "--port=0",
        "--threads=" + std::to_string(flags.shard_threads),
        "--shard-index=" + std::to_string(i),
        "--shards=" + std::to_string(num_shards),
        "--port-file=" + shard_port_file,
    };
    if (!flags.data_dir.empty()) {
      args.push_back("--data-dir=" + work_dir + "/shard-" +
                     std::to_string(i));
    }
    const pid_t pid = SpawnShard(args);
    if (pid < 0) {
      std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
      return 1;
    }
    shard_pids->push_back(pid);
    std::fprintf(stderr, "spawned shard %u/%u: pid %d (%s)\n", i,
                 num_shards, static_cast<int>(pid), flags.serve_bin.c_str());
  }
  // Gather ports after spawning everything, so the shards train their
  // slices concurrently instead of back to back.
  qatk::cluster::Coordinator::Options coordinator_options;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string shard_port_file =
        work_dir + "/shard-" + std::to_string(i) + ".port";
    const int port = WaitForPort(shard_port_file, (*shard_pids)[i],
                                 /*timeout_ms=*/120000);
    if (port <= 0) return 1;
    coordinator_options.shards.push_back(
        {server_options.host, static_cast<uint16_t>(port)});
    std::fprintf(stderr, "shard %u serving on port %d\n", i, port);
  }

  qatk::cluster::Coordinator coordinator(std::move(coordinator_options));
  qatk::Status connected = coordinator.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "coordinator connect failed: %s\n",
                 connected.ToString().c_str());
    return 1;
  }

  qatk::server::Server server(&coordinator, server_options);
  qatk::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "front-end start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "cluster front end on %s:%u (%u shard%s, hash)\n",
               server_options.host.c_str(), server.port(), num_shards,
               num_shards == 1 ? "" : "s");
  // The server's destructor drains the front end on the early returns.
  if (!flags.port_file.empty() &&
      !qatk::server::WritePortFile(flags.port_file, server.port())) {
    return 1;
  }
  g_server.store(&server);
  // A signal that arrived before g_server was set found nothing to drain.
  if (g_stop.load()) server.RequestDrain();

  const qatk::Status drained = server.Wait();
  g_server.store(nullptr);
  const qatk::server::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "front end drained: requests=%llu ok=%llu error=%llu "
               "drain_dropped=%llu\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.responses_error),
               static_cast<unsigned long long>(stats.drain_dropped));
  if (!drained.ok()) {
    std::fprintf(stderr, "front-end drain incomplete: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClusterFlags flags;
  flags.server_options.threads = 4;
  for (int i = 1; i < argc; ++i) {
    const qatk::server::Flag flag(argv[i]);
    bool valid = true;
    if (flag.Is("--host")) {
      flags.server_options.host = flag.value();
    } else if (flag.Is("--port")) {
      valid = flag.ParseNumber(&flags.server_options.port);
    } else if (flag.Is("--threads")) {
      valid = flag.ParseNumber(&flags.server_options.threads);
    } else if (flag.Is("--shards")) {
      valid = flag.ParseNumber(&flags.num_shards);
    } else if (flag.Is("--port-file")) {
      flags.port_file = flag.value();
    } else if (flag.Is("--data-dir")) {
      flags.data_dir = flag.value();
    } else if (flag.Is("--serve-bin")) {
      flags.serve_bin = flag.value();
    } else if (flag.Is("--shard-threads")) {
      valid = flag.ParseNumber(&flags.shard_threads);
    } else if (flag.Is("--drain-timeout-ms")) {
      valid = flag.ParseNumber(&flags.server_options.drain_timeout_ms);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n",
                   flag.name().c_str(), flag.value().c_str());
      return 2;
    }
  }
  if (flags.num_shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  if (flags.serve_bin.empty()) {
    flags.serve_bin = Dirname(argv[0]) + "/../server/qatk_serve";
  }

  // Port files go to a scratch dir, removed on exit, unless the shards
  // are durable: then they live beside the shard data in --data-dir.
  std::string work_dir = flags.data_dir;
  std::string scratch_dir;
  if (work_dir.empty()) {
    char tmpl[] = "/tmp/qatk_cluster.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed: %s\n", std::strerror(errno));
      return 1;
    }
    work_dir = scratch_dir = made;
  } else {
    ::mkdir(work_dir.c_str(), 0755);
  }

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // The one cleanup: whatever Serve returned, drain every shard it
  // spawned (front end first, since Serve's server is gone by now) and
  // remove the scratch dir.
  std::vector<pid_t> shard_pids;
  int status = Serve(flags, work_dir, &shard_pids);
  bool shards_clean = true;
  for (size_t i = 0; i < shard_pids.size(); ++i) {
    shards_clean =
        DrainShard(shard_pids[i], static_cast<uint32_t>(i)) && shards_clean;
  }
  if (!scratch_dir.empty()) {
    std::error_code error;
    std::filesystem::remove_all(scratch_dir, error);
    if (error) {
      std::fprintf(stderr, "cannot remove %s: %s\n", scratch_dir.c_str(),
                   error.message().c_str());
    }
  }
  if (status == 0 && !shards_clean) status = 1;
  return status;
}

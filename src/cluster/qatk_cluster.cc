// qatk_cluster: launch an N-shard QUEST serving cluster (DESIGN.md §14).
//
// Spawns N qatk_serve shard workers (--shard-index=I --shards=N), each
// training only its slice of the demo corpus, waits for their port files,
// connects the scatter-gather Coordinator to all of them (verifying every
// shard reports the expected index / shard count / sharder), and serves
// the public protocol on the front-end port. Results are bit-identical to
// a single qatk_serve over the same corpus.
//
// Usage:
//   qatk_cluster [--host=127.0.0.1] [--port=0] [--threads=4] [--shards=3]
//                [--sharder=hash] [--port-file=PATH] [--data-dir=DIR]
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
// acknowledged mutation is still served). --serve-bin overrides the shard
// worker binary (default: the qatk_serve next to this binary's build
// tree).
//
// SIGTERM/SIGINT drains the whole cluster front-to-back: the front end
// stops accepting and flushes every response, then each shard is drained
// with SIGTERM and reaped. Exit status is 0 only when the front end
// dropped nothing in flight and every shard exited cleanly.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/sharder.h"
#include "server/flags.h"
#include "server/server.h"

namespace {

qatk::server::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Polls `path` until it holds a port number (written tmp+rename by the
/// shard, so a read never sees a torn write). Fails fast when the shard
/// process died before publishing.
int WaitForPort(const std::string& path, pid_t pid, int timeout_ms) {
  const int step_ms = 50;
  for (int waited = 0; waited <= timeout_ms; waited += step_ms) {
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

}  // namespace

int main(int argc, char** argv) {
  qatk::server::Server::Options server_options;
  server_options.threads = 4;
  uint32_t num_shards = 3;
  std::string sharder_name = "hash";
  std::string port_file;
  std::string data_dir;
  std::string serve_bin;
  size_t shard_threads = 1;
  for (int i = 1; i < argc; ++i) {
    const qatk::server::Flag flag(argv[i]);
    bool valid = true;
    if (flag.Is("--host")) {
      server_options.host = flag.value();
    } else if (flag.Is("--port")) {
      valid = flag.ParseNumber(&server_options.port);
    } else if (flag.Is("--threads")) {
      valid = flag.ParseNumber(&server_options.threads);
    } else if (flag.Is("--shards")) {
      valid = flag.ParseNumber(&num_shards);
    } else if (flag.Is("--sharder")) {
      sharder_name = flag.value();
    } else if (flag.Is("--port-file")) {
      port_file = flag.value();
    } else if (flag.Is("--data-dir")) {
      data_dir = flag.value();
    } else if (flag.Is("--serve-bin")) {
      serve_bin = flag.value();
    } else if (flag.Is("--shard-threads")) {
      valid = flag.ParseNumber(&shard_threads);
    } else if (flag.Is("--drain-timeout-ms")) {
      valid = flag.ParseNumber(&server_options.drain_timeout_ms);
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
  if (num_shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  if (qatk::cluster::MakeSharder(sharder_name, num_shards) == nullptr) {
    std::fprintf(stderr, "unknown sharder: %s\n", sharder_name.c_str());
    return 2;
  }
  if (serve_bin.empty()) {
    serve_bin = Dirname(argv[0]) + "/../server/qatk_serve";
  }

  // Scratch dir for shard port files (and shard data dirs when durable).
  std::string work_dir = data_dir;
  if (work_dir.empty()) {
    char tmpl[] = "/tmp/qatk_cluster.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed: %s\n", std::strerror(errno));
      return 1;
    }
    work_dir = made;
  } else {
    ::mkdir(work_dir.c_str(), 0755);
  }

  std::vector<pid_t> shard_pids;
  std::vector<qatk::cluster::ShardEndpoint> endpoints;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string shard_port_file =
        work_dir + "/shard-" + std::to_string(i) + ".port";
    std::remove(shard_port_file.c_str());
    std::vector<std::string> args = {
        serve_bin,
        "--host=" + server_options.host,
        "--port=0",
        "--threads=" + std::to_string(shard_threads),
        "--shard-index=" + std::to_string(i),
        "--shards=" + std::to_string(num_shards),
        "--sharder=" + sharder_name,
        "--port-file=" + shard_port_file,
    };
    if (!data_dir.empty()) {
      args.push_back("--data-dir=" + work_dir + "/shard-" +
                     std::to_string(i));
    }
    const pid_t pid = SpawnShard(args);
    if (pid < 0) {
      std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
      for (size_t k = 0; k < shard_pids.size(); ++k) {
        DrainShard(shard_pids[k], static_cast<uint32_t>(k));
      }
      return 1;
    }
    shard_pids.push_back(pid);
    std::fprintf(stderr, "spawned shard %u/%u: pid %d (%s)\n", i,
                 num_shards, static_cast<int>(pid), serve_bin.c_str());
  }
  // Gather ports after spawning everything, so the shards train their
  // slices concurrently instead of back to back.
  bool spawn_failed = false;
  for (uint32_t i = 0; i < num_shards; ++i) {
    const std::string shard_port_file =
        work_dir + "/shard-" + std::to_string(i) + ".port";
    const int port = WaitForPort(shard_port_file, shard_pids[i],
                                 /*timeout_ms=*/120000);
    if (port <= 0) {
      spawn_failed = true;
      break;
    }
    endpoints.push_back({server_options.host, static_cast<uint16_t>(port)});
    std::fprintf(stderr, "shard %u serving on port %d\n", i, port);
  }
  if (spawn_failed) {
    for (size_t k = 0; k < shard_pids.size(); ++k) {
      DrainShard(shard_pids[k], static_cast<uint32_t>(k));
    }
    return 1;
  }

  qatk::cluster::Coordinator::Options coordinator_options;
  coordinator_options.shards = endpoints;
  coordinator_options.sharder = sharder_name;
  qatk::cluster::Coordinator coordinator(std::move(coordinator_options));
  qatk::Status connected = coordinator.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "coordinator connect failed: %s\n",
                 connected.ToString().c_str());
    for (size_t k = 0; k < shard_pids.size(); ++k) {
      DrainShard(shard_pids[k], static_cast<uint32_t>(k));
    }
    return 1;
  }

  qatk::server::Server server(&coordinator, server_options);
  qatk::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "front-end start failed: %s\n",
                 started.ToString().c_str());
    for (size_t k = 0; k < shard_pids.size(); ++k) {
      DrainShard(shard_pids[k], static_cast<uint32_t>(k));
    }
    return 1;
  }
  std::fprintf(stderr, "cluster front end on %s:%u (%u shard%s, %s)\n",
               server_options.host.c_str(), server.port(), num_shards,
               num_shards == 1 ? "" : "s", sharder_name.c_str());
  if (!port_file.empty()) {
    const std::string tmp = port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write port file %s\n", tmp.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "cannot rename port file into place\n");
      return 1;
    }
  }

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  const qatk::Status drained = server.Wait();
  const qatk::server::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "front end drained: requests=%llu ok=%llu error=%llu "
               "drain_dropped=%llu\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.responses_error),
               static_cast<unsigned long long>(stats.drain_dropped));
  bool shards_clean = true;
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_clean = DrainShard(shard_pids[i], i) && shards_clean;
  }
  if (!drained.ok()) {
    std::fprintf(stderr, "front-end drain incomplete: %s\n",
                 drained.ToString().c_str());
    return 1;
  }
  return shards_clean ? 0 : 1;
}

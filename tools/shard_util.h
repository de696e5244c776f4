// fork/exec plumbing for the multi-process shard harnesses.
//
// The deterministic half of sharding (partitioning, merging, the chunk
// codec) lives in bgpcmp/core/shard.h and is unit-tested; this header is
// only the OS glue the tools share: re-exec the current binary once per
// worker, wait for every worker, read back and remove their output files.
// Workers write to plain files (not pipes) so the parent's merge step can
// check completeness via the chunk codec.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace bgpcmp::tools {

/// Re-exec this binary (/proc/self/exe) as `shards` workers: worker w runs
/// with `args` (argv[0] first; usually the parent's own argv) plus
/// `--worker w --out <file>`. Waits for all of them and returns each
/// worker's output text in worker order, or nullopt (with the reason on
/// stderr) if any worker failed or left no output. Every worker file is
/// removed on every path.
inline std::optional<std::vector<std::string>> run_workers(
    const std::vector<std::string>& args, int shards, const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  std::vector<std::string> paths;
  std::vector<pid_t> pids;
  for (int w = 0; w < shards; ++w) {
    paths.push_back(dir + "/bgpcmp_shard_" + tag + "_" + std::to_string(::getpid()) +
                    "_" + std::to_string(w) + ".txt");
    std::vector<std::string> worker_args = args;
    worker_args.insert(worker_args.end(),
                       {"--worker", std::to_string(w), "--out", paths.back()});
    std::vector<char*> cargv;
    for (auto& arg : worker_args) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv("/proc/self/exe", cargv.data());
      std::perror("execv");
      _exit(127);
    }
    pids.push_back(pid);
  }

  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      std::fprintf(stderr, "shard worker %d failed (status %d)\n",
                   static_cast<int>(pid), status);
      ok = false;
    }
  }
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "missing worker output %s\n", path.c_str());
      ok = false;
    }
    texts.push_back(std::move(buf).str());
    std::remove(path.c_str());
  }
  if (!ok) return std::nullopt;
  return texts;
}

/// A worker's side: open its output file, let `write` fill it, and return
/// the worker's exit status — 0 only if every byte reached the file.
inline int write_worker_output(const std::string& path,
                               const std::function<void(std::ostream&)>& write) {
  std::ofstream out{path, std::ios::binary};
  if (out) write(out);
  out.flush();
  if (out) return 0;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

/// Every '\n'-terminated line of the worker texts, in order.
inline std::vector<std::string> lines_of(const std::vector<std::string>& texts) {
  std::vector<std::string> lines;
  for (const auto& text : texts) {
    for (std::size_t pos = 0, eol; (eol = text.find('\n', pos)) != std::string::npos;
         pos = eol + 1) {
      lines.push_back(text.substr(pos, eol - pos));
    }
  }
  return lines;
}

}  // namespace bgpcmp::tools

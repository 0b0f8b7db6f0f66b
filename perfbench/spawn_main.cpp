// perfbench_spawn — runs one command and records its wall time, exit status
// and peak resident set size.
//
//   perfbench_spawn RESULT_FILE COMMAND [ARGS...]
//
// Writes {"exit": N, "wall_s": S, "maxrss_kb": K} to RESULT_FILE. The exit
// is the command's exit code, or 128 + the signal that ended it.
//
// Why a launcher: Python's subprocess starts children with vfork, and Linux
// carries the old address space's peak RSS into ru_maxrss at exec. A direct
// child of the Python harness therefore never reads below the harness's own
// peak, about 15 MB. Here the command is started with fork from a small
// process, so its ru_maxrss starts from this launcher's size instead.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fputs("usage: perfbench_spawn RESULT_FILE COMMAND [ARGS...]\n", stderr);
    return 2;
  }
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("perfbench_spawn: result file");
    return 2;
  }
  std::fprintf(out, "{\"exit\": %d, \"wall_s\": %.9f, \"maxrss_kb\": %ld}\n",
               code, wall_s, static_cast<long>(usage.ru_maxrss));
  return std::fclose(out) == 0 ? 0 : 2;
}

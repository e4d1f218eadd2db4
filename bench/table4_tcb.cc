// Table 4: TCB analysis — source-line breakdown of the trusted data plane vs the untrusted
// control plane and supporting libraries.
//
// Paper: the data plane adds only 5K SLoC (42.5KB binary) to the TCB — 16% of the whole OP-TEE
// image — while the untrusted control plane is ~31K SLoC and the untrusted library stack is
// ~1.3M SLoC. This binary recounts the equivalent inventory for this reproduction by walking
// the source tree (SLoC = non-blank, non-comment lines).

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace sbt {
namespace {

namespace fs = std::filesystem;

size_t CountSloc(const fs::path& file) {
  std::ifstream in(file);
  size_t lines = 0;
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i == line.size()) {
      continue;
    }
    if (in_block_comment) {
      if (line.find("*/") != std::string::npos) {
        in_block_comment = false;
      }
      continue;
    }
    if (line.compare(i, 2, "//") == 0) {
      continue;
    }
    if (line.compare(i, 2, "/*") == 0 && line.find("*/", i + 2) == std::string::npos) {
      in_block_comment = true;
      continue;
    }
    ++lines;
  }
  return lines;
}

size_t CountDir(const fs::path& dir) {
  size_t total = 0;
  if (!fs::exists(dir)) {
    return 0;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const auto ext = entry.path().extension();
    if (ext == ".cc" || ext == ".h") {
      total += CountSloc(entry.path());
    }
  }
  return total;
}

fs::path FindRepoRoot() {
  fs::path p = fs::current_path();
  for (int depth = 0; depth < 6; ++depth) {
    if (fs::exists(p / "src" / "core" / "data_plane.h")) {
      return p;
    }
    p = p.parent_path();
  }
  // Fall back to the canonical location used by the harness.
  return fs::path("/root/repo");
}

void RunTable4() {
  const fs::path root = FindRepoRoot();
  PrintHeader("Table 4: TCB breakdown (SLoC by plane)",
              "data plane adds ~5K SLoC to the TCB; control plane ~31K is untrusted; the "
              "data plane is a small fraction of the whole TEE image");

  struct Row {
    const char* label;
    std::vector<const char*> dirs;
    bool trusted;
  };
  const Row rows[] = {
      {"primitives (trusted)", {"src/primitives"}, true},
      {"mem mgmt: uArray (trusted)", {"src/uarray"}, true},
      {"data plane core (trusted)", {"src/core"}, true},
      {"crypto (trusted)", {"src/crypto"}, true},
      {"TEE substrate emu (trusted)", {"src/tz"}, true},
      {"control plane (untrusted)", {"src/control"}, false},
      {"serving layer (untrusted)", {"src/server"}, false},
      {"observability (untrusted)", {"src/obs"}, false},
      {"net/generator (untrusted)", {"src/net"}, false},
      {"baselines (untrusted)", {"src/baseline"}, false},
      {"attest verifier (cloud-side)", {"src/attest"}, false},
      {"common (shared)", {"src/common"}, false},
  };

  size_t trusted = 0;
  size_t untrusted = 0;
  for (const Row& row : rows) {
    size_t sloc = 0;
    for (const char* d : row.dirs) {
      sloc += CountDir(root / d);
    }
    (row.trusted ? trusted : untrusted) += sloc;
    std::printf("%-32s %8zu SLoC\n", row.label, sloc);
  }
  std::printf("%-32s %8zu SLoC\n", "tests (untrusted)", CountDir(root / "tests"));
  std::printf("%-32s %8zu SLoC\n", "bench+examples (untrusted)",
              CountDir(root / "bench") + CountDir(root / "examples"));
  std::printf("\nTCB (in-TEE) total:       %zu SLoC\n", trusted);
  std::printf("untrusted engine total:   %zu SLoC\n", untrusted);
  std::printf("data-plane share of engine sources: %.0f%%  (paper: data plane is 16%% of the "
              "TEE binary; whole engine >> TCB)\n",
              100.0 * trusted / (trusted + untrusted));
  std::printf("\nTCB interface: 4 entry points (init/finalize, debug, shared Invoke) + "
              "ingress/egress; no shared state crosses the boundary.\n");
}

}  // namespace
}  // namespace sbt

int main() {
  sbt::RunTable4();
  return 0;
}

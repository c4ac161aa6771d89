// pleroma_cli — scripted driver for exploring the middleware.
//
// Reads commands from a script file (argv[1]) or stdin; with no input it
// runs a built-in demo. The command language is implemented (and unit
// tested) in scenario::ScriptRunner; type `help` for a summary.
//
// Example:
//   $ printf 'adv h1 0:1023 0:1023\nsub h6 0:511 0:1023\npub h1 100 100\nrun\nstats\n' | ./pleroma_cli
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "scenario/script_runner.hpp"

namespace {
constexpr const char* kDemoScript = R"(# built-in demo
adv h1 0:1023 0:1023
sub h6 0:511 0:1023
sub h7 256:767 500:1023
pub h1 100 100
pub h1 300 800
pub h1 900 100
run
trees
stats
)";
}  // namespace

int main(int argc, char** argv) {
  pleroma::scenario::ScriptRunner runner(
      [](const std::string& line) { std::printf("%s\n", line.c_str()); });

  std::unique_ptr<std::istream> owned;
  std::istream* in = nullptr;
  if (argc > 1) {
    owned = std::make_unique<std::ifstream>(argv[1]);
    if (!*owned) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    in = owned.get();
  } else if (isatty(0) == 0) {
    in = &std::cin;
  } else {
    owned = std::make_unique<std::istringstream>(kDemoScript);
    in = owned.get();
  }

  std::string line;
  while (std::getline(*in, line)) {
    if (!runner.executeLine(line)) break;
  }
  return 0;
}

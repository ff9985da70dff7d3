// jps_perfbench: runs one benchmark workload and prints its result as one
// JSON line.  Normally started by perfbench/run.py, which builds it, adds
// the provenance and prints the summary line.
//
//   jps_perfbench --workload serve-hot|serve-cold|sweep|execute
//                 --seed N --seconds S --trace 0|1 --daemon PATH
//                 [--inject reply|point|output]
//
// Exit codes: 0 correct and valid, 2 a correctness mismatch or an invalid
// open-loop run (the JSON still prints), 1 a failure, 64 usage.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "jps_perfbench: " << why
            << "\nusage: jps_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH [--inject reply|point|output]\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  Options options;
  try {
    options.workload = flags.at("workload");
    options.seed = std::stoull(flags.count("seed") ? flags["seed"] : "1");
    options.seconds = std::stod(flags.count("seconds") ? flags["seconds"] : "10");
    options.trace = flags.count("trace") != 0 && flags["trace"] != "0";
    options.daemon = flags.count("daemon") ? flags["daemon"] : "";
    options.inject = flags.count("inject") ? flags["inject"] : "";
  } catch (const std::exception&) {
    return usage("bad or missing flag");
  }
  if (options.seconds <= 0.0) return usage("--seconds must be > 0");

  try {
    Result result;
    if (options.workload == "serve-hot") result = run_serve_hot(options);
    else if (options.workload == "serve-cold") result = run_serve_cold(options);
    else if (options.workload == "sweep") result = run_sweep(options);
    else if (options.workload == "execute") result = run_execute(options);
    else return usage("unknown workload '" + options.workload + "'");
    std::cout << result.to_json().dump() << std::endl;
    return result.correct && result.valid ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "jps_perfbench: " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
}

// perfbench: the repository benchmark's harness.
//
//   perfbench --workload wire|refresh-1m|families --seed N --seconds S
//             --trace 0|1
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with the program's
// metrics registry and trace detached; with --trace 1 they are the per-layer
// ones, from a run with both attached, harness spans recorded around each
// layer call, and every layer also timed in isolation. LAYERS.md maps each
// metric to its layer and workload.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload wire|refresh-1m|families "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return Usage();

  AllowedCpus();  // record the vCPU set before any thread is pinned
  const CpuTimes host0 = ReadCpuTimes();
  Report report;
  if (args.workload == "wire") {
    RunWire(args, &report);
  } else if (args.workload == "refresh-1m") {
    RunRefresh1m(args, &report);
  } else if (args.workload == "families") {
    RunFamilies(args, &report);
  } else {
    return Usage();
  }
  if (args.trace) {
    report.Set("host.steal_pct", StealPct(host0, ReadCpuTimes()), "%");
    report.Set("host.vcpus", static_cast<double>(AllowedCpus().size()),
               "count");
    report.Set("host.pinned", AllPinsHeld() ? 1.0 : 0.0, "bool");
  }
  report.Print();
  return 0;
}

// Appendix A's live user study as a runnable sandbox: a joke/quotation site
// with two randomized user groups -- strict popularity ranking vs rank
// promotion of never-viewed items below position 20 -- reporting the
// funny-vote ratio over the final 15 days (Figure 1). Self-checking: exits 1
// unless the mean lift over the seeds exceeds 1.
//
//   ./build/examples/live_study [--seeds N]

#include <cstring>
#include <iostream>
#include <string>

#include "livestudy/study.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace randrank;
  int seeds = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::stoi(argv[++i]);
    }
  }

  LiveStudyParams params;
  std::cout << "Live study sandbox (Appendix A): " << params.items
            << " items, " << params.total_users << " users split in two, "
            << params.days << " days, measuring the last "
            << params.measure_last_days << ".\n"
            << "Treatment: never-viewed items inserted in random order below "
               "rank " << params.promote_below - 1 << ".\n\n";

  RunningStats control;
  RunningStats promoted;
  RunningStats lift;
  Table per_seed({"seed", "control ratio", "promoted ratio", "lift"});
  for (int s = 0; s < seeds; ++s) {
    params.seed = 1000 + static_cast<uint64_t>(s) * 17;
    const LiveStudyResult r = RunLiveStudy(params);
    control.Add(r.control_ratio);
    promoted.Add(r.promoted_ratio);
    lift.Add(r.Lift());
    per_seed.Row()
        .Cell(static_cast<long long>(params.seed))
        .Cell(r.control_ratio, 4)
        .Cell(r.promoted_ratio, 4)
        .Cell(r.Lift(), 3);
  }
  per_seed.Print(std::cout);

  std::cout << "\nmeans over " << seeds << " seeds: control "
            << FormatFixed(control.mean(), 4) << ", promoted "
            << FormatFixed(promoted.mean(), 4) << ", lift "
            << FormatFixed(lift.mean(), 2) << " (paper: ~1.6)\n";
  if (lift.mean() > 1.0) {
    std::cout << "VERDICT: promotion lifts the funny-vote ratio.\n";
    return 0;
  }
  std::cout << "VERDICT: FAILED — mean lift is not above 1.\n";
  return 1;
}

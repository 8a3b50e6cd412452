// grid_pins: a reduced-scale grid sweep of one code family over all six
// Tx models, printed with every cell's exact aggregates.  The outputs are
// committed under tools/pinned/grid_codes/ and compared byte for byte by
// tools/ci.sh, so any change to a grid TrialResult of any code shows.
//
//   grid_pins --code=<rse|replication|ldgm|ldgm-staircase|ldgm-triangle|
//                     ldgm-triangle-ge>
//
// Scale: k = 500, 2 trials per cell, four p by four q Gilbert points,
// expansion ratios 1.5 and 2.5 (replication: 2 copies).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace {

using namespace fecsched;

bool parse_code(const std::string& name, ExperimentConfig& cfg) {
  if (name == "rse") cfg.code = CodeKind::kRse;
  else if (name == "replication") cfg.code = CodeKind::kReplication;
  else if (name == "ldgm") cfg.code = CodeKind::kLdgmIdentity;
  else if (name == "ldgm-staircase") cfg.code = CodeKind::kLdgmStaircase;
  else if (name == "ldgm-triangle") cfg.code = CodeKind::kLdgmTriangle;
  else if (name == "ldgm-triangle-ge") {
    cfg.code = CodeKind::kLdgmTriangle;
    cfg.ge_fallback = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string code;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--code=", 7) == 0) code = argv[i] + 7;
  ExperimentConfig base;
  base.k = 500;
  if (!parse_code(code, base)) {
    std::fprintf(stderr,
                 "usage: grid_pins --code=<rse|replication|ldgm|"
                 "ldgm-staircase|ldgm-triangle|ldgm-triangle-ge>\n");
    return 2;
  }

  GridSpec spec;
  spec.p_values = {0.0, 0.01, 0.05, 0.2};
  spec.q_values = {0.0, 0.2, 0.6, 1.0};
  GridRunOptions options;
  options.trials_per_cell = 2;
  options.master_seed = 0x9121d5eedULL;

  // Replication ignores the ratio: its n/k is its copy count.
  const std::vector<double> ratios =
      base.code == CodeKind::kReplication ? std::vector<double>{2.0}
                                          : std::vector<double>{1.5, 2.5};
  for (const double ratio : ratios) {
    for (const TxModel tx :
         {TxModel::kTx1SeqSourceSeqParity, TxModel::kTx2SeqSourceRandParity,
          TxModel::kTx3SeqParityRandSource, TxModel::kTx4AllRandom,
          TxModel::kTx5Interleaved, TxModel::kTx6FewSourceRandParity}) {
      ExperimentConfig cfg = base;
      cfg.tx = tx;
      cfg.expansion_ratio = ratio;
      const Experiment experiment(cfg);
      const GridResult result = experiment.run(spec, options);
      std::printf("# %s %s ratio=%.1f k=%u n=%u\n", code.c_str(),
                  std::string(to_string(tx)).c_str(), ratio, cfg.k,
                  experiment.n_total());
      for (const CellResult& c : result.cells)
        std::printf(
            "p=%.2f q=%.2f trials=%u failures=%u peak_mem=%u "
            "ineff=%zu/%.17g/%.17g/%.17g/%.17g recv=%.17g/%.17g/%.17g/%.17g\n",
            c.p, c.q, c.trials, c.failures, c.peak_memory_symbols,
            c.inefficiency.count(), c.inefficiency.mean(), c.inefficiency.m2(),
            c.inefficiency.count() ? c.inefficiency.min() : 0.0,
            c.inefficiency.count() ? c.inefficiency.max() : 0.0,
            c.received_ratio.mean(), c.received_ratio.m2(),
            c.received_ratio.min(), c.received_ratio.max());
    }
  }
  return 0;
}

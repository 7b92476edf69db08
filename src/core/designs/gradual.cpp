#include "core/designs/gradual.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace xp::core {

SutvaTests sutva_tests(const EstimateTable& table, std::string_view metric) {
  SutvaTests tests;
  std::vector<EffectEstimate> taus;
  for (const EstimateRow* row : table.metric_rows(metric)) {
    const EffectEstimate& effect = row->effect();
    if (effect.std_error == 0.0) continue;
    if (row->label.starts_with("tau@")) {
      taus.push_back(effect);
    } else if (row->label.starts_with("spillover@") && effect.significant) {
      ++tests.significant_spillovers;
    }
  }
  for (std::size_t i = 0; i < taus.size(); ++i) {
    for (std::size_t j = i + 1; j < taus.size(); ++j) {
      const double diff = taus[i].estimate - taus[j].estimate;
      const double se = std::sqrt(taus[i].std_error * taus[i].std_error +
                                  taus[j].std_error * taus[j].std_error);
      tests.max_tau_inequality_z =
          std::max(tests.max_tau_inequality_z, std::fabs(diff / se));
    }
  }
  tests.interference_detected = tests.max_tau_inequality_z > 2.0 ||
                                tests.significant_spillovers > 0;
  return tests;
}

}  // namespace xp::core

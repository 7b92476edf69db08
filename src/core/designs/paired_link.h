// The paired-link experiment design (Section 4 + Appendix B.1). Link 0
// runs a 95%-treatment A/B test, link 1 a 5%-treatment A/B test,
// simultaneously. The four reads per metric are registry estimators
// (core/estimator.h):
//
//   naive tau(0.95):  treated vs control within link 0 (naive/ab
//                     tau(link1), account-level)
//   naive tau(0.05):  treated vs control within link 1 (naive/ab
//                     tau(link2), account-level)
//   TTE-hat:          95% treated on link 0 vs 95% control on link 1
//                     (paired_link/tte, hourly FE + Newey-West)
//   spillover-hat:    5% control on link 0 vs 95% control on link 1
//                     (paired_link/spillover, hourly FE + Newey-West)
//
// All of them normalize by the mean of the 95%-control cell on link 1 —
// the same global control condition for every row. This header holds the
// cell pairings they are built from.
#pragma once

#include <span>
#include <vector>

#include "core/session_metrics.h"

namespace xp::core {

/// The TTE contrast rows: treated on the mostly-treated link (0) labeled
/// A=1, control on the mostly-control link (1) labeled A=0 (Figures 9/13
/// and the quantile ladders all use this cell pairing).
std::vector<Observation> tte_contrast(std::span<const Observation> rows);

/// The general cross-cell pairing every paired analysis reduces to: rows
/// matching `exposed` relabeled A=1 against rows matching `control`
/// relabeled A=0. TTE, spillover, and the A/A link-similarity read are
/// all instances of this.
std::vector<Observation> cross_cell_contrast(std::span<const Observation> rows,
                                             const RowFilter& exposed,
                                             const RowFilter& control);

}  // namespace xp::core

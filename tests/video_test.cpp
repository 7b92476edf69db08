// Video substrate: ladders, ABR strategies, fluid link, demand, session
// state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/rng.h"
#include "video/abr.h"
#include "video/bitrate.h"
#include "video/demand.h"
#include "video/fluid_link.h"
#include "video/session_pool.h"

namespace xp::video {
namespace {

const BitrateLadder& standard() { return BitrateLadder::shared_standard(); }

double top_index(const BitrateLadder& ladder) {
  return static_cast<double>(ladder.size() - 1);
}

// The hybrid buffer map's rate, read off the live index form.
double hybrid_rate(const BitrateLadder& ladder, double buffer_seconds) {
  return ladder.rungs()[abr_select_index_rungs(top_index(ladder), AbrConfig{},
                                               buffer_seconds)];
}

TEST(BitrateLadder, StandardIsAscending) {
  const auto& ladder = standard();
  EXPECT_GE(ladder.size(), 10u);
  EXPECT_DOUBLE_EQ(ladder.lowest(), 235e3);
  EXPECT_DOUBLE_EQ(ladder.highest(), 16000e3);
}

TEST(BitrateLadder, CappedTruncates) {
  const auto capped = standard().capped(2350e3);
  EXPECT_DOUBLE_EQ(capped.highest(), 2350e3);
  EXPECT_DOUBLE_EQ(capped.lowest(), 235e3);
  const auto floor = standard().capped(1.0);
  EXPECT_EQ(floor.size(), 1u);
}

TEST(BitrateLadder, RejectsBadLadders) {
  EXPECT_THROW(BitrateLadder({}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({2.0, 1.0}), std::invalid_argument);
}

TEST(PerceptualQuality, MonotoneAndBounded) {
  double prev = -1.0;
  for (double rate : {100e3, 235e3, 1e6, 4e6, 16e6, 50e6}) {
    const double q = perceptual_quality(rate);
    EXPECT_GT(q, prev);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 100.0);
    prev = q;
  }
  EXPECT_DOUBLE_EQ(perceptual_quality(0.0), 0.0);
}

TEST(Abr, ReservoirStreamsLowest) {
  EXPECT_DOUBLE_EQ(hybrid_rate(standard(), 0.0), 235e3);
  EXPECT_DOUBLE_EQ(hybrid_rate(standard(), 9.9), 235e3);
}

TEST(Abr, TopOfCushionStreamsHighest) {
  EXPECT_DOUBLE_EQ(hybrid_rate(standard(), 60.0), 16000e3);
  EXPECT_DOUBLE_EQ(hybrid_rate(standard(), 300.0), 16000e3);
}

TEST(Abr, MonotoneInBuffer) {
  double prev = 0.0;
  for (double buffer = 0.0; buffer <= 70.0; buffer += 2.0) {
    const double rate = hybrid_rate(standard(), buffer);
    EXPECT_GE(rate, prev);
    prev = rate;
  }
}

TEST(Abr, CappedLadderNeverExceedsCap) {
  const BitrateLadder capped = standard().capped(3000e3);
  for (double buffer = 0.0; buffer <= 100.0; buffer += 5.0) {
    EXPECT_LE(hybrid_rate(capped, buffer), 3000e3);
  }
  // The startup chunk is the configured rate, clamped to the ladder top.
  const AbrConfig config;
  EXPECT_DOUBLE_EQ(abr_startup(standard(), config), config.startup_bitrate);
  EXPECT_DOUBLE_EQ(abr_startup(standard().capped(750e3), config), 750e3);
}

TEST(Abr, RungAtMostFloorsAndCeils) {
  const auto& ladder = standard();
  const double* rungs = ladder.rungs().data();
  const double top = top_index(ladder);
  const auto at_most = [&](double value) {
    return rungs[rung_index_at_most(rungs, top, value)];
  };
  EXPECT_DOUBLE_EQ(at_most(100e3), 235e3);  // floor rung
  EXPECT_DOUBLE_EQ(at_most(3100e3), 3000e3);
  EXPECT_DOUBLE_EQ(at_most(3000e3), 3000e3);  // exact hit
  EXPECT_DOUBLE_EQ(at_most(1e9), 16000e3);
}

TEST(Abr, BbaSelectIsMonotoneAndRateLinear) {
  const auto& ladder = standard();
  const double* rungs = ladder.rungs().data();
  const double top = top_index(ladder);
  const AbrConfig config;
  const auto bba = [&](double buffer) {
    return rungs[bba_select_index_rungs(rungs, top, config, buffer)];
  };
  // Reservoir and full-cushion endpoints match the hybrid map...
  EXPECT_DOUBLE_EQ(bba(5.0), 235e3);
  EXPECT_DOUBLE_EQ(bba(60.0), 16000e3);
  // ...but mid-cushion BBA maps linearly in *rate*: on the roughly
  // geometric ladder that sits well above the index interpolation
  // (half the rate range lands among the top rungs).
  EXPECT_GT(bba(35.0), hybrid_rate(ladder, 35.0));
  double prev = 0.0;
  for (double buffer = 0.0; buffer <= 70.0; buffer += 2.0) {
    const double rate = bba(buffer);
    EXPECT_GE(rate, prev);
    prev = rate;
  }
}

TEST(Abr, RateSelectTracksThroughput) {
  const auto& ladder = standard();
  const double* rungs = ladder.rungs().data();
  const double top = top_index(ladder);
  const auto rate = [&](double target_bps) {
    return rungs[rate_select_index_rungs(rungs, top, target_bps)];
  };
  EXPECT_DOUBLE_EQ(rate(0.0), 235e3);
  EXPECT_DOUBLE_EQ(rate(2e6), 1750e3);
  EXPECT_DOUBLE_EQ(rate(50e6), 16000e3);
}

TEST(MaxMinFair, EqualSplitWhenOversubscribed) {
  const std::vector<double> demands{10.0, 10.0, 10.0, 10.0};
  const auto alloc = max_min_fair_allocation(demands, 20.0);
  for (double a : alloc) EXPECT_NEAR(a, 5.0, 1e-12);
}

TEST(MaxMinFair, SmallDemandsFullySatisfied) {
  const std::vector<double> demands{1.0, 2.0, 100.0};
  const auto alloc = max_min_fair_allocation(demands, 10.0);
  EXPECT_NEAR(alloc[0], 1.0, 1e-12);
  EXPECT_NEAR(alloc[1], 2.0, 1e-12);
  EXPECT_NEAR(alloc[2], 7.0, 1e-12);
}

TEST(MaxMinFair, NeverExceedsCapacityOrDemand) {
  xp::stats::Rng rng(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> demands(20);
    for (auto& d : demands) d = rng.uniform(0.0, 10.0);
    const double capacity = rng.uniform(1.0, 100.0);
    const auto alloc = max_min_fair_allocation(demands, capacity);
    double total = 0.0;
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      total += alloc[i];
    }
    EXPECT_LE(total, capacity + 1e-6);
  }
}

TEST(MaxMinFair, EmptyAndZeroCapacity) {
  EXPECT_TRUE(max_min_fair_allocation({}, 10.0).empty());
  const auto alloc = max_min_fair_allocation(std::vector<double>{5.0}, 0.0);
  EXPECT_DOUBLE_EQ(alloc[0], 0.0);
}

// One tick of a single session demanding (and desiring) `demand_bps`,
// through the presummed form the cluster tick calls.
void tick(FluidLink& link, double demand_bps, double dt) {
  const std::vector<double> demands{demand_bps};
  std::vector<double> alloc;
  link.allocate_and_advance(demands, demand_bps, demand_bps, 1, dt, alloc);
}

TEST(FluidLink, QueueBuildsUnderSustainedOverload) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 1200; ++i) {
    tick(link, 2e9, 1.0);  // persistent 2x overload
  }
  EXPECT_GT(link.queueing_delay(), 0.9 * config.buffer_seconds);
  EXPECT_GT(link.rtt(), config.base_rtt + 0.9 * config.buffer_seconds);
  EXPECT_GT(link.loss_fraction(), config.base_loss);
}

TEST(FluidLink, QueueDrainsWhenLoadRecedes) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 1200; ++i) {
    tick(link, 3e9, 1.0);
  }
  for (int i = 0; i < 1200; ++i) {
    tick(link, 1e8, 1.0);
  }
  EXPECT_LT(link.queueing_delay(), 0.02);
  EXPECT_NEAR(link.loss_fraction(), config.base_loss, 1e-4);
}

TEST(FluidLink, NoQueueBelowKnee) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 600; ++i) {
    tick(link, 8e8, 1.0);
  }
  EXPECT_NEAR(link.queueing_delay(), 0.0, 1e-6);
}

TEST(FluidLink, LossMonotoneInOccupancy) {
  FluidLinkConfig config;
  FluidLink link(config);
  double prev_loss = -1.0;
  for (int i = 0; i < 40; ++i) {
    tick(link, 5e9, 10.0);
    EXPECT_GE(link.loss_fraction(), prev_loss);
    prev_loss = link.loss_fraction();
  }
}

TEST(Demand, DiurnalShapePeaksInEvening) {
  DemandModel model{DemandConfig{}};
  const double peak = model.arrival_rate(20.0 * 3600.0);
  const double trough = model.arrival_rate(4.0 * 3600.0);
  EXPECT_GT(peak, 5.0 * trough);
}

TEST(Demand, WeekendUplift) {
  DemandModel model{DemandConfig{}};
  const double weekday = model.arrival_rate(2 * 86400.0 + 20.0 * 3600.0);
  const double weekend = model.arrival_rate(5 * 86400.0 + 20.0 * 3600.0);
  EXPECT_GT(weekend, weekday * 1.05);
}

TEST(Demand, DurationsWithinBounds) {
  DemandModel model{DemandConfig{}};
  xp::stats::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const double d = model.draw_duration(rng);
    EXPECT_GE(d, 120.0);
    EXPECT_LE(d, 4.0 * 3600.0);
  }
}

TEST(Demand, HourAndDayHelpers) {
  EXPECT_EQ(hour_of(0.0), 0u);
  EXPECT_EQ(hour_of(3600.0 * 25), 1u);
  EXPECT_EQ(day_of(86400.0 * 3 + 5), 3u);
}

SessionParams fast_session_params() {
  SessionParams params;
  params.access_rate_sigma = 0.0;  // deterministic access for unit tests
  return params;
}

/// One session in a pool of one, driven through the pool's per-slot state
/// machine. The arrival makes the same rng draws as a cluster arrival
/// (patience, then access rate) and plays `ceiling`'s capped ladder.
struct PoolOfOne {
  explicit PoolOfOne(xp::stats::Rng& rng, double ceiling = 16e6,
                     double duration = 600.0)
      : ladder(standard().capped(ceiling)),
        pool(fast_session_params(), {AbrPolicy{}}) {
    const SessionParams params = fast_session_params();
    SessionPool::Arrival arrival;
    arrival.id = 1;
    arrival.account = 1;
    arrival.duration = duration;
    arrival.ladder = &ladder;
    arrival.patience =
        rng.uniform(params.cancel_patience_min, params.cancel_patience_max);
    arrival.access_rate_bps = std::clamp(
        rng.lognormal(std::log(params.access_rate_median),
                      params.access_rate_sigma),
        params.access_rate_min, params.access_rate_max);
    pool.add(arrival);
  }
  PoolOfOne(const PoolOfOne&) = delete;  // the pool points at `ladder`
  PoolOfOne& operator=(const PoolOfOne&) = delete;

  /// One tick at link rate `rate_bps`, RTT `rtt` and loss fraction `loss`.
  void advance(double dt, double rate_bps, double rtt, double loss) {
    const double alloc[1] = {rate_bps};
    pool.advance_all(dt, alloc, rtt, loss);
  }
  SessionState state() const noexcept { return pool.state(0); }
  bool finished() const noexcept { return state() == SessionState::kDone; }
  SessionRecord finalize() const { return pool.finalize(0); }

  BitrateLadder ladder;
  SessionPool pool;
};

TEST(Session, StartsInStartupAndBeginsPlaying) {
  xp::stats::Rng rng(1);
  PoolOfOne session(rng);
  EXPECT_EQ(session.state(), SessionState::kStartup);
  // Grant a generous rate: startup completes in the first ticks.
  for (int i = 0; i < 5 && !0; ++i) {
    session.advance(1.0, 20e6, 0.03, 0.0);
  }
  EXPECT_EQ(session.state(), SessionState::kPlaying);
  const SessionRecord r = session.finalize();
  EXPECT_GT(r.play_delay, 0.0);
  EXPECT_LT(r.play_delay, 3.0);
}

TEST(Session, StarvedSessionCancels) {
  xp::stats::Rng rng(2);
  PoolOfOne session(rng);
  for (int i = 0; i < 120 && !session.finished(); ++i) {
    session.advance(1.0, 1e3, 0.03, 0.0);  // 1 kb/s: hopeless
  }
  EXPECT_TRUE(session.finished());
  EXPECT_TRUE(session.finalize().cancelled_start);
}

TEST(Session, RebuffersWhenRateCollapses) {
  xp::stats::Rng rng(3);
  PoolOfOne session(rng);
  for (int i = 0; i < 30; ++i) session.advance(1.0, 20e6, 0.03, 0.0);
  EXPECT_EQ(session.state(), SessionState::kPlaying);
  // Starve long enough to drain the buffer entirely.
  for (int i = 0; i < 120; ++i) session.advance(1.0, 0.0, 0.03, 0.0);
  const SessionRecord r = session.finalize();
  EXPECT_GE(r.rebuffer_count, 1u);
  EXPECT_TRUE(r.had_rebuffer);
  EXPECT_GT(r.rebuffer_seconds, 0.0);
}

TEST(Session, CompletesAfterDuration) {
  xp::stats::Rng rng(4);
  PoolOfOne session(rng, 16e6, 120.0);
  for (int i = 0; i < 300 && !session.finished(); ++i) {
    session.advance(1.0, 20e6, 0.03, 0.0);
  }
  EXPECT_TRUE(session.finished());
  const SessionRecord r = session.finalize();
  EXPECT_FALSE(r.cancelled_start);
  EXPECT_NEAR(r.duration, 120.0, 2.0);
  EXPECT_GT(r.avg_bitrate_bps, 235e3);
}

TEST(Session, MinRttTracksLowestSeen) {
  xp::stats::Rng rng(5);
  PoolOfOne session(rng);
  session.advance(1.0, 20e6, 0.050, 0.0);
  session.advance(1.0, 20e6, 0.030, 0.0);
  session.advance(1.0, 20e6, 0.200, 0.0);
  EXPECT_DOUBLE_EQ(session.finalize().min_rtt, 0.030);
}

TEST(Session, LossShowsUpAsRetransmits) {
  xp::stats::Rng rng(6);
  PoolOfOne session(rng);
  for (int i = 0; i < 60; ++i) session.advance(1.0, 10e6, 0.03, 0.02);
  const SessionRecord r = session.finalize();
  EXPECT_GT(r.retransmit_fraction, 0.015);
  EXPECT_LT(r.retransmit_fraction, 0.05);
}

TEST(Session, CappedCeilingLimitsBitrate) {
  xp::stats::Rng rng(7);
  PoolOfOne session(rng, 1750e3, 300.0);
  for (int i = 0; i < 400 && !session.finished(); ++i) {
    session.advance(1.0, 50e6, 0.03, 0.0);
  }
  EXPECT_LE(session.finalize().avg_bitrate_bps, 1750e3 + 1.0);
}

TEST(Session, SpuriousRebufferInjection) {
  xp::stats::Rng rng(8);
  PoolOfOne session(rng);
  for (int i = 0; i < 20; ++i) session.advance(1.0, 20e6, 0.03, 0.0);
  ASSERT_EQ(session.state(), SessionState::kPlaying);
  session.pool.inject_spurious_rebuffer(0, 1.5);
  const SessionRecord r = session.finalize();
  EXPECT_EQ(r.rebuffer_count, 1u);
  EXPECT_DOUBLE_EQ(r.rebuffer_seconds, 1.5);
}

}  // namespace
}  // namespace xp::video

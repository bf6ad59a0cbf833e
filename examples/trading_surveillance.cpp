// Trading surveillance: the paper's introduction motivates stream joins
// with trading applications where anomalies must be reported "as early as
// possible". This example joins a trade stream against a quote stream with
// the paper's band-join pattern — a trade is suspicious when it executes
// far enough from any contemporaneous quote ("trade-through" style check) —
// and reports per-alert detection latency, the metric LLHJ optimizes.
//
//   $ ./trading_surveillance [trades-per-sec] [seconds]
#include <cstdio>
#include <cstdlib>

#include "common/clock.hpp"
#include "core/join_session.hpp"
#include "common/rng.hpp"
#include "stream/stats.hpp"

using namespace sjoin;

namespace {

struct Trade {
  int32_t symbol = 0;
  double price = 0.0;
  int32_t qty = 0;
};

struct Quote {
  int32_t symbol = 0;
  double bid = 0.0;
  double ask = 0.0;
};

/// A trade joins a quote of the same symbol when its price falls *outside*
/// the quoted spread by more than the tolerance — a candidate alert.
struct TradeThrough {
  double tolerance = 0.5;
  bool operator()(const Trade& t, const Quote& q) const {
    if (t.symbol != q.symbol) return false;
    return t.price < q.bid - tolerance || t.price > q.ask + tolerance;
  }
};

class AlertHandler : public OutputHandler<Trade, Quote> {
 public:
  void OnResult(const ResultMsg<Trade, Quote>& m) override {
    const double latency_ms = NsToMs(NowNs() - m.ready_wall_ns);
    latency_.Add(latency_ms);
    if (alerts_ < 10) {
      std::printf("ALERT sym=%d trade %.2f outside [%.2f, %.2f]  "
                  "(detected %.3f ms after the later event)\n",
                  m.r.symbol, m.r.price, m.s.bid, m.s.ask, latency_ms);
    }
    ++alerts_;
  }

  uint64_t alerts() const { return alerts_; }
  const RunningStat& latency() const { return latency_; }

 private:
  uint64_t alerts_ = 0;
  RunningStat latency_;
};

}  // namespace

int main(int argc, char** argv) {
  const double rate = argc > 1 ? std::atof(argv[1]) : 2000.0;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 5.0;

  AlertHandler alerts;
  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 4;
  config.window_r = WindowSpec::Time(2'000'000);  // trades: last 2 s
  config.window_s = WindowSpec::Time(2'000'000);  // quotes: last 2 s
  config.threaded = true;  // pipeline nodes on their own threads
  JoinSession<Trade, Quote, TradeThrough> join(config);
  join.AddQuery(TradeThrough{}, &alerts);

  std::printf("surveillance on %d symbols, %.0f trades+quotes/s each side, "
              "%.1f s...\n\n",
              64, rate, seconds);

  Rng rng(7);
  const int64_t start = NowNs();
  const int64_t period_ns = static_cast<int64_t>(1e9 / (2.0 * rate));
  int64_t next_due = start;
  uint64_t events = 0;
  while (NowNs() - start < static_cast<int64_t>(seconds * 1e9)) {
    // Pace the market feed against the wall clock.
    while (NowNs() < next_due) {
    }
    next_due += period_ns;
    const Timestamp ts = (NowNs() - start) / 1000;  // event time in us
    const int32_t symbol = static_cast<int32_t>(rng.UniformInt(0, 63));
    const double mid = 100.0 + symbol;
    if (events % 2 == 0) {
      // Mostly in-spread trades; occasionally a through-trade.
      const bool through = rng.Chance(0.002);
      const double px =
          through ? mid + 2.0 + rng.UniformDouble()
                  : mid + (rng.UniformDouble() - 0.5) * 0.2;
      join.PushR(Trade{symbol, px, 100}, ts);
    } else {
      join.PushS(Quote{symbol, mid - 0.1, mid + 0.1}, ts);
    }
    ++events;
    if (events % 512 == 0) join.Poll();
  }
  join.FinishInput();

  std::printf("\nprocessed %llu events, raised %llu alerts\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(alerts.alerts()));
  if (alerts.latency().count() > 0) {
    std::printf("detection latency: avg %.3f ms, max %.3f ms\n",
                alerts.latency().mean(), alerts.latency().max());
  }
  return 0;
}

// Ordered output: demonstrates the punctuation mechanism (paper Section 6).
// A punctuated LLHJ result stream feeds the downstream sorting operator,
// which emits a *physically ordered* stream while buffering only until the
// next punctuation — versus buffering the whole disorder horizon without
// punctuations (Section 6.2).
//
//   $ ./ordered_output [events]
#include <cstdio>
#include <cstdlib>

#include "core/join_session.hpp"
#include "common/rng.hpp"
#include "stream/sorter.hpp"

using namespace sjoin;

namespace {

struct Order {
  int32_t item = 0;
  int32_t qty = 0;
};

struct Shipment {
  int32_t item = 0;
  int32_t qty = 0;
};

struct SameItem {
  bool operator()(const Order& o, const Shipment& s) const {
    return o.item == s.item;
  }
};

/// Verifies that what it receives is ordered by timestamp.
class OrderChecker : public OutputHandler<Order, Shipment> {
 public:
  void OnResult(const ResultMsg<Order, Shipment>& m) override {
    if (m.ts < last_ts_) ++violations_;
    last_ts_ = m.ts;
    ++count_;
  }
  void OnPunctuation(Timestamp) override { ++punctuations_; }

  uint64_t count() const { return count_; }
  uint64_t violations() const { return violations_; }
  uint64_t punctuations() const { return punctuations_; }

 private:
  Timestamp last_ts_ = kMinTimestamp;
  uint64_t count_ = 0;
  uint64_t violations_ = 0;
  uint64_t punctuations_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const int events = argc > 1 ? std::atoi(argv[1]) : 20'000;

  OrderChecker checker;
  PunctuationSorter<Order, Shipment> sorter(&checker);

  JoinConfig config;
  config.algorithm = Algorithm::kLowLatency;
  config.parallelism = 4;
  config.window_r = WindowSpec::Count(512);
  config.window_s = WindowSpec::Count(512);
  config.punctuate = true;   // high-water-mark punctuations (Section 6.1)
  config.threaded = false;
  JoinSession<Order, Shipment, SameItem> join(config);
  join.AddQuery(SameItem{}, &sorter);

  Rng rng(5);
  for (int i = 0; i < events; ++i) {
    const Timestamp ts = i;
    const int32_t item = static_cast<int32_t>(rng.UniformInt(0, 99));
    if (i % 2 == 0) {
      join.PushR(Order{item, 1}, ts);
    } else {
      join.PushS(Shipment{item, 1}, ts);
    }
    if (i % 256 == 0) join.Poll();
  }
  join.FinishInput();
  sorter.Flush();

  std::printf("events:            %d\n", events);
  std::printf("ordered results:   %llu\n",
              static_cast<unsigned long long>(checker.count()));
  std::printf("order violations:  %llu (must be 0)\n",
              static_cast<unsigned long long>(checker.violations()));
  std::printf("punctuations:      %llu\n",
              static_cast<unsigned long long>(checker.punctuations()));
  std::printf("max sort buffer:   %zu tuples (vs %llu results without "
              "punctuations)\n",
              sorter.max_buffered(),
              static_cast<unsigned long long>(checker.count()));
  return checker.violations() == 0 ? 0 : 1;
}

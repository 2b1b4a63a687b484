// A classic discrete-event queue over the virtual clock. The synchronous
// call graphs of the HNS experiments mostly advance the clock directly, but
// timed behaviour (cache TTL expiry sweeps, server background refresh, zone
// transfer timers) runs through here.

#ifndef HCS_SRC_SIM_EVENT_QUEUE_H_
#define HCS_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/time.h"

namespace hcs {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  explicit EventQueue(VirtualClock* clock) : clock_(clock) {}

  // Schedules `cb` to run at absolute simulated time `when`. Events
  // scheduled for the past run at the current time.
  void ScheduleAt(SimTime when, Callback cb);

  // Schedules `cb` to run `delay` after the current time.
  void ScheduleAfter(SimDuration delay, Callback cb);

  // Runs events in timestamp order until the queue is empty, advancing the
  // clock to each event's time. Returns the number of events run.
  size_t RunUntilIdle();

  // Runs events with timestamp <= deadline, then advances the clock to
  // `deadline` (if it is beyond the last event). Returns events run.
  size_t RunUntil(SimTime deadline);

  // Number of pending events.
  size_t pending() const { return heap_.size(); }

  bool empty() const { return heap_.empty(); }

 private:
  struct Event {
    SimTime when;
    uint64_t sequence;  // tie-break: FIFO among same-time events
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };

  // Removes the earliest event, advances the clock to it and runs it.
  void RunNext();

  VirtualClock* clock_;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  uint64_t next_sequence_ = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_SIM_EVENT_QUEUE_H_

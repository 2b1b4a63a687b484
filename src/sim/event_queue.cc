#include "src/sim/event_queue.h"

namespace hcs {

void EventQueue::ScheduleAt(SimTime when, Callback cb) {
  if (when < clock_->Now()) {
    when = clock_->Now();
  }
  heap_.push(Event{when, next_sequence_++, std::move(cb)});
}

void EventQueue::ScheduleAfter(SimDuration delay, Callback cb) {
  ScheduleAt(clock_->Now() + delay, std::move(cb));
}

void EventQueue::RunNext() {
  Event e = heap_.top();
  heap_.pop();
  clock_->AdvanceTo(e.when);
  e.cb();
}

size_t EventQueue::RunUntilIdle() {
  size_t run = 0;
  while (!heap_.empty()) {
    RunNext();
    ++run;
  }
  return run;
}

size_t EventQueue::RunUntil(SimTime deadline) {
  size_t run = 0;
  while (!heap_.empty() && heap_.top().when <= deadline) {
    RunNext();
    ++run;
  }
  if (clock_->Now() < deadline) {
    clock_->AdvanceTo(deadline);
  }
  return run;
}

}  // namespace hcs

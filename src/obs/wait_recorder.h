// Blocked-wait recording over the machines' event stream.
#pragma once

#include "mach/event_sink.h"
#include "obs/hist.h"
#include "obs/timeseries.h"

namespace xhc::obs {

/// Records every flag wait that blocked: the seconds it blocked go into
/// HistKind::kFlagWait of `hists` and, at the resume time, into series
/// `series_id` of `series` (either may be null). The machine supplies both
/// times: virtual on SimMachine, so recording is deterministic and charges
/// nothing; wall-clock on RealMachine. Attach it with mach::Machine::attach.
class WaitRecorder final : public mach::EventSink {
 public:
  explicit WaitRecorder(HistSet* hists, TimeSeries* series = nullptr,
                        int series_id = 0) noexcept
      : hists_(hists), series_(series), series_id_(series_id) {}

  void on_event(const mach::Event& e) override {
    if (e.kind != mach::Event::Kind::kWaitEnd || !e.blocked) return;
    if (hists_ != nullptr) {
      hists_->record(e.rank, HistKind::kFlagWait, e.waited);
    }
    if (series_ != nullptr) {
      series_->record(e.rank, series_id_, e.resumed, e.waited);
    }
  }

 private:
  HistSet* hists_;
  TimeSeries* series_;
  int series_id_;
};

}  // namespace xhc::obs

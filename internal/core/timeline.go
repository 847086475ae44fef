package core

import "protozoa/internal/engine"

// TimelineSample is a cumulative-counter snapshot taken mid-run.
// Consumers diff adjacent samples to get per-window rates — warmup
// versus steady-state behaviour, the phase structure of barrier
// workloads, and so on.
type TimelineSample struct {
	Cycle    engine.Cycle
	Accesses uint64
	Misses   uint64
	Traffic  uint64
	FlitHops uint64
}

// EnableTimeline samples the run every interval cycles. Call before
// Run; sampling stops when every core has finished.
func (s *System) EnableTimeline(interval engine.Cycle) {
	if interval == 0 {
		interval = 1000
	}
	s.timelineInterval = interval
}

// Timeline returns the collected samples in time order.
func (s *System) Timeline() []TimelineSample { return s.timeline }

// timelineEvent is the pre-bound engine.Runner behind sampleTimeline:
// rescheduling it re-queues the same struct instead of capturing a new
// closure per sample.
type timelineEvent struct{ s *System }

func (ev *timelineEvent) Run() { ev.s.sampleTimeline() }

func (s *System) sampleTimeline() {
	s.checkStalls()
	s.timeline = append(s.timeline, TimelineSample{
		Cycle:    s.eng.Now(),
		Accesses: s.st.Accesses,
		Misses:   s.st.L1Misses,
		Traffic:  s.st.TrafficTotal(),
		FlitHops: s.st.FlitHops,
	})
	if s.metrics != nil {
		s.metrics.Sample(uint64(s.eng.Now()))
	}
	if s.onSample != nil {
		s.onSample(uint64(s.eng.Now()))
	}
	if s.coresDone < s.cfg.Cores {
		s.eng.ScheduleRunner(s.timelineInterval, &s.timelineEv)
	}
}

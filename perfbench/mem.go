package main

import (
	"runtime/metrics"
	"time"
)

// memPeak samples, every 10 ms until stopped, the memory the Go runtime
// holds from the operating system (everything mapped, less what it has
// released back) and keeps the highest reading. Tiers and harness share
// the process, so the reading covers both.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(samples)
		if held := samples[0].Value.Uint64() - samples[1].Value.Uint64(); held > m.peak {
			m.peak = held
		}
	}
	read()
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// Stop ends the sampling and returns the peak in MB.
func (m *memPeak) Stop() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// residentBytes is the memory the Go runtime holds mapped and has not
// returned to the operating system: the process's resident heap, stacks
// and runtime structures.
func residentBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// rssSampler records resident memory every rssInterval until stopped.
type rssSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MiB; written by the sampling goroutine until wg.Wait returns
}

const rssInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			r.samples = append(r.samples, float64(residentBytes())/(1<<20))
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// Stop ends sampling and returns the mean of the samples: the pass's
// time-averaged resident memory. The peak is not used because, with two
// grid workers, it depends on which cells happen to be live together when
// the collector runs.
func (r *rssSampler) Stop() float64 {
	close(r.stop)
	r.wg.Wait()
	var sum float64
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

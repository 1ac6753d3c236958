package workload

import (
	"fmt"
	"sync"
)

// Key identifies a generated script by everything Build reads. It is
// comparable, so it keys a Cache directly.
type Key struct {
	Name string
	Huge bool
	Seed int64
	// Quick shrinks forkbench to a 4 MB region (8 MB with huge pages), and
	// RegionKB > 0 sets its region outright; every other workload builds at
	// its full calibrated size.
	Quick    bool
	RegionKB uint64
}

// Forkbench returns the forkbench parameters the key selects: the paper's
// defaults, scaled by Quick and RegionKB.
func (k Key) Forkbench() ForkbenchParams {
	p := DefaultForkbench(k.Huge)
	switch {
	case k.RegionKB > 0:
		p.RegionBytes = k.RegionKB << 10
	case k.Quick && k.Huge:
		p.RegionBytes = 8 << 20
	case k.Quick:
		p.RegionBytes = 4 << 20
	}
	return p
}

// Build generates the catalogue workload the key names, forkbench scaled by
// Key.Forkbench.
func Build(k Key) (Script, error) {
	if k.Name == "forkbench" {
		return Forkbench(k.Forkbench()), nil
	}
	spec, err := ByName(k.Name)
	if err != nil {
		return Script{}, err
	}
	return spec.Build(k.Huge, k.Seed), nil
}

// Cache interns built scripts so each key is generated once and shared
// read-only by every run that asks for it. sim.Machine.Run treats a script
// as immutable, so sharing is safe across a worker pool. The zero value is
// ready to use, and a nil *Cache builds every request afresh.
type Cache struct {
	mu sync.Mutex
	m  map[Key]*cached
}

type cached struct {
	once   sync.Once
	script Script
	err    error
}

// Get returns the script for k, building it on first use. Concurrent first
// requests for one key wait for a single build.
func (c *Cache) Get(k Key) (Script, error) {
	if c == nil {
		return Build(k)
	}
	c.mu.Lock()
	e := c.m[k]
	if e == nil {
		if c.m == nil {
			c.m = make(map[Key]*cached)
		}
		e = &cached{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		// Set first so a build that panics leaves an error, not an empty
		// script, for every later Get.
		e.err = fmt.Errorf("workload: building %s panicked", k.Name)
		e.script, e.err = Build(k)
	})
	return e.script, e.err
}

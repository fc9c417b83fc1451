package core

import (
	"math"

	"manetskyline/internal/tuple"
)

// QuorumSize is how many distinct devices must answer before a query
// completes: the fraction quorum of the others devices besides the
// originator, rounded up (80 % in the paper's §5.2.3). It is 0 when there
// is nobody else to ask.
func QuorumSize(quorum float64, others int) int {
	if others <= 0 {
		return 0
	}
	return int(math.Ceil(quorum * float64(others)))
}

// Collector is the originator's side of result assembly (§4.3): it folds
// every reply into the partial result with duplicate elimination and
// completes once a quorum of distinct devices has answered. Replies are
// counted per sender, so a retried or duplicated frame neither counts
// twice nor completes a query with devices missing. A Collector is not
// safe for concurrent use; the live peer runtime guards it with its lock.
type Collector struct {
	merged []tuple.Tuple
	from   map[DeviceID]bool
	want   int
}

// NewCollector starts collection from the originator's own local skyline
// with the quorum of QuorumSize(quorum, others).
func NewCollector(local []tuple.Tuple, quorum float64, others int) *Collector {
	return &Collector{
		merged: local,
		from:   make(map[DeviceID]bool),
		want:   QuorumSize(quorum, others),
	}
}

// Add merges one device's reply and counts the device toward the quorum.
// It reports false, merging nothing, when that device already answered.
func (c *Collector) Add(from DeviceID, tuples []tuple.Tuple) bool {
	if c.from[from] {
		return false
	}
	c.from[from] = true
	c.merged = Merge(c.merged, tuples)
	return true
}

// Absorb merges tuples that do not count toward the quorum: the SF
// sampling round's samples.
func (c *Collector) Absorb(tuples []tuple.Tuple) {
	c.merged = Merge(c.merged, tuples)
}

// Merged returns the partial result so far. Callers must copy it before
// the next Add or Absorb if they keep it.
func (c *Collector) Merged() []tuple.Tuple { return c.merged }

// Results returns how many distinct devices have answered.
func (c *Collector) Results() int { return len(c.from) }

// Complete reports whether the quorum of distinct devices has answered.
func (c *Collector) Complete() bool { return len(c.from) >= c.want }

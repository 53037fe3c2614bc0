package xmltree

import (
	"math"
	"testing"
)

// TestMarksResetEmpties: Reset empties every set of the family at
// once, sets are independent, and rows grow on demand.
func TestMarksResetEmpties(t *testing.T) {
	var m Marks
	m.Reset(2)
	if !m.Add(0, 3) || m.Add(0, 3) {
		t.Fatal("Add must report absence once")
	}
	if m.Has(1, 3) {
		t.Fatal("sets of one family must be independent")
	}
	if !m.Add(1, 10_000) || !m.Has(1, 10_000) {
		t.Fatal("row did not grow to a large NodeID")
	}
	m.Reset(3)
	for i, id := range []NodeID{3, 10_000, 0} {
		if m.Has(i, id) {
			t.Errorf("set %d still holds %d after Reset", i, id)
		}
	}
}

// TestMarksEpochWrap drives the epoch across 2³²: a stamp left from
// an early epoch would read as current once the counter restarts at 1,
// so the wrap must clear every row, including rows of sets the
// wrapping Reset did not make available.
func TestMarksEpochWrap(t *testing.T) {
	var m Marks
	m.Reset(2)
	m.Add(0, 5) // stamped with epoch 1
	m.Add(1, 6)
	m.epoch = math.MaxUint32 - 1
	m.Reset(2)
	m.Add(0, 7) // stamped with epoch 2³²-1
	m.Reset(2)  // wraps
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	if m.Has(0, 5) || m.Has(1, 6) || m.Has(0, 7) || m.Has(0, 100) {
		t.Fatal("sets not empty after the epoch wrapped")
	}
	if !m.Add(0, 5) || !m.Has(0, 5) {
		t.Fatal("set unusable after the wrap")
	}

	var n Marks
	n.Reset(3)
	n.Reset(3)
	n.Add(2, 9) // stamped with epoch 2 in the third set
	n.epoch = math.MaxUint32
	n.Reset(1) // wraps while only one set is in use
	n.Reset(3) // epoch 2 again
	if n.Has(2, 9) {
		t.Fatal("a set outside the wrapping Reset kept its stale stamp")
	}
}
